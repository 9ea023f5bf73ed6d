//! # mpq-server
//!
//! The federated deployment of the multi-provider query model: glue
//! between the planning pipeline (`mpq-planner`), the per-subject
//! server runtime (`mpq_dist::remote`), and two binaries —
//!
//! * **`mpq-server`** — hosts one subject as its own OS process: its
//!   partition of the base relations, its RSA keypair, and (after
//!   Def. 6.1 provisioning) its cluster keys. Nothing else.
//! * **`mpq-client`** — the querying user's process: parses SQL,
//!   derives the authorized minimal extension (Def. 4.1 candidates →
//!   cost-based assignment → `minimally_extend` → `plan_keys`),
//!   verifies it statically, and drives the §6 protocol across the
//!   servers over TCP via [`mpq_dist::Coordinator`].
//!
//! Both sides derive the *fixture* — catalog, subjects, policy, and
//! the full database — deterministically from `(fixture, scale, seed)`
//! so no schema or data files cross the wire; each server then keeps
//! only the partition its subject is the authority of. This mirrors
//! the paper's setting: the data is already *at* the authorities, and
//! only query results move.
//!
//! This crate deliberately contains **no socket code**: everything
//! network-shaped lives behind the `Transport` seam in
//! [`mpq_dist::transport`] (the repo lint enforces this).

use mpq_algebra::builder::plan_sql;
use mpq_algebra::{Catalog, SubjectId};
use mpq_core::capability::CapabilityPolicy;
use mpq_core::fixtures::RunningExample;
use mpq_core::subjects::Subjects;
use mpq_exec::Database;
use mpq_planner::stats::{collect_stats, SampleConfig};
use mpq_planner::{
    build_scenario, optimize, Optimized, PriceBook, Scenario, ScenarioEnv, Strategy,
};
use std::collections::HashMap;

/// Which shared world both sides of the wire derive from the seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fixture {
    /// The paper's running example: `Hosp(S,B,D,T)` at hospital `H`,
    /// `Ins(C,P)` at insurer `I`, providers `X`/`Y`/`Z`, user `U`.
    RunningExample,
    /// TPC-H at the given scale factor, split between authorities
    /// `A1`/`A2` under the §7 `UAPenc` scenario.
    Tpch {
        /// Scale factor (1.0 = the paper's 1 GB configuration).
        scale: f64,
    },
}

impl Fixture {
    /// Parse a `--fixture` argument.
    pub fn parse(name: &str, scale: f64) -> Result<Fixture, String> {
        match name {
            "running-example" => Ok(Fixture::RunningExample),
            "tpch" => Ok(Fixture::Tpch { scale }),
            other => Err(format!(
                "unknown fixture `{other}` (expected `running-example` or `tpch`)"
            )),
        }
    }

    /// Build the world this fixture describes. Deterministic in
    /// `(self, seed)`: a server and a client given the same arguments
    /// agree on every byte of schema, policy, and data.
    pub fn build(self, seed: u64) -> World {
        match self {
            Fixture::RunningExample => {
                let ex = RunningExample::new();
                let mut db = Database::new();
                db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
                db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
                let user = ex.subject("U");
                let prices = PriceBook::paper_defaults(&ex.subjects, &[1.0, 1.25, 1.6]);
                World {
                    env: ScenarioEnv {
                        subjects: ex.subjects,
                        policy: ex.policy,
                        prices,
                        user,
                    },
                    catalog: ex.catalog,
                    db,
                    cap: CapabilityPolicy::default(),
                }
            }
            Fixture::Tpch { scale } => {
                let (catalog, db) = mpq_tpch::generate(scale, seed);
                let env = build_scenario(&catalog, Scenario::UAPenc);
                World {
                    env,
                    catalog,
                    db,
                    cap: CapabilityPolicy::tpch_evaluation(),
                }
            }
        }
    }
}

/// A fully derived fixture world: schema, subjects, authorizations,
/// prices, and the complete database (of which a server keeps only its
/// own partition).
pub struct World {
    /// The shared schema.
    pub catalog: Catalog,
    /// Subjects, policy, price book, and the querying user.
    pub env: ScenarioEnv,
    /// The *full* database — partition before hosting.
    pub db: Database,
    /// Capability policy for candidate computation.
    pub cap: CapabilityPolicy,
}

impl World {
    /// The partition subject `me` is the authority of — the only data
    /// an `mpq-server` process for `me` ever holds.
    pub fn partition(&self, me: SubjectId) -> Database {
        let subjects = &self.env.subjects;
        self.db.partition(|rel| subjects.authority(rel) == Some(me))
    }

    /// Run the full planning pipeline on SQL text: parse, resolve
    /// against the catalog, enumerate Def. 4.1 candidates, pick the
    /// cheapest assignment, minimally extend (Fig. 5), and derive the
    /// Def. 6.1 key plan. The result is what
    /// [`Coordinator::execute`](mpq_dist::Coordinator::execute) takes.
    pub fn plan(&self, sql: &str) -> Result<Optimized, String> {
        let plan = plan_sql(&self.catalog, sql).map_err(|e| format!("SQL error: {e}"))?;
        let stats = collect_stats(&self.catalog, &self.db, &SampleConfig::default());
        optimize(
            &plan,
            &self.catalog,
            &stats,
            &self.env,
            &self.cap,
            Strategy::CostDp,
        )
        .map_err(|e| format!("planning failed: {e}"))
    }
}

/// Parse a `--peers`/`--servers` map: `H=127.0.0.1:7101,I=…`, subject
/// names resolved against the fixture's subjects.
pub fn parse_peers(spec: &str, subjects: &Subjects) -> Result<HashMap<SubjectId, String>, String> {
    let mut out = HashMap::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (name, addr) = part
            .split_once('=')
            .ok_or_else(|| format!("bad peer entry `{part}` (expected NAME=host:port)"))?;
        let id = subjects
            .id(name)
            .ok_or_else(|| format!("unknown subject `{name}`"))?;
        out.insert(id, addr.to_string());
    }
    if out.is_empty() {
        return Err("empty peer map".to_string());
    }
    Ok(out)
}

/// Minimal `--key value` / `--flag` argument parser shared by the two
/// binaries; positional arguments (the SQL text) are collected in
/// order. A flag the binary does not read is an error: a typo that
/// silently keeps a default is worse than a refusal.
pub struct Flags {
    named: HashMap<String, String>,
    /// Positional (non-`--`) arguments, in order.
    pub positional: Vec<String>,
}

/// Keys that take no value.
const BOOLEAN_FLAGS: [&str; 3] = ["help", "shutdown", "no-preflight"];

impl Flags {
    /// Parse an argument stream (program name already stripped),
    /// refusing any flag not in `known`, the flags the binary reads.
    pub fn parse(args: impl Iterator<Item = String>, known: &[&str]) -> Result<Flags, String> {
        let mut named = HashMap::new();
        let mut positional = Vec::new();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !known.contains(&key) {
                    return Err(format!("unknown flag --{key}"));
                }
                if BOOLEAN_FLAGS.contains(&key) {
                    named.insert(key.to_string(), "true".to_string());
                } else {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{key} needs a value"))?;
                    named.insert(key.to_string(), value);
                }
            } else {
                positional.push(a);
            }
        }
        Ok(Flags { named, positional })
    }

    /// Named value, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.named.get(key).map(String::as_str)
    }

    /// Named value or an error naming the flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Boolean flag.
    pub fn has(&self, key: &str) -> bool {
        self.named.contains_key(key)
    }

    /// Parsed numeric value with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key}: `{v}`")),
        }
    }
}

/// Derive the per-subject RSA seed from the shared fixture seed: each
/// server's keypair differs, but deterministically so.
pub fn subject_seed(seed: u64, me: SubjectId) -> u64 {
    seed ^ (0x7365_7276 + me.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Parse the shared fault/retry knobs of both binaries: an optional
/// `--faults SPEC` schedule (see [`mpq_dist::FaultPlan::parse`]) and an
/// optional `--retries N` delivery-attempt budget.
pub fn parse_recovery(
    flags: &Flags,
) -> Result<(Option<mpq_dist::FaultPlan>, mpq_dist::RetryPolicy), String> {
    let faults = match flags.get("faults") {
        None => None,
        Some(spec) => {
            Some(mpq_dist::FaultPlan::parse(spec).map_err(|e| format!("bad --faults: {e}"))?)
        }
    };
    let mut retry = mpq_dist::RetryPolicy::default();
    retry.max_attempts = flags.num("retries", retry.max_attempts)?;
    Ok((faults, retry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_parses() {
        assert_eq!(
            Fixture::parse("running-example", 1.0).unwrap(),
            Fixture::RunningExample
        );
        assert!(matches!(
            Fixture::parse("tpch", 0.01).unwrap(),
            Fixture::Tpch { .. }
        ));
        assert!(Fixture::parse("nope", 1.0).is_err());
    }

    #[test]
    fn worlds_are_deterministic_and_partition_cleanly() {
        let w1 = Fixture::RunningExample.build(7);
        let w2 = Fixture::RunningExample.build(7);
        let h = w1.env.subjects.id("H").unwrap();
        let i = w1.env.subjects.id("I").unwrap();
        let u = w1.env.subjects.id("U").unwrap();
        let hosp = w1.catalog.relation("Hosp").unwrap().rel;
        let ins = w1.catalog.relation("Ins").unwrap().rel;
        // Same seed, same bytes.
        assert_eq!(
            w1.db.table(hosp).unwrap().to_rows(),
            w2.db.table(hosp).unwrap().to_rows()
        );
        // H holds Hosp and only Hosp; U holds nothing.
        let ph = w1.partition(h);
        assert!(ph.table(hosp).is_some());
        assert!(ph.table(ins).is_none());
        assert!(w1.partition(i).table(ins).is_some());
        assert!(w1.partition(u).table(hosp).is_none());
    }

    #[test]
    fn sql_plans_through_the_pipeline() {
        let w = Fixture::RunningExample.build(7);
        let opt = w
            .plan(
                "select T, avg(P) from Hosp join Ins on S=C \
                 where D='stroke' group by T having avg(P)>100",
            )
            .unwrap();
        assert_eq!(
            opt.extended.assignment.len(),
            opt.extended.plan.postorder().len()
        );
        assert!(opt.cost.total() > 0.0);
    }

    #[test]
    fn peers_parse_and_reject_unknowns() {
        let w = Fixture::RunningExample.build(7);
        let peers = parse_peers("H=127.0.0.1:7101,I=127.0.0.1:7102", &w.env.subjects).unwrap();
        assert_eq!(peers.len(), 2);
        assert!(parse_peers("Q=127.0.0.1:1", &w.env.subjects).is_err());
        assert!(parse_peers("garbage", &w.env.subjects).is_err());
    }

    /// The flags the tests below read.
    const KNOWN: &[&str] = &["subject", "shutdown", "seed", "listen", "faults", "retries"];

    fn args<'a>(a: &'a [&'a str]) -> impl Iterator<Item = String> + 'a {
        a.iter().map(|s| s.to_string())
    }

    #[test]
    fn flags_parse_named_boolean_and_positional() {
        let f = Flags::parse(
            ["--subject", "H", "--shutdown", "select 1", "--seed", "9"]
                .iter()
                .map(|s| s.to_string()),
            KNOWN,
        )
        .unwrap();
        assert_eq!(f.require("subject").unwrap(), "H");
        assert!(f.has("shutdown"));
        assert_eq!(f.num::<u64>("seed", 0).unwrap(), 9);
        assert_eq!(f.positional, vec!["select 1".to_string()]);
        assert!(f.require("listen").is_err());
        assert!(f.num::<u64>("seed", 0).is_ok());
        assert!(Flags::parse(["--listen"].iter().map(|s| s.to_string()), KNOWN).is_err());
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        let server = &["seed", "listen", "retries"];
        let err = |a| Flags::parse(args(a), server).err();
        // A misspelt flag, and a flag of the other binary, are refused…
        assert_eq!(
            err(&["--retires", "8"]).as_deref(),
            Some("unknown flag --retires")
        );
        assert_eq!(
            err(&["--shutdown"]).as_deref(),
            Some("unknown flag --shutdown")
        );
        assert_eq!(
            err(&["--timeout", "5000"]).as_deref(),
            Some("unknown flag --timeout")
        );
        // …and the flags the binary reads still parse.
        let f = Flags::parse(args(&["--retries", "8", "--seed", "1"]), server).unwrap();
        assert_eq!(f.num::<u32>("retries", 4).unwrap(), 8);
    }

    #[test]
    fn recovery_flags_parse_and_reject_garbage() {
        let f = Flags::parse(
            ["--faults", "seed=7,drop=100", "--retries", "6"]
                .iter()
                .map(|s| s.to_string()),
            KNOWN,
        )
        .unwrap();
        let (plan, retry) = parse_recovery(&f).unwrap();
        assert_eq!(plan.unwrap().seed, 7);
        assert_eq!(retry.max_attempts, 6);

        let none = Flags::parse(std::iter::empty(), KNOWN).unwrap();
        let (plan, retry) = parse_recovery(&none).unwrap();
        assert!(plan.is_none());
        assert_eq!(retry, mpq_dist::RetryPolicy::default());

        let bad = Flags::parse(
            ["--faults", "drop=nope"].iter().map(|s| s.to_string()),
            KNOWN,
        )
        .unwrap();
        assert!(parse_recovery(&bad).is_err());
    }

    #[test]
    fn subject_seeds_differ_per_subject() {
        let w = Fixture::RunningExample.build(7);
        let h = w.env.subjects.id("H").unwrap();
        let i = w.env.subjects.id("I").unwrap();
        assert_ne!(subject_seed(42, h), subject_seed(42, i));
        assert_eq!(subject_seed(42, h), subject_seed(42, h));
    }
}
