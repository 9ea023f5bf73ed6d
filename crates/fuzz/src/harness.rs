//! Four-way differential harness.
//!
//! Every generated world runs through four independent
//! implementations of the same semantics:
//!
//! 1. the **static verifier** (`mpq_core::verify`) — pure analysis,
//!    produces an accept/reject verdict with MPQ001–MPQ009 codes and
//!    the coverage its passes decided on the way;
//! 2. the **runtime over TCP** (`Session::execute` on a session opened
//!    with `TransportKind::Tcp`) — signed envelopes, dynamic defenses,
//!    and every table through the codec, loopback sockets and the hub
//!    pumps into the consumer's mailbox;
//! 3. the **runtime in-proc** (`Session::execute` with the default
//!    transport) — the same walk, tables through mailbox channels;
//! 4. the **row oracle** (`mpq_exec::rowref::execute_ref` on the
//!    *original* plan, no crypto) — the plaintext reference, ground
//!    truth for result rows: nested loops and a row-at-a-time expression
//!    walk, none of the operators or the column evaluator of the engine
//!    ways 2 and 3 run (worlds hold 3–8 rows per relation, so the loops
//!    cost nothing).
//!
//! Agreement means: a statically accepted plan executes successfully
//! over both transports with identical rows, per-edge bytes, and request
//! counts, and its rows match the plaintext reference as a multiset; a
//! statically rejected plan fails over both transports (run without
//! pre-flight, so the *dynamic* defenses produce the verdict) with an
//! error whose diagnostic class appears in the static report. Anything
//! else is a [`Outcome::Divergence`] — a fuzzer finding.

use crate::gen::{Mutation, World};
use mpq_algebra::{AttrId, NodeId, Operator};
use mpq_core::extend::{minimally_extend, ExtendError};
use mpq_core::keys::{plan_keys, KeyPlan};
use mpq_core::verify::{verify_with_policy, Code, VerifyCoverage};
use mpq_core::{profile_plan, ExtendedPlan};
use mpq_crypto::KeyRing;
use mpq_dist::{Report, Session, SessionConfig, SimError, TransportKind};
use mpq_exec::rowref::execute_ref;
use mpq_exec::{ExecCtx, ExecError, SchemePlan, Table};
use std::collections::HashMap;

/// What a scenario did, after all four ways agreed (or did not).
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Static accept; both transports and the plaintext reference agree.
    Accepted {
        /// Result cardinality (for corpus statistics).
        rows: usize,
    },
    /// Static reject; both transports fail with a matching class.
    Rejected {
        /// The distinct static codes.
        codes: Vec<Code>,
    },
    /// Disagreement between any two of the four ways. The payload is a
    /// human-readable description precise enough to file.
    Divergence(String),
}

/// Outcome plus the coverage this scenario contributed.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The scenario's seed (replay handle).
    pub seed: u64,
    /// Agreement verdict.
    pub outcome: Outcome,
    /// Def. 4.1 / Def. 6.1 / scheme / mixed-form / code coverage.
    pub coverage: VerifyCoverage,
}

/// Codes whose violation is *statically* decidable but has no runtime
/// error twin (a type-mismatched comparison executes fine and returns
/// no rows): a reject carrying only these codes may still execute.
const DYNAMIC_TWINLESS: [Code; 1] = [Code::TypeMismatch];

/// Codes whose runtime twin reads the data: the engine refuses a
/// mixed-form join when both sides carry a key cell, and a side with
/// none compares nothing. A reject carrying only these codes (and the
/// twinless ones) may still execute — but then its rows must equal the
/// plaintext reference.
const DATA_TWINNED: [Code; 1] = [Code::MixedForm];

/// The MPQ diagnostic classes a dynamic failure corresponds to.
fn error_codes(e: &SimError) -> Vec<Code> {
    match e {
        SimError::Unauthorized { .. } => {
            vec![Code::UnauthorizedAssignee, Code::PlaintextLeak]
        }
        SimError::LeakedPlaintext { .. } | SimError::InvisibleAttribute { .. } => {
            vec![Code::PlaintextLeak]
        }
        SimError::Unassigned(_) | SimError::NoAuthority(_) | SimError::NotTheAuthority { .. } => {
            vec![Code::BadAssignment]
        }
        SimError::Scheme(_) => vec![Code::SchemeConflict],
        SimError::Rewrite(_) => vec![Code::KeyUnavailable],
        SimError::Exec(ExecError::MissingKey { .. })
        | SimError::Exec(ExecError::NoKeyForAttr(_)) => {
            vec![Code::KeyUnavailable]
        }
        SimError::Exec(ExecError::MixedForm { .. }) => vec![Code::MixedForm],
        SimError::Exec(_) => vec![Code::Malformed],
        SimError::Verify(r) => r.codes(),
        SimError::Envelope { .. } | SimError::Transport(_) => vec![],
    }
}

/// Apply the world's mutation to the extended plan / key plan.
fn apply_mutation(w: &World, ext: &mut ExtendedPlan, keys: &mut KeyPlan) {
    let Some(m) = w.mutation else { return };
    let order = ext.plan.postorder();
    let non_leaves: Vec<_> = order
        .iter()
        .copied()
        .filter(|&id| !ext.plan.node(id).children.is_empty())
        .collect();
    let leaves: Vec<_> = order
        .iter()
        .copied()
        .filter(|&id| ext.plan.node(id).children.is_empty())
        .collect();
    let all_subjects: Vec<_> = w.subjects.iter().collect();
    match m {
        // A plan can be a bare leaf (no operator drawn): node-targeted
        // mutations are then no-ops, like StripHolders on a keyless
        // plan.
        Mutation::Reassign {
            node_pick,
            subject_pick,
        } => {
            if !non_leaves.is_empty() {
                let node = non_leaves[node_pick % non_leaves.len()];
                let s = all_subjects[subject_pick % all_subjects.len()];
                ext.assignment.insert(node, s);
            }
        }
        Mutation::Unassign { node_pick } => {
            if !non_leaves.is_empty() {
                let node = non_leaves[node_pick % non_leaves.len()];
                ext.assignment.remove(&node);
            }
        }
        Mutation::MisassignLeaf {
            leaf_pick,
            subject_pick,
        } => {
            let leaf = leaves[leaf_pick % leaves.len()];
            let current = ext.assignment.get(&leaf).copied();
            // Pick the first subject (cyclically) that is not the
            // authority currently holding the leaf.
            for i in 0..all_subjects.len() {
                let s = all_subjects[(subject_pick + i) % all_subjects.len()];
                if Some(s) != current {
                    ext.assignment.insert(leaf, s);
                    break;
                }
            }
        }
        Mutation::StripHolders { key_pick } => {
            if !keys.keys.is_empty() {
                let i = key_pick % keys.keys.len();
                keys.keys[i].holders.clear();
            }
        }
        Mutation::DropJoinSideEncrypt { enc_pick } => {
            let spliced = join_side_encrypts(ext);
            if !spliced.is_empty() {
                let (j, side, e) = spliced[enc_pick % spliced.len()];
                ext.plan.node_mut(j).children[side] = ext.plan.node(e).children[0];
                ext.assignment.remove(&e);
                ext.profiles = profile_plan(&ext.plan);
            }
        }
    }
}

/// The `Encrypt`s extension splices for mixed join pairs, as `(join,
/// operand index, encrypt)`: directly below a join, run by the join's
/// assignee, over join keys whose partners arrive encrypted from the
/// other operand.
pub fn join_side_encrypts(ext: &ExtendedPlan) -> Vec<(NodeId, usize, NodeId)> {
    let mut out = Vec::new();
    for j in ext.plan.postorder() {
        let Operator::Join { on, .. } = &ext.plan.node(j).op else {
            continue;
        };
        let kids = &ext.plan.node(j).children;
        for (side, &e) in kids.iter().enumerate() {
            let Operator::Encrypt { attrs } = &ext.plan.node(e).op else {
                continue;
            };
            let other = &ext.profiles[kids[1 - side].index()];
            let partnered = |a: &AttrId| {
                on.iter().any(|&(l, _, r)| {
                    let (mine, theirs) = if side == 0 { (l, r) } else { (r, l) };
                    mine == *a && other.ve.contains(theirs)
                })
            };
            if ext.assignment.get(&e) == ext.assignment.get(&j) && attrs.iter().all(partnered) {
                out.push((j, side, e));
            }
        }
    }
    out
}

/// Compare two result tables as multisets of rows (SQL equality per
/// cell; ciphertext never reaches here — the user decrypts at the
/// root).
fn rows_match(a: &Table, b: &Table) -> bool {
    if a.attrs() != b.attrs() || a.len() != b.len() {
        return false;
    }
    let canon = |t: &Table| {
        let mut rows: Vec<String> = t
            .to_rows()
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| match v {
                        // Int/Num coercion mirror of Value::sql_eq.
                        mpq_algebra::Value::Int(i) => format!("n:{}", *i as f64),
                        mpq_algebra::Value::Num(n) => format!("n:{n}"),
                        other => format!("{other:?}"),
                    })
                    .collect::<Vec<_>>()
                    .join("\u{1f}")
            })
            .collect();
        rows.sort_unstable();
        rows
    };
    canon(a) == canon(b)
}

/// Per-edge byte accounting must agree between the transports.
fn reports_match(tcp: &Report, in_proc: &Report) -> Result<(), String> {
    if !rows_match(&tcp.result, &in_proc.result) {
        return Err("TCP vs in-proc result rows differ".into());
    }
    if tcp.transfers != in_proc.transfers {
        return Err("per-edge transfer accounting differs".into());
    }
    if tcp.requests != in_proc.requests {
        return Err("request counts differ".into());
    }
    Ok(())
}

/// The world's plan as the runtimes receive it: minimally extended for
/// its Λ draw, its Def. 6.1 keys planned, then its mutation applied.
pub fn extend_world(w: &World) -> Result<(ExtendedPlan, KeyPlan), ExtendError> {
    let mut ext = minimally_extend(
        &w.plan,
        &w.catalog,
        &w.policy,
        &w.subjects,
        &w.cands,
        &w.assignment,
        Some(w.user),
    )?;
    let mut keys = plan_keys(&ext);
    apply_mutation(w, &mut ext, &mut keys);
    Ok((ext, keys))
}

/// Run scenario `seed` end to end; the seed is also the session seed
/// at execution time. Never panics on a divergence — the caller decides
/// what to do with [`Outcome::Divergence`].
pub fn run_scenario(seed: u64) -> ScenarioResult {
    let w = World::generate(seed);

    let result = |outcome: Outcome, cov: VerifyCoverage| ScenarioResult {
        seed,
        outcome,
        coverage: cov,
    };

    // ---- minimal extension (Theorem 5.2: must succeed) --------------
    let (ext, keys) = match extend_world(&w) {
        Ok(planned) => planned,
        Err(e) => {
            return result(
                Outcome::Divergence(format!(
                    "assignment drawn from Λ failed to extend (Theorem 5.2): {e:?}"
                )),
                VerifyCoverage::default(),
            )
        }
    };

    // ---- way 1: static verifier -------------------------------------
    let report = verify_with_policy(
        &ext,
        &keys,
        &w.catalog,
        &w.subjects,
        &w.policy,
        Some(w.user),
    );
    let cov = report.coverage.clone();

    let run = |preflight: bool, transport: TransportKind| -> Result<Report, SimError> {
        let mut config = SessionConfig::new(seed).transport(transport);
        if !preflight {
            config = config.without_preflight();
        }
        let mut session = Session::open_with(&w.catalog, &w.subjects, &w.policy, &w.db, config);
        session.execute(&ext, &keys, w.user)
    };

    // Way 4, the row oracle over the original plan, no crypto.
    let reference = || {
        let keyring = KeyRing::new();
        let schemes = SchemePlan::default();
        let key_of_attr: HashMap<AttrId, u32> = HashMap::new();
        let ctx = ExecCtx::new(&w.catalog, &w.db, &keyring, &schemes, &key_of_attr);
        execute_ref(&w.plan, &ctx)
    };

    if report.is_clean() {
        // ---- ways 2+3: both transports must accept and agree --------
        let tcp = match run(true, TransportKind::Tcp) {
            Ok(r) => r,
            Err(e) => {
                return result(
                    Outcome::Divergence(format!("static accept but the TCP runtime failed: {e}")),
                    cov,
                )
            }
        };
        let in_proc = match run(true, TransportKind::InProc) {
            Ok(r) => r,
            Err(e) => {
                return result(
                    Outcome::Divergence(format!(
                        "static accept but the in-proc runtime failed: {e}"
                    )),
                    cov,
                )
            }
        };
        if let Err(why) = reports_match(&tcp, &in_proc) {
            return result(Outcome::Divergence(why), cov);
        }

        // ---- way 4: the row oracle over the original plan ------------
        let reference = match reference() {
            Ok(t) => t,
            Err(e) => {
                return result(
                    Outcome::Divergence(format!("plaintext reference failed: {e}")),
                    cov,
                )
            }
        };
        if !rows_match(&tcp.result, &reference) {
            return result(
                Outcome::Divergence("extended-plan result differs from plaintext reference".into()),
                cov,
            );
        }
        result(
            Outcome::Accepted {
                rows: reference.len(),
            },
            cov,
        )
    } else {
        // ---- ways 2+3: dynamic defenses must independently reject ---
        let codes = report.codes();
        let twinless_only = codes.iter().all(|c| DYNAMIC_TWINLESS.contains(c));
        let data_twinned = codes
            .iter()
            .all(|c| DYNAMIC_TWINLESS.contains(c) || DATA_TWINNED.contains(c));
        for (transport, which) in [
            (TransportKind::Tcp, "TCP"),
            (TransportKind::InProc, "in-proc"),
        ] {
            match run(false, transport) {
                Ok(_) if twinless_only => {}
                Ok(run) if data_twinned => {
                    if !reference().is_ok_and(|t| rows_match(&run.result, &t)) {
                        return result(
                            Outcome::Divergence(format!(
                                "static reject {codes:?}, and the {which} runtime's rows \
                                 differ from the plaintext reference"
                            )),
                            cov,
                        );
                    }
                }
                Ok(_) => {
                    return result(
                        Outcome::Divergence(format!(
                            "static reject {codes:?} but {which} runtime succeeded \
                             without pre-flight"
                        )),
                        cov,
                    )
                }
                Err(e) => {
                    let dyn_codes = error_codes(&e);
                    if !dyn_codes.is_empty() && !dyn_codes.iter().any(|c| codes.contains(c)) {
                        return result(
                            Outcome::Divergence(format!(
                                "{which} runtime failed with {e} (classes {dyn_codes:?}) \
                                 but the static report only has {codes:?}"
                            )),
                            cov,
                        );
                    }
                }
            }
        }
        result(Outcome::Rejected { codes }, cov)
    }
}
