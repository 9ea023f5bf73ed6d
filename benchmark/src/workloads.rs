//! The four workloads: their data, queries, planning recipe and
//! plaintext references. Everything is derived from `--seed`; the
//! crates under test receive only the generated inputs.

use crate::trace::Tracer;
use mpq_algebra::stats::StatsCatalog;
use mpq_algebra::{Catalog, NodeId, QueryPlan, SubjectId};
use mpq_core::authz::{Policy, SubjectView};
use mpq_core::candidates::candidates;
use mpq_core::capability::CapabilityPolicy;
use mpq_core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq_core::fixtures::RunningExample;
use mpq_core::keys::{plan_keys, KeyPlan};
use mpq_core::subjects::{SubjectKind, Subjects};
use mpq_core::verify::verify_extended;
use mpq_crypto::keyring::KeyRing;
use mpq_exec::{Database, ExecCtx, SchemePlan, Table};
use mpq_planner::stats::{collect_stats, SampleConfig};
use mpq_planner::{build_scenario, optimize, Scenario, ScenarioEnv, Strategy};
use mpq_tpch::{generate, query_plan};
use std::collections::HashMap;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "authority_scan",
    "provider_enc",
    "paillier_agg",
    "fig7_churn",
];

const PA1: &str = "SELECT l_suppkey, SUM(l_quantity) FROM lineitem \
                   WHERE l_shipdate >= DATE '1995-01-01' GROUP BY l_suppkey";
const PA2: &str = "SELECT l_suppkey, SUM(l_quantity), AVG(l_extendedprice) FROM lineitem \
                   WHERE l_shipdate >= DATE '1995-01-01' GROUP BY l_suppkey";

/// Where a TPC-H workload's `QueryPlan` comes from.
enum Source {
    /// `mpq_tpch::query_plan(n)`.
    Tpch(usize),
    /// `plan_sql` of `(label, SQL text)`.
    Sql(&'static str, &'static str),
}

/// How a workload turns a `QueryPlan` into `ExtendedPlan` + `KeyPlan`
/// inside the timed region.
#[derive(Clone, Debug)]
pub enum Planning {
    /// `mpq_planner::optimize(.., tpch_evaluation(), CostDp)`.
    CostDp,
    /// Every non-leaf pinned to the first provider in Λ(n) (the user
    /// where none qualifies) — the `enc/providers` plan of
    /// `CALIBRATION.json`, pin logic re-implemented here.
    FirstProvider(CapabilityPolicy),
    /// The running example's four operations pinned as listed.
    Named(Vec<(NodeId, SubjectId)>),
}

/// One query of a workload.
pub struct Query {
    pub name: String,
    pub plan: QueryPlan,
    pub planning: Planning,
    /// Centralized plaintext result every execution is checked against.
    pub reference: Table,
    /// Wall time of the reference run (one sample, taken at set-up).
    pub plain_ms: f64,
}

/// What planning hands to execution.
pub struct Planned {
    pub ext: ExtendedPlan,
    pub keys: KeyPlan,
    pub assignment: Assignment,
    /// `Optimized.cost.total()` (USD, §7) where the plan came from
    /// `optimize`; 0 for pinned plans, which are not costed.
    pub model_cost: f64,
}

/// Set-up timings and sizes, reported as per-layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupParts {
    pub generate_ms: f64,
    pub stats_ms: f64,
    pub build_us: f64,
    pub rows: usize,
}

/// A prepared workload: one environment plus its query list.
pub struct Workload {
    pub name: &'static str,
    pub catalog: Catalog,
    pub subjects: Subjects,
    pub policy: Policy,
    pub user: SubjectId,
    pub db: Database,
    /// Per-subject overall views (`Policy::subject_view`), by index.
    pub views: Vec<SubjectView>,
    /// TPC-H workloads only: statistics and the §7 scenario.
    pub tpch: Option<(StatsCatalog, ScenarioEnv)>,
    pub queries: Vec<Query>,
    /// `fig7_churn`: a pass resets provisioning, then runs the list
    /// cold, then again warm.
    pub churn: bool,
    pub parts: SetupParts,
}

/// Centralized plaintext execution of an original plan — the
/// SMCQL-style baseline and the correctness reference.
pub fn plaintext(catalog: &Catalog, db: &Database, plan: &QueryPlan) -> Table {
    let (ring, schemes, koa) = (KeyRing::new(), SchemePlan::default(), HashMap::new());
    let ctx = ExecCtx::new(catalog, db, &ring, &schemes, &koa);
    mpq_exec::execute(plan, &ctx).expect("plaintext reference run")
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

impl Workload {
    /// Build workload `name` from `seed`. `smoke` divides every scale
    /// factor by ten.
    pub fn build(name: &str, seed: u64, smoke: bool) -> Result<Workload, String> {
        let shrink = if smoke { 0.1 } else { 1.0 };
        let tpch_queries = |qs: &[usize]| qs.iter().map(|&q| Source::Tpch(q)).collect();
        match name {
            "authority_scan" => Ok(Workload::tpch(
                "authority_scan",
                0.02 * shrink,
                seed,
                tpch_queries(&[1, 3, 6, 10, 12, 14]),
                Planning::CostDp,
            )),
            "provider_enc" => Ok(Workload::tpch(
                "provider_enc",
                0.005 * shrink,
                seed,
                tpch_queries(&[3, 6, 14]),
                Planning::FirstProvider(CapabilityPolicy::tpch_evaluation()),
            )),
            "paillier_agg" => Ok(Workload::tpch(
                "paillier_agg",
                0.0005 * shrink,
                seed,
                vec![Source::Sql("pa1", PA1), Source::Sql("pa2", PA2)],
                Planning::FirstProvider(CapabilityPolicy::default()),
            )),
            "fig7_churn" => Ok(Workload::fig7()),
            other => Err(format!(
                "unknown workload {other:?} (expected one of {NAMES:?})"
            )),
        }
    }

    fn tpch(
        name: &'static str,
        sf: f64,
        seed: u64,
        sources: Vec<Source>,
        planning: Planning,
    ) -> Workload {
        let t0 = Instant::now();
        let (catalog, db) = generate(sf, seed);
        let generate_ms = ms_since(t0);
        let t0 = Instant::now();
        let stats = collect_stats(&catalog, &db, &SampleConfig::default());
        let stats_ms = ms_since(t0);
        let env = build_scenario(&catalog, Scenario::UAPenc);
        let t0 = Instant::now();
        let plans: Vec<(String, QueryPlan)> = sources
            .iter()
            .map(|source| match *source {
                Source::Tpch(q) => (format!("q{q}"), query_plan(&catalog, q)),
                Source::Sql(label, sql) => (
                    label.to_string(),
                    mpq_algebra::builder::plan_sql(&catalog, sql)
                        .unwrap_or_else(|e| panic!("{label}: {e}")),
                ),
            })
            .collect();
        let build_us = ms_since(t0) * 1e3;
        let rows = catalog
            .relations()
            .iter()
            .filter_map(|r| db.table(r.rel))
            .map(Table::len)
            .sum();
        let queries = plans
            .into_iter()
            .map(|(name, plan)| {
                let t0 = Instant::now();
                let reference = plaintext(&catalog, &db, &plan);
                Query {
                    plain_ms: ms_since(t0),
                    reference,
                    name,
                    plan,
                    planning: planning.clone(),
                }
            })
            .collect();
        Workload {
            name,
            views: views(&env.policy, &catalog, &env.subjects),
            subjects: env.subjects.clone(),
            policy: env.policy.clone(),
            user: env.user,
            tpch: Some((stats, env)),
            catalog,
            db,
            queries,
            churn: false,
            parts: SetupParts {
                generate_ms,
                stats_ms,
                build_us,
                rows,
            },
        }
    }

    fn fig7() -> Workload {
        let t0 = Instant::now();
        let ex = RunningExample::new();
        let build_us = ms_since(t0) * 1e3;
        let mut db = Database::new();
        db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
        db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
        let t0 = Instant::now();
        let reference = plaintext(&ex.catalog, &db, &ex.plan);
        let plain_ms = ms_since(t0);
        let queries = [
            ("fig7a", ["H", "X", "X", "Y"]),
            ("fig7b", ["H", "Z", "Z", "Y"]),
            ("fig7_user", ["U", "U", "U", "U"]),
        ]
        .into_iter()
        .map(|(name, assign)| Query {
            name: name.into(),
            plan: ex.plan.clone(),
            planning: Planning::Named(
                ["select_d", "join", "group", "having"]
                    .iter()
                    .zip(assign)
                    .map(|(node, s)| (ex.node(node), ex.subject(s)))
                    .collect(),
            ),
            reference: reference.clone(),
            plain_ms,
        })
        .collect();
        Workload {
            name: "fig7_churn",
            views: views(&ex.policy, &ex.catalog, &ex.subjects),
            user: ex.subject("U"),
            catalog: ex.catalog,
            subjects: ex.subjects,
            policy: ex.policy,
            tpch: None,
            db,
            queries,
            churn: true,
            parts: SetupParts {
                build_us,
                rows: 10,
                ..SetupParts::default()
            },
        }
    }

    /// The timed planning step of query `q`: `QueryPlan` →
    /// `ExtendedPlan` + `KeyPlan`, one span per call into a layer.
    pub fn plan(&self, q: &Query, tr: &mut Tracer) -> Planned {
        match &q.planning {
            Planning::CostDp => {
                let (stats, env) = self.tpch.as_ref().expect("CostDp needs a TPC-H scenario");
                let opt = tr
                    .span("planner.optimize", |_| {
                        optimize(
                            &q.plan,
                            &self.catalog,
                            stats,
                            env,
                            &CapabilityPolicy::tpch_evaluation(),
                            Strategy::CostDp,
                        )
                    })
                    .unwrap_or_else(|e| panic!("{}: optimize: {e}", q.name));
                Planned {
                    model_cost: opt.cost.total(),
                    ext: opt.extended,
                    keys: opt.keys,
                    assignment: opt.assignment,
                }
            }
            Planning::FirstProvider(cap) => self.plan_pinned(q, cap, None, tr),
            Planning::Named(pins) => {
                self.plan_pinned(q, &CapabilityPolicy::default(), Some(pins), tr)
            }
        }
    }

    /// `candidates` → pin → `minimally_extend` → `plan_keys` →
    /// `verify_extended`. `pins` fixes the assignment; without it every
    /// non-leaf goes to the first provider in Λ(n).
    fn plan_pinned(
        &self,
        q: &Query,
        cap: &CapabilityPolicy,
        pins: Option<&[(NodeId, SubjectId)]>,
        tr: &mut Tracer,
    ) -> Planned {
        let cands = tr.span("core.candidates", |_| {
            candidates(
                &q.plan,
                &self.catalog,
                &self.policy,
                &self.subjects,
                cap,
                true,
            )
        });
        let mut assignment = Assignment::new();
        match pins {
            Some(pins) => {
                for &(node, subject) in pins {
                    assignment.set(node, subject);
                }
            }
            None => {
                let providers = self.subjects.of_kind(SubjectKind::Provider);
                for id in q.plan.postorder() {
                    if !q.plan.node(id).children.is_empty() {
                        let pick = providers.iter().find(|&&s| cands.is_candidate(id, s));
                        assignment.set(id, pick.copied().unwrap_or(self.user));
                    }
                }
            }
        }
        self.extend(q, &cands, assignment, tr)
    }

    /// `minimally_extend` → `plan_keys` → `verify_extended` for a given
    /// assignment (also used by the traced run to time the core layer
    /// on plans that came from `optimize`).
    pub fn extend(
        &self,
        q: &Query,
        cands: &mpq_core::candidates::Candidates,
        assignment: Assignment,
        tr: &mut Tracer,
    ) -> Planned {
        let ext = tr
            .span("core.extend", |_| {
                minimally_extend(
                    &q.plan,
                    &self.catalog,
                    &self.policy,
                    &self.subjects,
                    cands,
                    &assignment,
                    Some(self.user),
                )
            })
            .unwrap_or_else(|e| panic!("{}: minimally_extend: {e}", q.name));
        let keys = tr.span("core.plan_keys", |_| plan_keys(&ext));
        let report = tr.span("core.verify", |_| {
            verify_extended(
                &ext,
                &keys,
                &self.catalog,
                &self.subjects,
                &self.views,
                Some(self.user),
            )
        });
        assert!(
            report.is_clean(),
            "{}: verifier rejected the plan:\n{report}",
            q.name
        );
        Planned {
            ext,
            keys,
            assignment,
            model_cost: 0.0,
        }
    }
}

fn views(policy: &Policy, catalog: &Catalog, subjects: &Subjects) -> Vec<SubjectView> {
    subjects
        .iter()
        .map(|s| policy.subject_view(catalog, s))
        .collect()
}
