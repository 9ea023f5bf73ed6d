//! Cross-crate integration: the full §6 pipeline over TPC-H.
//!
//! For every query × scenario: the optimizer's assignment is drawn
//! from Λ, the extended plan passes the Def. 4.1/4.2 checker, scenario
//! costs are monotone (UA ≥ UAPenc-portfolio guarantees), and a subset
//! of queries *executes* on generated data — the optimized extended
//! plan (with real encryption and literal rewriting) produces the same
//! rows as a direct plaintext run. All 22 plaintext plans are also
//! swept against the row-at-a-time oracle.

use mpq::algebra::SubjectId;
use mpq::core::capability::CapabilityPolicy;
use mpq::core::profile::profile_plan;
use mpq::core::verify_with_policy;
use mpq::dist::Session;
use mpq::exec::{Database, SchemePlan, Table};
use mpq::planner::stats::{collect_stats, SampleConfig};
use mpq::planner::{build_scenario, optimize, Scenario, Strategy};
use mpq::tpch::{generate, query_plan, tpch_catalog, QUERY_COUNT};
use mpq_bench::sample_stats;
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_fuzz::join_side_encrypts;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// The CostDp plans whose extension encrypts a join side below its
/// join (statistics measured at SF 0.02): a pair one side of which
/// would otherwise arrive in plaintext while its partner arrives
/// encrypted.
const SPLICED: [(usize, Scenario, Strategy, bool); 2] = [
    (17, Scenario::UAPenc, Strategy::CostDp, true),
    (17, Scenario::UAPmix, Strategy::CostDp, true),
];

/// Every strategy under both capability policies: the optimizer's
/// extended plan is authorized for every assignee, verifies clean, and
/// joins every condition's two sides in one form — a CostDp plan by an
/// `Encrypt` below the join, run by its assignee, exactly when it is in
/// [`SPLICED`].
#[test]
fn all_queries_all_scenarios_verify() {
    let cat = tpch_catalog();
    let stats = sample_stats();
    let strategies = [
        Strategy::CostDp,
        Strategy::MaximizeVisibility,
        Strategy::MinimizeVisibility,
    ];
    for evaluation in [false, true] {
        let capabilities = if evaluation {
            CapabilityPolicy::tpch_evaluation()
        } else {
            CapabilityPolicy::default()
        };
        for scenario in Scenario::ALL {
            let env = build_scenario(&cat, scenario);
            for strategy in strategies {
                for q in 1..=QUERY_COUNT {
                    let tag = format!("Q{q} {scenario:?} {strategy:?} evaluation={evaluation}");
                    let plan = query_plan(&cat, q);
                    let opt = optimize(&plan, &cat, stats, &env, &capabilities, strategy)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    let ext = &opt.extended;
                    // Re-verify the extended plan against Def. 4.1 for
                    // every assignee (minimally_extend already does
                    // this; assert the invariant independently).
                    let profiles = profile_plan(&ext.plan);
                    for id in ext.plan.postorder() {
                        let node = ext.plan.node(id);
                        if node.children.is_empty() {
                            continue;
                        }
                        let s = ext.assignment[&id];
                        let view = env.policy.subject_view(&cat, s);
                        for &c in &node.children {
                            assert!(
                                view.authorized_for(&profiles[c.index()]),
                                "{tag}: {} unauthorized for operand of {id}",
                                env.subjects.name(s)
                            );
                        }
                        assert!(
                            view.authorized_for(&profiles[id.index()]),
                            "{tag}: {} unauthorized for result of {id}",
                            env.subjects.name(s)
                        );
                    }
                    let report = verify_with_policy(
                        ext,
                        &opt.keys,
                        &cat,
                        &env.subjects,
                        &env.policy,
                        Some(env.user),
                    );
                    assert!(report.is_clean(), "{tag}:\n{report}");
                    assert!(!report.coverage.mixed_form[1], "{tag}: a mixed-form join");
                    // Pinned both ways for CostDp, so a plan that starts or
                    // stops splicing fails here. MinimizeVisibility encrypts
                    // below every join by design, and its splicing plans
                    // stay outside the pin.
                    if strategy == Strategy::CostDp {
                        assert_eq!(
                            SPLICED.contains(&(q, scenario, strategy, evaluation)),
                            !join_side_encrypts(ext).is_empty(),
                            "{tag}: SPLICED"
                        );
                    }
                }
            }
        }
    }
}

/// Q17 CostDp UAPenc on generated data, planned on its measured
/// statistics, through the one session driver: the join side extension
/// encrypts runs, the plaintext rows come back, and every edge carries
/// its pinned bytes.
#[test]
fn q17_with_a_spliced_join_side_encrypt_runs_sequentially() {
    let world = World::new();
    let (cat, db) = (&world.cat, &world.db);
    let env = &world.env;
    let plan = query_plan(cat, 17);
    let capabilities = CapabilityPolicy::tpch_evaluation();
    let opt = optimize(
        &plan,
        cat,
        &world.stats,
        env,
        &capabilities,
        Strategy::CostDp,
    )
    .unwrap();
    assert_eq!(join_side_encrypts(&opt.extended).len(), 1);
    let mut session = Session::open(cat, &env.subjects, &env.policy, db, 7);
    let report = session.execute(&opt.extended, &opt.keys, env.user).unwrap();
    assert_same_rows(17, &run_plain(cat, db, &plan), &report.result);
    let edges = |bytes: &HashMap<(SubjectId, SubjectId), usize>, skip: &HashMap<_, _>| {
        let mut out: Vec<(usize, usize, usize)> = (bytes.iter())
            .filter(|(edge, _)| !skip.contains_key(*edge))
            .map(|((from, to), &n)| (from.index(), to.index(), n))
            .collect();
        out.sort_unstable();
        out
    };
    let none = HashMap::new();
    assert_eq!(
        edges(&report.transfers, &report.request_bytes),
        [(0, 2, 6_400), (0, 3, 605_600), (1, 3, 16), (3, 2, 1_500)]
    );
    assert_eq!(
        edges(&report.request_bytes, &none),
        [(2, 0, 437), (2, 1, 295), (2, 3, 238)]
    );
}

#[test]
fn scenario_costs_are_monotone() {
    let cat = tpch_catalog();
    let stats = sample_stats();
    let mut totals = [0.0f64; 3];
    for (i, scenario) in Scenario::ALL.iter().enumerate() {
        let env = build_scenario(&cat, *scenario);
        for q in 1..=QUERY_COUNT {
            let plan = query_plan(&cat, q);
            let opt = optimize(
                &plan,
                &cat,
                stats,
                &env,
                &CapabilityPolicy::tpch_evaluation(),
                Strategy::CostDp,
            )
            .unwrap();
            totals[i] += opt.cost.total();
        }
    }
    assert!(
        totals[1] <= totals[0] * 1.0001,
        "UAPenc {} must not exceed UA {}",
        totals[1],
        totals[0]
    );
    assert!(
        totals[2] <= totals[0] * 1.0001,
        "UAPmix {} must not exceed UA {}",
        totals[2],
        totals[0]
    );
    // Involving providers must yield real savings (the paper reports
    // 54.2% / 71.3%; we assert the direction and a meaningful margin).
    assert!(
        totals[2] < totals[0] * 0.9,
        "UAPmix should save >10%: UA {} vs {}",
        totals[0],
        totals[2]
    );
}

/// Execute a query plan directly on plaintext data.
fn run_plain(cat: &mpq::algebra::Catalog, db: &Database, plan: &mpq::algebra::QueryPlan) -> Table {
    let ring = KeyRing::new();
    let schemes = SchemePlan::default();
    let koa = HashMap::new();
    let ctx = mpq::exec::engine::ExecCtx::new(cat, db, &ring, &schemes, &koa);
    mpq::exec::execute(plan, &ctx).expect("plaintext run")
}

/// The oracle meets the workload: every TPC-H plan, in plaintext, gives
/// the same table under the streaming engine as under the nested-loop
/// row oracle. This is the net, at workload scale, for LeftOuter (Q13),
/// Semi/Anti (Q4, 16, 18, 20–22), residuals (Q19) and self-joins
/// through the alias relations (Q2, 7, 8, 11, 15, 17, 18, 20–22) — none
/// of which the frozen benchmark's queries (1, 3, 6, 10, 12, 14) reach.
/// Returns how many results had rows.
fn oracle_sweep(scale: f64, batch_rows: usize) -> usize {
    let (cat, db) = generate(scale, 20_260_609);
    let ring = KeyRing::new();
    let schemes = SchemePlan::default();
    let koa = HashMap::new();
    let ctx = mpq::exec::ExecCtx::builder(&cat, &db, &ring, &schemes, &koa)
        .batch_rows(batch_rows)
        .build();
    let mut non_empty = 0;
    for q in 1..=QUERY_COUNT {
        let plan = query_plan(&cat, q);
        let streamed = mpq::exec::execute(&plan, &ctx).unwrap_or_else(|e| panic!("Q{q}: {e}"));
        let oracle = mpq::exec::rowref::execute_ref(&plan, &ctx)
            .unwrap_or_else(|e| panic!("Q{q} oracle: {e}"));
        assert_eq!(streamed.attrs(), oracle.attrs(), "Q{q}: columns");
        assert_eq!(
            streamed, oracle,
            "Q{q} at SF {scale}, batches of {batch_rows}"
        );
        non_empty += usize::from(!streamed.is_empty());
    }
    non_empty
}

#[test]
fn all_22_plans_match_the_row_oracle() {
    // The scale is set by the oracle: its nested loops stay in seconds.
    let non_empty = oracle_sweep(0.003, 4096);
    assert!(non_empty >= 18, "only {non_empty} of 22 results have rows");
}

#[test]
fn all_22_plans_match_the_row_oracle_under_tiny_batches() {
    oracle_sweep(0.0005, 7);
}

/// Queries whose optimized UAPenc plans are executed on generated data
/// and compared row-by-row against the plaintext run: every TPC-H
/// query but Q9, Q13, Q14, Q16 (operators already covered here) and
/// Q7, Q21 (pinned below as refusals). Under CostDp Q8 and Q17 plan 11
/// and 4 `Encrypt` operators (Q17's fourth is the one extension splices
/// below a join for a mixed pair); the other alias-using queries (2, 11,
/// 15, 18, 20, 22) run in plaintext at the authorities today and pin
/// that path should the price book ever move them.
const EXEC_QUERIES: [usize; 16] = [1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 15, 17, 18, 19, 20, 22];

/// The data every execution test runs on.
struct World {
    cat: mpq::algebra::Catalog,
    db: Database,
    stats: mpq::algebra::stats::StatsCatalog,
    env: mpq::planner::ScenarioEnv,
}

impl World {
    fn new() -> World {
        let (cat, db) = generate(0.002, 20_260_609);
        let stats = collect_stats(&cat, &db, &SampleConfig::default());
        let env = build_scenario(&cat, Scenario::UAPenc);
        World {
            cat,
            db,
            stats,
            env,
        }
    }

    /// Optimize Q`q` under UAPenc with `strategy`, build the key
    /// material for the extended plan, rewrite encrypted-literal
    /// comparisons and execute centrally with a ring holding every key
    /// (correctness check; the distributed runtime enforces key
    /// separation separately). The plaintext reference and the result —
    /// or the stage that refused, with its error.
    fn run_encrypted(&self, q: usize, strategy: Strategy) -> Result<(Table, Table), String> {
        let (cat, db) = (&self.cat, &self.db);
        let plan = query_plan(cat, q);
        let reference = run_plain(cat, db, &plan);
        let capabilities = CapabilityPolicy::tpch_evaluation();
        let opt = optimize(&plan, cat, &self.stats, &self.env, &capabilities, strategy)
            .map_err(|e| format!("optimize: {e}"))?;
        let mut rng = StdRng::seed_from_u64(q as u64);
        let ring = KeyRing::new();
        let mut koa: HashMap<mpq::algebra::AttrId, u32> = HashMap::new();
        for k in &opt.keys.keys {
            ring.insert(ClusterKey::generate(&mut rng, k.id, 256));
            for a in k.attrs.iter() {
                koa.insert(a, k.id);
            }
        }
        let extended = &opt.extended.plan;
        let prepared =
            mpq::exec::rewrite_literals(extended, cat, &opt.schemes, &koa, &ring, &mut rng)
                .map_err(|e| format!("literal rewriting: {e}"))?;
        let ctx = mpq::exec::engine::ExecCtx::new(cat, db, &ring, &opt.schemes, &koa);
        let result =
            mpq::exec::execute(&prepared, &ctx).map_err(|e| format!("encrypted execution: {e}"))?;
        Ok((reference, result))
    }
}

#[test]
fn optimized_plans_execute_correctly_under_uapenc() {
    let world = World::new();
    for q in EXEC_QUERIES {
        let (reference, result) = world
            .run_encrypted(q, Strategy::CostDp)
            .unwrap_or_else(|e| panic!("Q{q} {e}"));
        assert_same_rows(q, &reference, &result);
    }
}

/// The encrypted run's result equals the plaintext reference, cell by
/// cell (numbers to a relative 1e-6).
fn assert_same_rows(q: usize, reference: &Table, result: &Table) {
    assert_eq!(
        reference.len(),
        result.len(),
        "Q{q}: row count mismatch (plain {} vs extended {})",
        reference.len(),
        result.len()
    );
    for (i, (a, b)) in reference
        .to_rows()
        .iter()
        .zip(&result.to_rows())
        .enumerate()
    {
        for (x, y) in a.iter().zip(b) {
            let ok = match (x.as_num(), y.as_num()) {
                (Some(p), Some(q)) => (p - q).abs() <= 1e-6 * p.abs().max(1.0),
                _ => x.sql_eq(y) || (x.is_null() && y.is_null()),
            };
            assert!(ok, "Q{q} row {i}: {x:?} vs {y:?}");
        }
    }
}

/// A known defect, pinned so that fixing it has to edit this test
/// (ROADMAP item 4): `assign_schemes` gives OPE to a *string* attribute
/// an ordering reaches, which no OPE cell can carry. Optimizer and
/// verifier accept both plans; the refusal is typed, but it comes late
/// — Q7 when its literals are rewritten, Q21 only once rows flow.
#[test]
fn ope_over_a_string_attribute_is_refused_late_but_typed() {
    let world = World::new();
    let ope_over_strings = "scheme cannot encrypt strings/bools under OPE";
    for (q, refusal) in [
        (7, format!("literal rewriting: {ope_over_strings}")),
        (
            21,
            format!("encrypted execution: crypto error: {ope_over_strings}"),
        ),
    ] {
        assert_eq!(
            world.run_encrypted(q, Strategy::CostDp).err(),
            Some(refusal),
            "Q{q}"
        );
    }
}

/// §5's minimize-visibility plans run too: the optimizer verified them
/// and decrypted the result for the user, so each equals the plaintext
/// run — or, where an ordering reaches an encrypted string, is refused
/// with exactly the typed error the pinned test above owns (at literal
/// rewriting, or once rows flow). A wrong answer fails either way.
#[test]
fn minimize_visibility_plans_match_plaintext_or_refuse_typed() {
    let world = World::new();
    let ope_over_strings = "scheme cannot encrypt strings/bools under OPE";
    for q in [3, 5, 6, 8, 10, 11, 13, 14, 15, 17, 18, 19, 22] {
        let (reference, result) = world
            .run_encrypted(q, Strategy::MinimizeVisibility)
            .unwrap_or_else(|e| panic!("Q{q} {e}"));
        assert_same_rows(q, &reference, &result);
    }
    for (queries, stage) in [
        (&[7, 12, 16][..], "literal rewriting: "),
        (&[1, 2, 4, 9, 20, 21], "encrypted execution: crypto error: "),
    ] {
        for &q in queries {
            let refusal = world.run_encrypted(q, Strategy::MinimizeVisibility).err();
            assert_eq!(refusal, Some(format!("{stage}{ope_over_strings}")), "Q{q}");
        }
    }
}

#[test]
fn ablation_minimal_extension_encrypts_least() {
    let cat = tpch_catalog();
    let stats = sample_stats();
    let env = build_scenario(&cat, Scenario::UAPenc);
    for q in [3, 5, 10] {
        let plan = query_plan(&cat, q);
        let minimal = optimize(
            &plan,
            &cat,
            stats,
            &env,
            &CapabilityPolicy::tpch_evaluation(),
            Strategy::CostDp,
        )
        .unwrap();
        let min_vis = optimize(
            &plan,
            &cat,
            stats,
            &env,
            &CapabilityPolicy::tpch_evaluation(),
            Strategy::MinimizeVisibility,
        )
        .unwrap();
        // The strategies may settle on different assignments, so the
        // encrypted-attribute sets are not directly comparable;
        // Def. 5.4 minimality under a *fixed* assignment is verified in
        // mpq-core. Here we assert both produce working plans and that
        // the default (minimal-extension DP) never costs meaningfully
        // more than the encrypt-everything extreme (the DP edge costs
        // are approximate, so strict dominance is not guaranteed).
        // Under the calibrated price book (measured per-value crypto
        // costs) minimal extension is often *several times* cheaper —
        // that is the point of the strategy — so only the upper bound
        // is asserted.
        assert!(minimal.cost.total() > 0.0 && min_vis.cost.total() > 0.0);
        let ratio = minimal.cost.total() / min_vis.cost.total();
        assert!(
            ratio <= 2.0,
            "Q{q}: minimal {} vs min-visibility {} (ratio {ratio})",
            minimal.cost.total(),
            min_vis.cost.total()
        );
    }
}
