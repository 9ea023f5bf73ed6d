//! Transport differential: the TCP data plane must be observationally
//! identical to the in-process one.
//!
//! The [`Transport`](mpq::dist::transport::Transport) seam promises
//! that backends only move bytes — every other property (decrypted
//! result rows, per-edge *data* bytes, request counts) is fixed by the
//! seed and the plan. These tests hold both backends to that promise
//! over the paper's Fig. 7 plans, random Λ-drawn assignments, and a
//! TPC-H query, and additionally pin the decrypted rows to a plaintext
//! reference execution (no silent corruption in either backend).
//!
//! Envelope bytes are excluded from the comparison
//! ([`Report::data_bytes`] subtracts them): hybrid-encryption session
//! keys are drawn from the session RNG whose consumption order is not
//! part of the transport contract.
//!
//! [`Report::data_bytes`]: mpq::dist::Report::data_bytes

use mpq::core::candidates::{candidates, Candidates};
use mpq::core::capability::CapabilityPolicy;
use mpq::core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq::core::fixtures::RunningExample;
use mpq::core::keys::{plan_keys, KeyPlan};
use mpq::core::subjects::SubjectKind;
use mpq::dist::{FaultPlan, Report, RetryPolicy, Session, SessionConfig, TransportKind};
use mpq::exec::{execute, Database, ExecCtx, SchemePlan, DEFAULT_BATCH_ROWS};
use mpq::planner::stats::{collect_stats, SampleConfig};
use mpq::planner::{build_scenario, optimize, Scenario, Strategy};
use mpq_crypto::keyring::KeyRing;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

/// Run one extended plan under both transports with the same seed.
#[allow(clippy::too_many_arguments)]
fn run_both(
    catalog: &mpq::algebra::Catalog,
    subjects: &mpq::core::subjects::Subjects,
    policy: &mpq::core::authz::Policy,
    db: &Database,
    ext: &ExtendedPlan,
    keys: &KeyPlan,
    user: mpq::algebra::SubjectId,
    seed: u64,
) -> (Report, Report) {
    let mut inproc = Session::open_with(catalog, subjects, policy, db, SessionConfig::new(seed));
    let a = inproc
        .execute(ext, keys, user)
        .expect("in-proc run of an authorized plan");
    let mut tcp = Session::open_with(
        catalog,
        subjects,
        policy,
        db,
        SessionConfig::new(seed)
            .transport(TransportKind::Tcp)
            .timeout(Duration::from_secs(30)),
    );
    let b = tcp
        .execute(ext, keys, user)
        .expect("loopback-TCP run of an authorized plan");
    (a, b)
}

/// The three observables the transport contract fixes.
fn assert_identical(a: &Report, b: &Report, what: &str) {
    assert_eq!(
        a.result.to_rows(),
        b.result.to_rows(),
        "{what}: decrypted rows"
    );
    assert_eq!(
        a.data_bytes(),
        b.data_bytes(),
        "{what}: per-edge data bytes"
    );
    assert_eq!(a.requests, b.requests, "{what}: request count");
}

fn sorted(mut rows: Vec<Vec<mpq::algebra::Value>>) -> Vec<Vec<mpq::algebra::Value>> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

fn sample_db(ex: &RunningExample) -> Database {
    let mut db = Database::new();
    db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
    db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
    db
}

fn lambda(ex: &RunningExample) -> Candidates {
    candidates(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &CapabilityPolicy::default(),
        true,
    )
}

/// Fig. 7(b)'s assignment (σ→H, ⋈→Z, γ→Z, σᵧ→Y), minimally extended.
fn fig7b(ex: &RunningExample) -> ExtendedPlan {
    let cands = lambda(ex);
    let mut a = Assignment::new();
    for (node, s) in [
        ("select_d", "H"),
        ("join", "Z"),
        ("group", "Z"),
        ("having", "Y"),
    ] {
        a.set(ex.node(node), ex.subject(s));
    }
    minimally_extend(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &cands,
        &a,
        Some(ex.subject("U")),
    )
    .expect("fig7b assignment is drawn from Λ")
}

#[test]
fn tcp_matches_inproc_on_fig7_plans() {
    let ex = RunningExample::new();
    let db = sample_db(&ex);
    for (name, ext) in [("fig7a", ex.fig7a_extended()), ("fig7b", fig7b(&ex))] {
        let keys = plan_keys(&ext);
        let (a, b) = run_both(
            &ex.catalog,
            &ex.subjects,
            &ex.policy,
            &db,
            &ext,
            &keys,
            ex.subject("U"),
            17,
        );
        assert_identical(&a, &b, name);
        assert!(!a.result.is_empty(), "{name} returns rows");
    }
}

#[test]
fn tcp_matches_inproc_and_reference_on_tpch() {
    // TPC-H Q6 under the §7 UAPenc scenario at a small scale factor:
    // plan with the real pipeline, run under both transports, and pin
    // the decrypted rows to the plaintext reference.
    let (catalog, db) = mpq::tpch::generate(0.005, 42);
    let env = build_scenario(&catalog, Scenario::UAPenc);
    let plan = mpq::tpch::query_plan(&catalog, 6);
    let stats = collect_stats(&catalog, &db, &SampleConfig::default());
    let opt = optimize(
        &plan,
        &catalog,
        &stats,
        &env,
        &CapabilityPolicy::tpch_evaluation(),
        Strategy::CostDp,
    )
    .expect("Q6 optimizes");

    let (a, b) = run_both(
        &catalog,
        &env.subjects,
        &env.policy,
        &db,
        &opt.extended,
        &opt.keys,
        env.user,
        23,
    );
    assert_identical(&a, &b, "tpch-q6");

    let ring = KeyRing::new();
    let schemes = SchemePlan::default();
    let koa = HashMap::new();
    let ctx = ExecCtx::new(&catalog, &db, &ring, &schemes, &koa);
    let reference = execute(&plan, &ctx).expect("plaintext Q6");
    assert_eq!(
        sorted(a.result.to_rows()),
        sorted(reference.to_rows()),
        "decrypted TCP result equals the plaintext reference"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any assignment drawn from Λ: both transports agree on rows,
    /// per-edge data bytes, and request counts.
    #[test]
    fn tcp_matches_inproc_on_lambda_draws(
        seed in any::<u64>(),
        choice in proptest::collection::vec(any::<u16>(), 4),
    ) {
        let ex = RunningExample::new();
        let db = sample_db(&ex);
        let cands = lambda(&ex);
        let mut assignment = Assignment::new();
        for (node, c) in ex.operations().into_iter().zip(&choice) {
            let set = cands.of(node);
            assignment.set(node, set[*c as usize % set.len()]);
        }
        let ext = minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &assignment,
            Some(ex.subject("U")),
        )
        .expect("assignments drawn from Λ extend (Theorem 5.2)");
        let keys = plan_keys(&ext);
        let (a, b) = run_both(
            &ex.catalog,
            &ex.subjects,
            &ex.policy,
            &db,
            &ext,
            &keys,
            ex.subject("U"),
            seed,
        );
        assert_identical(&a, &b, "Λ draw");
    }

    /// Retry determinism: the same `(seed, FaultPlan)` produces the
    /// identical recovery trace — per-edge attempt/retry/injection
    /// counters, decrypted rows, per-edge data bytes — on the
    /// in-process and loopback-TCP backends. The schedule's per-edge
    /// injection cap stays one below the retry budget, so every drawn
    /// schedule is provably recoverable and both runs must *succeed*
    /// (a typed abort here would be a backend divergence, not luck).
    #[test]
    fn same_fault_schedule_gives_identical_recovery_traces(
        fault_seed in any::<u64>(),
        drop_pm in 0u32..300,
        reset_pm in 0u32..200,
        truncate_pm in 0u32..150,
    ) {
        let ex = RunningExample::new();
        let db = sample_db(&ex);
        let ext = ex.fig7a_extended();
        let keys = plan_keys(&ext);
        let retry = RetryPolicy::default();
        let mut plan = FaultPlan::new(fault_seed);
        plan.drop_pm = drop_pm;
        plan.reset_pm = reset_pm;
        plan.truncate_pm = truncate_pm;
        plan.max_per_edge = Some(retry.max_attempts - 1);

        let mut inproc = Session::open_with(
            &ex.catalog,
            &ex.subjects,
            &ex.policy,
            &db,
            SessionConfig::new(17).faults(plan.clone()).retry(retry),
        );
        let a = inproc
            .execute(&ext, &keys, ex.subject("U"))
            .expect("capped schedule recovers in-proc");
        let trace_a = inproc.recovery_stats();

        // A swapped-in schedule starts from attempt 0 on every edge, and
        // so does `plan` when it is swapped back: the same query then
        // replays the first run's trace exactly.
        let mut other = plan.clone();
        other.seed = fault_seed.wrapping_add(1);
        inproc.set_faults(Some(other));
        inproc
            .execute(&ext, &keys, ex.subject("U"))
            .expect("capped schedule recovers in-proc");
        inproc.set_faults(Some(plan.clone()));
        let replayed = inproc
            .execute(&ext, &keys, ex.subject("U"))
            .expect("capped schedule recovers in-proc");
        assert_identical(&a, &replayed, "replayed schedule");
        prop_assert_eq!(inproc.recovery_stats(), trace_a.clone(), "replayed trace diverges");

        let mut tcp = Session::open_with(
            &ex.catalog,
            &ex.subjects,
            &ex.policy,
            &db,
            SessionConfig::new(17)
                .transport(TransportKind::Tcp)
                .timeout(Duration::from_secs(30))
                .faults(plan)
                .retry(retry),
        );
        let b = tcp
            .execute(&ext, &keys, ex.subject("U"))
            .expect("capped schedule recovers over TCP");
        let trace_b = tcp.recovery_stats();

        assert_identical(&a, &b, "faulted run");
        prop_assert_eq!(trace_a, trace_b, "per-edge recovery counters diverge");
    }
}

/// A `Reset` delivers a result and fails its sender, so the re-send
/// queues a duplicate behind it: the receiving mailbox must copy the
/// shared transfer while the duplicate is still queued, and drop the
/// duplicate afterwards. TPC-H Q6 at SF 0.005 with every operation a
/// provider may run pinned to one ships the encrypted lineitem scan — more rows
/// than one batch holds — from its authority; with every edge's first
/// attempt reset, rows and data bytes are the fault-free run's, and
/// every edge records the injected reset and the one retry it cost.
#[test]
fn a_reset_on_a_multi_batch_tpch_edge_changes_nothing_but_the_trace() {
    let (catalog, db) = mpq::tpch::generate(0.005, 42);
    let lineitem = catalog.relation("lineitem").expect("TPC-H schema").rel;
    let scanned = db.table(lineitem).expect("generated").len();
    assert!(scanned > DEFAULT_BATCH_ROWS, "{scanned} rows: one batch");
    let env = build_scenario(&catalog, Scenario::UAPenc);
    let plan = mpq::tpch::query_plan(&catalog, 6);
    let cap = CapabilityPolicy::tpch_evaluation();
    let cands = candidates(&plan, &catalog, &env.policy, &env.subjects, &cap, true);
    let providers = env.subjects.of_kind(SubjectKind::Provider);
    let mut pinned = Assignment::new();
    for id in plan.postorder() {
        if !plan.node(id).children.is_empty() {
            let first = providers.iter().find(|&&s| cands.is_candidate(id, s));
            pinned.set(id, first.copied().unwrap_or(env.user));
        }
    }
    let (policy, subjects) = (&env.policy, &env.subjects);
    let user = Some(env.user);
    let ext = minimally_extend(&plan, &catalog, policy, subjects, &cands, &pinned, user)
        .expect("pinned to candidates");
    let keys = plan_keys(&ext);
    let run = |config: SessionConfig| {
        let mut session = Session::open_with(&catalog, subjects, policy, &db, config);
        let report = session
            .execute(&ext, &keys, env.user)
            .expect("a capped reset schedule recovers");
        (report, session.recovery_stats())
    };
    let (clean, _) = run(SessionConfig::new(23));
    let reset = FaultPlan::parse("seed=1,reset=1000,max=1").expect("valid");
    let (faulted, trace) = run(SessionConfig::new(23).faults(reset));
    assert_identical(&clean, &faulted, "reset on every edge");
    let widest = faulted.data_bytes().into_values().max().unwrap_or(0);
    assert!(
        widest >= 8 * scanned,
        "the scan ships whole: {widest} bytes"
    );
    assert!(!trace.is_empty());
    for (edge, recovery) in &trace {
        assert_eq!((recovery.injected, recovery.retries), (1, 1), "{edge:?}");
    }
}
