//! # mpq-bench
//!
//! Benchmark harness regenerating the paper's evaluation (§7):
//!
//! * `cargo run -p mpq-bench --bin figure9 --release` — per-query
//!   normalized economic cost of the 22 TPC-H queries under the UA /
//!   UAPenc / UAPmix scenarios (the paper's Figure 9);
//! * `cargo run -p mpq-bench --bin figure10 --release` — cumulative
//!   cost and headline savings (Figure 10; paper: 54.2% for UAPenc,
//!   71.3% for UAPmix; this reproduction: 55.2% / 77.0% at SF 1 with
//!   the searched `UAPMIX_HEAD_FILL` split, pinned by
//!   `tests/figure10_pin.rs`; `--sample` switches to the fast SF 0.02
//!   sample statistics the tier-1 pin uses);
//! * `cargo run -p mpq-bench --bin calibrate --release` — fit the
//!   price book's execution constants against measured `mpq-exec`/
//!   `mpq-dist`/`mpq-crypto` behavior (see [`calibrate`]);
//! * `cargo run -p mpq-bench --bin bench_diff --release` — the CI
//!   perf gate: diff a fresh `BENCH_dist.json` against the committed
//!   `BENCH_baseline.json` (see [`diff`]);
//! * `cargo run -p mpq-bench --bin ablation --release` — the §5
//!   maximize-/minimize-visibility strategies versus the minimal
//!   extension;
//! * `cargo run -p mpq-bench --bin throughput --release` — the
//!   [`throughput`] harness: N concurrent query sessions through the
//!   `mpq-dist` multi-party runtime (Fig. 7 plans + optimized TPC-H
//!   queries over generated data), writing latency percentiles,
//!   queries/sec, and bytes-on-the-wire to `BENCH_dist.json`
//!   (`--smoke` for the CI gate; `--session` additionally measures
//!   the persistent-`Session` path and records the Def. 6.1
//!   amortization win);
//! * `cargo bench -p mpq-bench` — criterion microbenchmarks for the
//!   crypto substrate, candidate computation, minimal extension, and
//!   the optimizer.

pub mod calibrate;
pub mod diff;
pub mod throughput;

use mpq_algebra::stats::StatsCatalog;
use mpq_core::capability::CapabilityPolicy;
use mpq_planner::stats::{collect_stats, SampleConfig};
use mpq_planner::{build_scenario, optimize, Optimized, Scenario, Strategy};
use mpq_tpch::{generate, query_plan, tpch_catalog, QUERY_COUNT};
use std::sync::OnceLock;

/// Scale factor the evaluation statistics are measured at: the paper's
/// 1 GB (SF 1) configuration, generated in full and measured directly
/// — not extrapolated from a smaller sample.
pub const STATS_SF: f64 = 1.0;

/// Seed for the statistics-collection data generation.
pub const STATS_SEED: u64 = 2026;

/// Statistics for the SF-1 evaluation, collected once per process by
/// generating the full SF 1 TPC-H database (the columnar data plane
/// holds it comfortably) and measuring it column-by-column — the
/// measured stand-in for the PostgreSQL estimates the paper's tool
/// consumed (row counts, distinct values, min/max, NULL fractions,
/// equi-depth histograms). Row counts and min/max are exact for the
/// actual SF 1 population; per-column detail comes from the standard
/// Bernoulli row sample inside [`collect_stats`], drawn from the real
/// SF 1 data rather than scaled up from a smaller scale factor.
pub fn evaluation_stats() -> &'static StatsCatalog {
    static STATS: OnceLock<StatsCatalog> = OnceLock::new();
    STATS.get_or_init(|| {
        let (cat, db) = generate(STATS_SF, STATS_SEED);
        collect_stats(&cat, &db, &SampleConfig::default())
    })
}

/// Scale factor of the fast sample-mode statistics: small enough to
/// generate in well under a second, so the default test suite can run
/// the whole Figure 10 pipeline on every push (the `figure10` CI job
/// still pins the exact SF 1 numbers).
pub const SAMPLE_SF: f64 = 0.02;

/// Sample-mode statistics (SF [`SAMPLE_SF`], same seed), collected
/// once per process — the fast stand-in for [`evaluation_stats`].
pub fn sample_stats() -> &'static StatsCatalog {
    static STATS: OnceLock<StatsCatalog> = OnceLock::new();
    STATS.get_or_init(|| {
        let (cat, db) = generate(SAMPLE_SF, STATS_SEED);
        collect_stats(&cat, &db, &SampleConfig::default())
    })
}

/// Optimize one TPC-H query under one scenario with the evaluation
/// capability policy, against caller-provided statistics.
pub fn run_query_with(
    stats: &StatsCatalog,
    q: usize,
    scenario: Scenario,
    strategy: Strategy,
) -> Optimized {
    let cat = tpch_catalog();
    let env = build_scenario(&cat, scenario);
    let plan = query_plan(&cat, q);
    optimize(
        &plan,
        &cat,
        stats,
        &env,
        &CapabilityPolicy::tpch_evaluation(),
        strategy,
    )
    .unwrap_or_else(|e| panic!("Q{q} {scenario:?}: {e}"))
}

/// Optimize one TPC-H query under one scenario at SF 1 (the paper's
/// 1 GB configuration) with the evaluation capability policy.
pub fn run_query(q: usize, scenario: Scenario, strategy: Strategy) -> Optimized {
    run_query_with(evaluation_stats(), q, scenario, strategy)
}

/// Total cost per scenario for all 22 queries (Figure 10's input)
/// against caller-provided statistics, computed in parallel across
/// queries.
pub fn all_costs_with(stats: &StatsCatalog, strategy: Strategy) -> Vec<[f64; 3]> {
    let qs: Vec<usize> = (1..=QUERY_COUNT).collect();
    let mut out = vec![[0.0; 3]; QUERY_COUNT];
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for &q in &qs {
            handles.push(s.spawn(move || {
                let mut row = [0.0; 3];
                for (i, scen) in Scenario::ALL.iter().enumerate() {
                    row[i] = run_query_with(stats, q, *scen, strategy).cost.total();
                }
                (q, row)
            }));
        }
        for h in handles {
            let (q, row) = h.join().expect("worker");
            out[q - 1] = row;
        }
    });
    out
}

/// [`all_costs_with`] at the SF 1 evaluation statistics.
pub fn all_costs(strategy: Strategy) -> Vec<[f64; 3]> {
    all_costs_with(evaluation_stats(), strategy)
}
