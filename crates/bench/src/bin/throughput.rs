//! Throughput benchmark for the distributed multi-party runtime.
//!
//! Drives N concurrent query sessions (Fig. 7 medical plans + optimized
//! TPC-H queries over generated data) through `mpq-dist`'s concurrent
//! runtime, provisioning keys afresh for every query, verifies every
//! distributed result against a centralized plaintext reference, and
//! writes `BENCH_dist.json`.
//!
//! ```text
//! cargo run -p mpq-bench --bin throughput --release -- [flags]
//!
//!   --smoke             CI-sized run (2 sessions × 2 iters, Q1+Q6)
//!   --sessions N        concurrent client sessions    [default 8]
//!   --iters N           workload repetitions/session  [default 3]
//!   --sf F              TPC-H scale factor            [default 0.002]
//!                       (without --iters, also derives the iteration
//!                       count — one pass at SF ≥ 0.05)
//!   --queries a,b,c     TPC-H query mix               [default 1,3,5,6,10,12]
//!   --seed N            base RNG seed                 [default 2026]
//!   --out PATH          report path                   [default BENCH_dist.json]
//!   --workers N         intra-operator worker threads [default: MPQ_WORKERS
//!                       env, else available parallelism]
//! ```
//!
//! Exit status is non-zero when any distributed result diverges from
//! the plaintext reference (the CI `bench-smoke` job relies on this).

use mpq_bench::throughput::{run_throughput, to_json, ThroughputConfig};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The smoke preset applies first so explicit flags always win,
    // regardless of where --smoke appears on the command line.
    let mut cfg = if argv.iter().any(|a| a == "--smoke") {
        ThroughputConfig::smoke()
    } else {
        ThroughputConfig::full()
    };
    let mut out = String::from("BENCH_dist.json");
    // `--sf` rescales the default iteration count (one pass is plenty
    // of work at SF ≥ 0.05) unless `--iters` is given explicitly;
    // tracked outside the loop so flag order never matters.
    let mut iters_explicit = false;
    let mut sf_explicit = false;
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => {}
            "--sessions" => cfg.sessions = value("--sessions").parse().expect("--sessions N"),
            "--iters" => {
                cfg.iters = value("--iters").parse().expect("--iters N");
                iters_explicit = true;
            }
            "--sf" => {
                cfg.tpch_sf = value("--sf").parse().expect("--sf F");
                sf_explicit = true;
            }
            "--queries" => {
                cfg.tpch_queries = value("--queries")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().expect("--queries a,b,c"))
                    .collect();
            }
            "--seed" => cfg.seed = value("--seed").parse().expect("--seed N"),
            "--out" => out = value("--out"),
            "--workers" => {
                let n: usize = value("--workers").parse().expect("--workers N");
                if !mpq_exec::WorkerPool::init_global(n) {
                    eprintln!("# --workers ignored: the global worker pool is already initialized");
                }
            }
            other => panic!("unknown flag {other} (see the crate docs for usage)"),
        }
    }
    if sf_explicit && !iters_explicit {
        cfg.iters = ThroughputConfig::iters_for_sf(cfg.tpch_sf);
    }

    eprintln!(
        "# mpq-dist throughput: {} sessions × {} iters, TPC-H SF {} queries {:?}",
        cfg.sessions, cfg.iters, cfg.tpch_sf, cfg.tpch_queries
    );
    let report = run_throughput(&cfg);
    let json = to_json(&report);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    print!("{json}");
    eprintln!(
        "# concurrent: {:.1} q/s (p50 {:.1} ms, p95 {:.1} ms) | wrote {out}",
        report.concurrent.qps, report.concurrent.p50_ms, report.concurrent.p95_ms,
    );
    if report.concurrent.queries == 0 {
        eprintln!(
            "# nothing executed (sessions/iters/workload empty) — refusing to pass vacuously"
        );
        std::process::exit(1);
    }
    if !report.verified() {
        eprintln!("# DIVERGENCE between distributed and plaintext execution:");
        for m in &report.mismatches {
            eprintln!("#   {m}");
        }
        std::process::exit(1);
    }
}
