//! CI perf gate and baseline ratchet: diff a fresh `BENCH_dist.json`
//! against the committed `BENCH_baseline.json`.
//!
//! ```text
//! cargo run -p mpq-bench --bin bench_diff --release -- \
//!     [--baseline BENCH_baseline.json] [--current BENCH_dist.json] \
//!     [--latency-tolerance 0.25] [--bytes-tolerance 0.25] \
//!     [--accept-improvement]
//! ```
//!
//! Prints a Markdown delta table (append it to `$GITHUB_STEP_SUMMARY`
//! in CI). Exits 2 when a report cannot be read or lacks a metric its
//! kind gates, and 1 when:
//!
//! * the gated latency (concurrent p50 of a `smoke` report, concurrent
//!   `wall_secs` of a `full` one) or the bytes/requests per query
//!   **regress** beyond tolerance;
//! * a gated metric **improves** beyond the same tolerance — the
//!   committed baseline is stale and must be re-pinned so future
//!   regressions are measured against the real floor (suppress once
//!   with `--accept-improvement` while iterating locally).
//!
//! To re-pin after a deliberate change, run the command the
//! improvement message names — `throughput --smoke` for a `smoke`
//! baseline, the SF 1 run for a `full` one, written over the
//! `--baseline` path — and commit the refreshed baseline with the
//! change that earned it.

use mpq_bench::diff::{compare, render_markdown, repin_command};

fn main() {
    let mut baseline = String::from("BENCH_baseline.json");
    let mut current = String::from("BENCH_dist.json");
    let mut latency_tol = 0.25f64;
    let mut bytes_tol = 0.25f64;
    let mut accept_improvement = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", args[*i - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--baseline" => baseline = take(&mut i),
            "--current" => current = take(&mut i),
            "--latency-tolerance" => {
                latency_tol = take(&mut i).parse().expect("tolerance is a fraction")
            }
            "--bytes-tolerance" => {
                bytes_tol = take(&mut i).parse().expect("tolerance is a fraction")
            }
            "--accept-improvement" => accept_improvement = true,
            "--help" | "-h" => {
                println!(
                    "flags: --baseline <path> --current <path> \
                     --latency-tolerance <frac> --bytes-tolerance <frac> \
                     --accept-improvement"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline_report = read(&baseline);
    let deltas = compare(&baseline_report, &read(&current), latency_tol, bytes_tol).unwrap_or_else(
        |missing| {
            eprintln!("{missing}");
            std::process::exit(2);
        },
    );
    print!("{}", render_markdown(&deltas));

    let mut failing = false;
    for d in deltas.iter().filter(|d| d.regressed()) {
        eprintln!(
            "REGRESSION: {} {:.3} → {:.3} ({:+.1}%)",
            d.name,
            d.baseline,
            d.current,
            d.delta * 100.0
        );
        failing = true;
    }
    for d in deltas.iter().filter(|d| d.improved_beyond()) {
        if accept_improvement {
            eprintln!(
                "improvement accepted without re-pin: {} {:.3} → {:.3} ({:+.1}%)",
                d.name,
                d.baseline,
                d.current,
                d.delta * 100.0
            );
        } else {
            eprintln!(
                "UNCLAIMED IMPROVEMENT: {} {:.3} → {:.3} ({:+.1}%) — re-pin {baseline} \
                 ({}) so the ratchet holds the new floor",
                d.name,
                d.baseline,
                d.current,
                d.delta * 100.0,
                repin_command(&baseline_report, &baseline)
            );
            failing = true;
        }
    }
    if failing {
        std::process::exit(1);
    }
}
