//! CI perf gate and baseline ratchet: diff a fresh `BENCH_dist.json`
//! against the committed `BENCH_baseline.json`.
//!
//! ```text
//! cargo run -p mpq-bench --bin bench_diff --release -- \
//!     [--baseline BENCH_baseline.json] [--current BENCH_dist.json] \
//!     [--latency-tolerance 0.25] [--bytes-tolerance 0.25] \
//!     [--min-speedup 1.0] [--min-session-speedup 1.0] \
//!     [--accept-improvement]
//! ```
//!
//! Prints a Markdown delta table (append it to `$GITHUB_STEP_SUMMARY`
//! in CI) and exits non-zero when:
//!
//! * the concurrent p50 latency or the bytes/requests per query
//!   **regress** beyond tolerance;
//! * a gated metric **improves** beyond the same tolerance — the
//!   committed baseline is stale and must be re-pinned so future
//!   regressions are measured against the real floor (suppress once
//!   with `--accept-improvement` while iterating locally);
//! * `--min-speedup` is given and the fresh report's `speedup_p50`
//!   (sequential p50 / concurrent p50) is below it — concurrency must
//!   never be a pessimization;
//! * `--min-session-speedup` is given and the fresh report's
//!   `session_speedup_p50` (fresh-provisioning p50 / persistent-session
//!   p50, recorded by `throughput --session`) is below it — the
//!   Def. 6.1 amortization win must not silently erode.
//!
//! To re-pin after a deliberate change: `cargo run -p mpq-bench --bin
//! throughput --release -- --smoke --session --out
//! BENCH_baseline.json` and commit the refreshed baseline with the
//! change that earned it (`--session` is required: CI's session gate
//! reads `session_speedup_p50` from the committed baseline).

use mpq_bench::diff::{compare, render_markdown, session_speedup_p50, speedup_p50};

fn main() {
    let mut baseline = String::from("BENCH_baseline.json");
    let mut current = String::from("BENCH_dist.json");
    let mut latency_tol = 0.25f64;
    let mut bytes_tol = 0.25f64;
    let mut min_speedup: Option<f64> = None;
    let mut min_session_speedup: Option<f64> = None;
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
            "--min-speedup" => {
                min_speedup = Some(take(&mut i).parse().expect("min speedup is a ratio"))
            }
            "--min-session-speedup" => {
                min_session_speedup = Some(
                    take(&mut i)
                        .parse()
                        .expect("min session speedup is a ratio"),
                )
            }
            "--accept-improvement" => accept_improvement = true,
            "--help" | "-h" => {
                println!(
                    "flags: --baseline <path> --current <path> \
                     --latency-tolerance <frac> --bytes-tolerance <frac> \
                     --min-speedup <ratio> --min-session-speedup <ratio> \
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
    let current_text = read(&current);
    let deltas = compare(&read(&baseline), &current_text, latency_tol, bytes_tol);
    if deltas.is_empty() {
        eprintln!("no comparable metrics found — malformed report?");
        std::process::exit(2);
    }
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
                "UNCLAIMED IMPROVEMENT: {} {:.3} → {:.3} ({:+.1}%) — re-pin \
                 BENCH_baseline.json (throughput --smoke --session --out BENCH_baseline.json) \
                 so the ratchet holds the new floor",
                d.name,
                d.baseline,
                d.current,
                d.delta * 100.0
            );
            failing = true;
        }
    }
    if let Some(min) = min_speedup {
        match speedup_p50(&current_text) {
            Some(s) if s < min => {
                eprintln!(
                    "SPEEDUP GATE: concurrent runtime is {s:.3}× the sequential \
                     path (minimum {min:.3}×) — concurrency became a pessimization"
                );
                failing = true;
            }
            Some(s) => eprintln!("speedup_p50 = {s:.3} (minimum {min:.3}) ✓"),
            None => {
                eprintln!("SPEEDUP GATE: current report has no speedup_p50 field");
                failing = true;
            }
        }
    }
    if let Some(min) = min_session_speedup {
        match session_speedup_p50(&current_text) {
            Some(s) if s < min => {
                eprintln!(
                    "SESSION GATE: persistent sessions run at {s:.3}× the fresh-provisioning \
                     p50 (minimum {min:.3}×) — the Def. 6.1 amortization win eroded"
                );
                failing = true;
            }
            Some(s) => eprintln!("session_speedup_p50 = {s:.3} (minimum {min:.3}) ✓"),
            None => {
                eprintln!(
                    "SESSION GATE: current report has no session_speedup_p50 field \
                     (run throughput with --session)"
                );
                failing = true;
            }
        }
    }
    if failing {
        std::process::exit(1);
    }
}
