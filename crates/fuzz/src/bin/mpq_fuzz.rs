//! Differential fuzzing driver.
//!
//! Runs `--scenarios N` seeded worlds (seeds `base, base+1, …`)
//! through the four-way harness, accumulates the coverage vector,
//! prints the report, and exits nonzero when
//!
//! * any scenario diverged (the seeds are printed — shrink by
//!   committing them to `tests/fuzz_corpus/`), or
//! * a Def. 4.1 condition outcome was never observed, or
//! * `--floor FILE` is given and any coverage axis fell below the
//!   committed floor counts.
//!
//! ```text
//! mpq-fuzz [--scenarios N] [--seed BASE] [--report FILE] [--floor FILE] [--verbose]
//! ```

use mpq_core::verify::VerifyCoverage;
use mpq_fuzz::{run_scenario, Outcome};
use std::process::ExitCode;

/// Per-axis cardinalities, the machine-comparable floor format.
fn axis_counts(cov: &VerifyCoverage) -> Vec<(&'static str, usize)> {
    vec![
        ("def41_pass", cov.def41_pass.iter().filter(|b| **b).count()),
        ("def41_fail", cov.def41_fail.iter().filter(|b| **b).count()),
        ("cluster_shapes", cov.cluster_shapes.len()),
        ("schemes", cov.schemes.len()),
        ("mixed_form", cov.mixed_form.iter().filter(|b| **b).count()),
        ("codes", cov.codes.len()),
    ]
}

fn parse_floor(text: &str) -> Vec<(String, usize)> {
    text.lines()
        .filter_map(|l| {
            let l = l.trim();
            if l.is_empty() || l.starts_with('#') {
                return None;
            }
            let (axis, n) = l.split_once(' ')?;
            Some((axis.to_string(), n.trim().parse().ok()?))
        })
        .collect()
}

fn main() -> ExitCode {
    let mut scenarios: u64 = 200;
    let mut base: u64 = 0xF422;
    let mut report_path: Option<String> = None;
    let mut floor_path: Option<String> = None;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--scenarios" => scenarios = val("--scenarios").parse().expect("integer"),
            "--seed" => base = val("--seed").parse().expect("integer"),
            "--report" => report_path = Some(val("--report")),
            "--floor" => floor_path = Some(val("--floor")),
            "--verbose" => verbose = true,
            other => {
                eprintln!("unknown argument {other}");
                eprintln!(
                    "usage: mpq-fuzz [--scenarios N] [--seed BASE] [--report FILE] [--floor FILE]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let mut cov = VerifyCoverage::default();
    let mut divergent: Vec<u64> = Vec::new();
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..scenarios {
        let seed = base.wrapping_add(i);
        let r = run_scenario(seed);
        cov.merge(&r.coverage);
        match &r.outcome {
            Outcome::Accepted { rows } => {
                if verbose {
                    println!("seed {seed}: accepted ({rows} rows)");
                }
                accepted += 1;
            }
            Outcome::Rejected { codes } => {
                if verbose {
                    println!("seed {seed}: rejected {codes:?}");
                }
                rejected += 1;
            }
            Outcome::Divergence(why) => {
                eprintln!("seed {seed}: DIVERGENCE: {why}");
                divergent.push(seed);
            }
        }
        if (i + 1) % 250 == 0 {
            eprintln!("… {}/{scenarios} scenarios", i + 1);
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "mpq-fuzz: {scenarios} scenarios from seed {base:#x}: \
         {accepted} accepted, {rejected} rejected, {} divergent\n\n",
        divergent.len()
    ));
    out.push_str(&cov.report());
    out.push_str("\n# floor (axis cardinalities)\n");
    for (axis, n) in axis_counts(&cov) {
        out.push_str(&format!("{axis} {n}\n"));
    }
    print!("{out}");
    if let Some(p) = report_path {
        std::fs::write(&p, &out).unwrap_or_else(|e| panic!("writing {p}: {e}"));
    }

    let mut failed = false;
    if !divergent.is_empty() {
        eprintln!("FAIL: {} divergent seeds: {divergent:?}", divergent.len());
        failed = true;
    }
    if !cov.def41_complete() {
        eprintln!("FAIL: uncovered Def. 4.1 condition outcome");
        failed = true;
    }
    if let Some(p) = floor_path {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("reading {p}: {e}"));
        let counts = axis_counts(&cov);
        for (axis, floor) in parse_floor(&text) {
            let got = counts
                .iter()
                .find(|(a, _)| *a == axis)
                .map(|(_, n)| *n)
                .unwrap_or_else(|| panic!("unknown floor axis {axis}"));
            if got < floor {
                eprintln!("FAIL: coverage regression on {axis}: {got} < floor {floor}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
