//! `verify_plans` — the CI corpus check for the static verifier.
//!
//! Runs `mpq_core::verify` over every plan in the standing corpus:
//!
//! * the paper's Fig. 7(a) and 7(b) extended plans over the running
//!   example, plus the all-user assignment;
//! * six TPC-H queries (Q1, Q3, Q5, Q6, Q10, Q12) optimized with
//!   every strategy `optimize` offers a query of this size —
//!   `CostDp`, `MaximizeVisibility` and `MinimizeVisibility` — under
//!   both provider scenarios (UAPenc, UAPmix).
//!
//! Every plan must verify **clean** — zero diagnostics. Any finding is
//! printed (code, node path, message) and the process exits non-zero,
//! failing CI. A Markdown summary table (plan × diagnostic count per
//! code) is printed between `--- summary ---` markers for the workflow
//! to lift into the job summary.

use mpq_core::capability::CapabilityPolicy;
use mpq_core::extend::{minimally_extend, Assignment};
use mpq_core::fixtures::RunningExample;
use mpq_core::keys::plan_keys;
use mpq_core::verify::{verify_with_policy, Code, VerifyReport};
use mpq_planner::{build_scenario, optimize, Scenario, Strategy};
use mpq_tpch::{query_plan, tpch_catalog, tpch_stats};

/// One corpus entry's outcome.
struct Outcome {
    name: String,
    report: VerifyReport,
}

/// The Fig. 7 running-example plans under their paper assignments.
fn fig7_outcomes() -> Vec<Outcome> {
    let ex = RunningExample::new();
    let cands = mpq_core::candidates::candidates(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &CapabilityPolicy::default(),
        true,
    );
    let assignments: [(&str, [&str; 4]); 3] = [
        ("fig7a", ["H", "X", "X", "Y"]),
        ("fig7b", ["H", "Z", "Z", "Y"]),
        ("fig7-user", ["U", "U", "U", "U"]),
    ];
    assignments
        .into_iter()
        .map(|(name, subjects)| {
            let mut a = Assignment::new();
            for (node, s) in ["select_d", "join", "group", "having"].iter().zip(subjects) {
                a.set(ex.node(node), ex.subject(s));
            }
            let ext = minimally_extend(
                &ex.plan,
                &ex.catalog,
                &ex.policy,
                &ex.subjects,
                &cands,
                &a,
                Some(ex.subject("U")),
            )
            .unwrap_or_else(|e| panic!("{name}: extension failed: {e}"));
            let keys = plan_keys(&ext);
            let report = verify_with_policy(
                &ext,
                &keys,
                &ex.catalog,
                &ex.subjects,
                &ex.policy,
                Some(ex.subject("U")),
            );
            Outcome {
                name: name.to_string(),
                report,
            }
        })
        .collect()
}

/// The TPC-H slice × provider scenarios, through the full optimizer.
///
/// `optimize` itself runs the verifier as a post-condition, so an
/// unclean plan would already surface as `OptError::Verify` — this
/// re-verification keeps the corpus check meaningful even if that
/// post-condition is ever relaxed.
fn tpch_outcomes() -> Vec<Outcome> {
    const QUERIES: [usize; 6] = [1, 3, 5, 6, 10, 12];
    let cat = tpch_catalog();
    let stats = tpch_stats(&cat, 1.0);
    let mut out = Vec::new();
    let strategies = [
        (Strategy::CostDp, ""),
        (Strategy::MaximizeVisibility, "-max-vis"),
        (Strategy::MinimizeVisibility, "-min-vis"),
    ];
    for (strategy, suffix) in strategies {
        for scenario in [Scenario::UAPenc, Scenario::UAPmix] {
            let env = build_scenario(&cat, scenario);
            for q in QUERIES {
                let name = format!("tpch-q{q}-{scenario:?}{suffix}");
                let plan = query_plan(&cat, q);
                let opt = optimize(
                    &plan,
                    &cat,
                    &stats,
                    &env,
                    &CapabilityPolicy::default(),
                    strategy,
                )
                .unwrap_or_else(|e| panic!("{name}: optimize failed: {e}"));
                let report = verify_with_policy(
                    &opt.extended,
                    &opt.keys,
                    &cat,
                    &env.subjects,
                    &env.policy,
                    Some(env.user),
                );
                out.push(Outcome { name, report });
            }
        }
    }
    out
}

fn main() {
    let mut outcomes = fig7_outcomes();
    outcomes.extend(tpch_outcomes());

    let mut dirty = 0usize;
    for o in &outcomes {
        if o.report.is_clean() {
            println!("verify {:<20} clean", o.name);
        } else {
            dirty += 1;
            println!(
                "verify {:<20} {} diagnostic(s):",
                o.name,
                o.report.diagnostics.len()
            );
            for d in &o.report.diagnostics {
                println!("    {d}");
            }
        }
    }

    // Markdown summary for the CI job-summary table.
    println!("\n--- summary ---");
    print!("| plan | status |");
    for c in Code::ALL {
        print!(" {c} |");
    }
    println!();
    print!("|------|--------|");
    for _ in Code::ALL {
        print!("---|");
    }
    println!();
    for o in &outcomes {
        let status = if o.report.is_clean() {
            "clean"
        } else {
            "DIRTY"
        };
        print!("| {} | {status} |", o.name);
        for c in Code::ALL {
            let n = o.report.diagnostics.iter().filter(|d| d.code == c).count();
            print!(" {n} |");
        }
        println!();
    }
    println!("--- end summary ---");

    println!(
        "\n{} plan(s) verified, {} clean, {} dirty",
        outcomes.len(),
        outcomes.len() - dirty,
        dirty
    );
    if dirty > 0 {
        std::process::exit(1);
    }
}
