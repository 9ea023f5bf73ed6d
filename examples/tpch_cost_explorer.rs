//! TPC-H cost explorer: the §7 economic evaluation for one query.
//!
//! Optimizes a TPC-H query under the three authorization scenarios and
//! prints the chosen operator assignments, injected encryption, keys,
//! and the cost breakdown, on statistics measured from generated SF
//! 0.02 data (the sample tier of the Figure 10 pipeline).
//!
//! Run with `cargo run --example tpch_cost_explorer -- 5` (defaults to
//! query 3).

use mpq::core::capability::CapabilityPolicy;
use mpq::planner::{build_scenario, optimize, Scenario, Strategy};
use mpq::tpch::{query_plan, tpch_catalog};

fn main() {
    let q: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    assert!((1..=22).contains(&q), "TPC-H defines queries 1–22");

    let cat = tpch_catalog();
    let stats = mpq_bench::sample_stats();
    let plan = query_plan(&cat, q);
    println!("== TPC-H Q{q} plan ==");
    println!("{}", plan.display(&cat));

    for scenario in Scenario::ALL {
        let env = build_scenario(&cat, scenario);
        let opt = optimize(
            &plan,
            &cat,
            stats,
            &env,
            &CapabilityPolicy::tpch_evaluation(),
            Strategy::CostDp,
        )
        .expect("each scenario admits at least the all-user assignment");
        println!("== {} ==", scenario.name());
        let mut per_subject: std::collections::HashMap<&str, usize> = Default::default();
        for id in plan.postorder() {
            if plan.node(id).children.is_empty() {
                continue;
            }
            let s = opt.assignment.get(id).expect("assigned");
            *per_subject.entry(env.subjects.name(s)).or_default() += 1;
        }
        let mut counts: Vec<_> = per_subject.into_iter().collect();
        counts.sort();
        println!("  operators per subject: {counts:?}");
        println!(
            "  encryption ops: {}  decryption ops: {}  keys: {}",
            opt.extended.encryption_ops(),
            opt.extended.decryption_ops(),
            opt.keys.keys.len(),
        );
        println!(
            "  cost: cpu ${:.6} + io ${:.6} + net ${:.6} = ${:.6}  (est. {:.1}s)",
            opt.cost.cpu,
            opt.cost.io,
            opt.cost.net,
            opt.cost.total(),
            opt.cost.time_secs,
        );
    }
}
