//! §5 ablation: minimal extension vs the maximize-/minimize-visibility
//! extremes, by encryption-operation count and total cost (UAPenc).
//!
//! Every column is a plan `optimize` returns through
//! `mpq_planner::finish`: extended by the one walk in
//! `mpq_core::extend`, decrypted for the user, verified, and priced
//! exactly — so each cost is that of a plan the system would run.

use mpq_bench::run_query;
use mpq_planner::{Scenario, Strategy};
use mpq_tpch::QUERY_COUNT;

fn main() {
    println!("# Encryption strategy ablation under UAPenc");
    println!(
        "{:>5} {:>14} {:>14} {:>14}  (cost USD | encrypt ops)",
        "query", "minimal", "min-visibility", "max-visibility"
    );
    for q in 1..=QUERY_COUNT {
        let minimal = run_query(q, Scenario::UAPenc, Strategy::CostDp);
        let min_vis = run_query(q, Scenario::UAPenc, Strategy::MinimizeVisibility);
        let max_vis = run_query(q, Scenario::UAPenc, Strategy::MaximizeVisibility);
        println!(
            "{:>5} {:>9.5}|{:<3} {:>9.5}|{:<3} {:>9.5}|{:<3}",
            q,
            minimal.cost.total(),
            minimal.extended.encryption_ops(),
            min_vis.cost.total(),
            min_vis.extended.encryption_ops(),
            max_vis.cost.total(),
            max_vis.extended.encryption_ops(),
        );
    }
}
