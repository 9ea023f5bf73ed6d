//! Pins the current Figure 10 calibration.
//!
//! With the statistics-driven cost model (statistics measured
//! directly from the full SF 1 database, measured price-book
//! constants, per-edge network pricing — see `mpq_planner::pricing`
//! and the README's calibration section) and the *searched* UAPmix
//! attribute split (`mpq_planner::scenario::UAPMIX_HEAD_FILL`: key
//! columns always encrypted, plaintext half filled head-first for
//! `part`/`supplier` and tail-first elsewhere — the output of
//! `cargo run -p mpq-fuzz --bin search_split --release`), the
//! reproduction reports **55.2% (UAPenc)** and **77.0% (UAPmix)**
//! cumulative savings versus UA, against the paper's 54.2% and 71.3%.
//! Earlier calibrations read 53.0%/88.5%: the overshoot came from a
//! split that kept every join key in the providers' plaintext half,
//! letting provider-side joins skip encryption entirely; the searched
//! split closed most of that gap (to 53.6%/75.0%; the paper's own
//! split is unpublished, so the residual is irreducible without it —
//! see `mpq_planner::pricing`). The pins then moved to today's values
//! when symmetric encryption became ~7× cheaper (`SYM_ENC_SECS`
//! 5.2e-7 → 7.0e-8, ciphertext columns): what a provider saves is
//! bought with the authority's on-the-fly encryption, so cheaper
//! encryption widens both savings — §7's own argument.
//!
//! Two tiers:
//!
//! * **sample mode** (default `cargo test`): SF 0.02 statistics via
//!   [`mpq_bench::sample_stats`] — fast enough for tier 1, pinned at
//!   its own measured numbers;
//! * **exact mode** (`#[ignore]`, the CI `figure10` job): full SF 1
//!   statistics, pinning the headline numbers above.
//!
//! These tests exist so that any change to the cost model, the price
//! book, or the cardinality path moves these numbers *deliberately*:
//! recalibrate (`cargo run -p mpq-bench --bin calibrate --release`)
//! and update the pins in the same PR that improves (or regresses)
//! the savings, with the why in the commit.

use mpq_bench::{all_costs, all_costs_with, sample_stats};
use mpq_planner::Strategy;

fn totals_to_savings(rows: &[[f64; 3]]) -> (f64, f64) {
    let mut totals = [0.0f64; 3];
    for row in rows {
        for k in 0..3 {
            totals[k] += row[k];
        }
    }
    (
        1.0 - totals[1] / totals[0], // UAPenc vs UA
        1.0 - totals[2] / totals[0], // UAPmix vs UA
    )
}

fn savings() -> (f64, f64) {
    totals_to_savings(&all_costs(Strategy::CostDp))
}

/// The fast tier-1 pin: SF 0.02 sampled statistics. The absolute
/// numbers differ from the SF 1 run (sampled histograms and scaled
/// population counts shift assignment decisions on a few queries), so
/// this pins its own measured values — what it guards is the *model*:
/// any cost-model or scenario change that moves Figure 10 trips this
/// test in the default suite, not just in nightly CI.
#[test]
fn figure10_sample_mode_savings_are_pinned() {
    let (enc, mix) = totals_to_savings(&all_costs_with(sample_stats(), Strategy::CostDp));
    assert!(
        (enc - SAMPLE_ENC).abs() < 0.005,
        "sample-mode UAPenc saving drifted: {:.1}% (pinned at {:.1}%) — if this is a \
         deliberate cost-model change, update the pin here and the SF 1 pins in the same PR",
        enc * 100.0,
        SAMPLE_ENC * 100.0
    );
    assert!(
        (mix - SAMPLE_MIX).abs() < 0.005,
        "sample-mode UAPmix saving drifted: {:.1}% (pinned at {:.1}%) — if this is a \
         deliberate cost-model change, update the pin here and the SF 1 pins in the same PR",
        mix * 100.0,
        SAMPLE_MIX * 100.0
    );
}

/// Sample-mode (SF 0.02) pinned savings.
const SAMPLE_ENC: f64 = 0.556;
const SAMPLE_MIX: f64 = 0.776;

#[test]
#[ignore = "generates the full SF 1 database; run in release via the CI figure10 job             (cargo test -p mpq-bench --test figure10_pin --release -- --include-ignored)"]
fn figure10_savings_are_pinned() {
    let (enc, mix) = savings();
    // Half-a-point tolerance: loose enough for float noise, tight
    // enough that any real cost-model change trips it.
    assert!(
        (enc - 0.552).abs() < 0.005,
        "UAPenc saving drifted: {:.1}% (pinned at 55.2%) — if this is a deliberate \
         calibration change, update the pin and the pricing docs together",
        enc * 100.0
    );
    assert!(
        (mix - 0.770).abs() < 0.005,
        "UAPmix saving drifted: {:.1}% (pinned at 77.0%) — if this is a deliberate \
         calibration change, update the pin and the pricing docs together",
        mix * 100.0
    );
}

#[test]
#[ignore = "generates the full SF 1 database; run in release via the CI figure10 job"]
fn figure10_savings_meet_reproduction_targets() {
    let (enc, mix) = savings();
    // The acceptance floor for the §7 reproduction: the calibrated
    // model must keep the headline savings in the paper's regime —
    // including the issue's ceiling on the UAPmix overshoot (≤ 80%).
    assert!(enc >= 0.40, "UAPenc saving {:.1}% below 40%", enc * 100.0);
    assert!(mix >= 0.60, "UAPmix saving {:.1}% below 60%", mix * 100.0);
    assert!(mix <= 0.80, "UAPmix saving {:.1}% above 80%", mix * 100.0);
}
