//! `mpq_planner::pricing::calibrated` against the committed
//! `CALIBRATION.json`.
//!
//! The constants are round numbers chosen from a `calibrate` run, not
//! a copy of it: run-to-run noise on the fitted values is ±30 %, and
//! the Figure 10 pins move only when a constant moves by much more.
//! So a perf PR re-runs `calibrate`, commits the JSON, and this test
//! says whether the price book still describes the measured engine —
//! each constant within [`FACTOR`] of its fitted value — instead of
//! every such PR hand-copying eight numbers.

use mpq_planner::pricing::calibrated;

/// How far a committed constant may sit from the committed measurement.
const FACTOR: f64 = 3.0;

/// The number behind the first `"key":` at or after `anchor`.
fn number_after(text: &str, anchor: &str, key: &str) -> f64 {
    let from = text
        .find(anchor)
        .unwrap_or_else(|| panic!("no {anchor} in CALIBRATION.json"));
    let pat = format!("\"{key}\":");
    let at = text[from..]
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} after {anchor}"));
    let rest = text[from + at + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key} after {anchor} is not a number"))
}

#[test]
fn the_price_book_is_within_a_factor_of_the_committed_calibration() {
    let json = include_str!("../../../CALIBRATION.json");
    let fitted = |anchor: &str, key: &str| number_after(json, anchor, key);
    let checks = [
        (
            "TUPLE_OP_SECS",
            calibrated::TUPLE_OP_SECS,
            fitted("{", "tuple_op_secs"),
        ),
        (
            "PAILLIER_ADD_SECS",
            calibrated::PAILLIER_ADD_SECS,
            fitted("{", "paillier_add_secs"),
        ),
        (
            "SYM_ENC_SECS (Deterministic)",
            calibrated::SYM_ENC_SECS,
            fitted("\"Deterministic\"", "enc_secs"),
        ),
        (
            "SYM_DEC_SECS (Deterministic)",
            calibrated::SYM_DEC_SECS,
            fitted("\"Deterministic\"", "dec_secs"),
        ),
        (
            "SYM_ENC_SECS (Random)",
            calibrated::SYM_ENC_SECS,
            fitted("\"Random\"", "enc_secs"),
        ),
        (
            "SYM_DEC_SECS (Random)",
            calibrated::SYM_DEC_SECS,
            fitted("\"Random\"", "dec_secs"),
        ),
        (
            "OPE_ENC_SECS",
            calibrated::OPE_ENC_SECS,
            fitted("\"Ope\"", "enc_secs"),
        ),
        (
            "OPE_DEC_SECS",
            calibrated::OPE_DEC_SECS,
            fitted("\"Ope\"", "dec_secs"),
        ),
        (
            "PAILLIER_ENC_SECS",
            calibrated::PAILLIER_ENC_SECS,
            fitted("\"Paillier\"", "enc_secs"),
        ),
        (
            "PAILLIER_DEC_SECS",
            calibrated::PAILLIER_DEC_SECS,
            fitted("\"Paillier\"", "dec_secs"),
        ),
    ];
    for (name, constant, fitted) in checks {
        let ratio = constant / fitted;
        assert!(
            (1.0 / FACTOR..=FACTOR).contains(&ratio),
            "calibrated::{name} = {constant:e} is {ratio:.2}× the committed calibration's \
             {fitted:e}: re-fit the constant (and move the Figure 10 pins on purpose) or \
             re-run `calibrate`"
        );
    }
}
