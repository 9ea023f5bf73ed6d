//! Replay of the minimized fuzz-corpus seeds as deterministic tier-1
//! tests. Every file under `tests/fuzz_corpus/` is one divergence (or
//! representative coverage point) shrunk to its seed: the generator is
//! a pure function of the seed, so replaying it reconstructs the exact
//! world — catalog, policy, data, plan, Λ draw, and mutation — that
//! originally exposed the behavior. `mpq-lint` enforces that every
//! corpus file is referenced here (no orphaned seeds).

use mpq::dist::{Session, SessionConfig, SimError};
use mpq::exec::ExecError;
use mpq_core::verify::Code;
use mpq_fuzz::{extend_world, run_scenario, Mutation, Outcome, World};

/// Parse a corpus file: comment lines (`#`) describe the scenario, the
/// remaining line is the seed.
fn corpus_seed(contents: &str) -> u64 {
    contents
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .expect("corpus file has a seed line")
        .parse()
        .expect("corpus seed is a u64")
}

fn replay(contents: &str) -> Outcome {
    let seed = corpus_seed(contents);
    let r = run_scenario(seed);
    if let Outcome::Divergence(why) = &r.outcome {
        panic!("seed {seed} diverged: {why}");
    }
    r.outcome
}

fn assert_accepted(contents: &str) {
    assert!(
        matches!(replay(contents), Outcome::Accepted { .. }),
        "expected the four ways to agree on acceptance"
    );
}

fn assert_rejected(contents: &str, expect: &[Code]) {
    match replay(contents) {
        Outcome::Rejected { codes } => {
            for c in expect {
                assert!(codes.contains(c), "expected {c:?} among {codes:?}");
            }
        }
        other => panic!("expected a coherent reject, got {other:?}"),
    }
}

/// The Fig. 2 γ rule regression: COUNT over an encrypted column is a
/// plaintext integer — the extension must not decrypt it, and all four
/// ways must agree the plan is authorized and executable.
#[test]
fn count_over_encrypted_column_is_plaintext() {
    assert_accepted(include_str!("fuzz_corpus/count_plaintext_output_a.seed"));
    assert_accepted(include_str!("fuzz_corpus/count_plaintext_output_b.seed"));
    assert_accepted(include_str!("fuzz_corpus/count_plaintext_output_c.seed"));
}

/// A rich accepted world: join + group-by + providers, rows and bytes
/// identical across both runtimes and the plaintext reference.
#[test]
fn accepted_world_agrees_four_ways() {
    assert_accepted(include_str!("fuzz_corpus/accept_join_groupby.seed"));
}

/// Assignment faults: static MPQ008 matches the dynamic refusal.
#[test]
fn bad_assignment_rejected_consistently() {
    assert_rejected(
        include_str!("fuzz_corpus/reject_bad_assignment.seed"),
        &[Code::BadAssignment],
    );
}

/// Stripped key-cluster holders: static MPQ003 matches the dynamic
/// missing-key failure.
#[test]
fn key_unavailable_rejected_consistently() {
    assert_rejected(
        include_str!("fuzz_corpus/reject_key_unavailable.seed"),
        &[Code::KeyUnavailable],
    );
}

/// Out-of-Λ reassignment: static MPQ001/MPQ002 matches the dynamic
/// Def. 4.1 re-check.
#[test]
fn unauthorized_assignee_rejected_consistently() {
    assert_rejected(
        include_str!("fuzz_corpus/reject_unauthorized.seed"),
        &[Code::UnauthorizedAssignee],
    );
}

/// A join-side Encrypt dropped after extension: static MPQ009 matches
/// the engine's typed refusal at the join, on the in-proc runtime
/// without pre-flight (the harness holds the TCP one to it).
#[test]
fn dropped_join_side_encrypt_rejected_consistently() {
    let contents = include_str!("fuzz_corpus/reject_mixed_form.seed");
    assert_rejected(contents, &[Code::MixedForm]);
    let seed = corpus_seed(contents);
    let w = World::generate(seed);
    assert!(matches!(
        w.mutation,
        Some(Mutation::DropJoinSideEncrypt { .. })
    ));
    let (ext, keys) = extend_world(&w).expect("a Λ draw extends");
    let config = SessionConfig::new(seed).without_preflight();
    let mut session = Session::open_with(&w.catalog, &w.subjects, &w.policy, &w.db, config);
    let run = session.execute(&ext, &keys, w.user);
    assert!(
        matches!(run, Err(SimError::Exec(ExecError::MixedForm { .. }))),
        "expected the engine's mixed-form refusal, got {:?}",
        run.err()
    );
}

/// The committed nightly coverage floor stays well-formed: every line
/// names a known axis with a plausible cardinality, so a typo cannot
/// silently disable the nightly regression gate (which treats unknown
/// axes as fatal but would accept an empty file).
#[test]
fn coverage_floor_file_is_well_formed() {
    let text = include_str!("fuzz_corpus/coverage_floor.txt");
    // (axis, max cardinality) — must mirror VerifyCoverage's axes.
    let axes = [
        ("def41_pass", 3),
        ("def41_fail", 3),
        ("cluster_shapes", 9),
        ("schemes", 5),
        ("mixed_form", 2),
        ("codes", 9),
    ];
    let mut seen = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (axis, n) = line.split_once(' ').expect("floor line is `axis N`");
        let n: usize = n.trim().parse().expect("floor count is an integer");
        let (_, max) = axes
            .iter()
            .find(|(a, _)| *a == axis)
            .unwrap_or_else(|| panic!("unknown floor axis {axis}"));
        assert!(
            n >= 1 && n <= *max,
            "floor {axis} {n} out of range 1..={max}"
        );
        seen.push(axis);
    }
    for (axis, _) in axes {
        assert!(seen.contains(&axis), "floor file is missing axis {axis}");
    }
}

/// A short sweep stays divergence-free and covers every Def. 4.1
/// condition outcome — the fast in-repo slice of the nightly fuzz job.
#[test]
fn short_sweep_is_divergence_free() {
    let mut cov = mpq_core::verify::VerifyCoverage::default();
    for seed in 1..=60u64 {
        let r = run_scenario(seed);
        if let Outcome::Divergence(why) = &r.outcome {
            panic!("seed {seed} diverged: {why}");
        }
        cov.merge(&r.coverage);
    }
    assert!(
        cov.def41_pass.iter().all(|b| *b),
        "sweep must observe every Def. 4.1 condition satisfied"
    );
}
