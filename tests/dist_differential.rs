//! Differential property test: a [`Session`] run of a random
//! authorized plan returns what the plaintext row oracle
//! (`mpq::exec::rowref::execute_ref`) computes from the query plan over
//! the same database, for random seeds, random data and random
//! assignments drawn from Λ (which produce structurally different
//! extended plans: different crypto operators, different wire graphs,
//! different key plans).
//!
//! A second session opened with the same seed must then report the
//! same per-edge data bytes ([`Report::data_bytes`]) and the same
//! request count. Byte equality per edge is the ciphertext-sensitive
//! check — encrypted cell widths depend on the exact ciphertext bytes
//! produced (Paillier cells shed leading zero bytes), so a single
//! diverging ciphertext shows up in the byte accounting.
//!
//! [`Report::data_bytes`]: mpq::dist::Report::data_bytes

use mpq::algebra::Value;
use mpq::core::candidates::{candidates, Candidates};
use mpq::core::capability::CapabilityPolicy;
use mpq::core::extend::{minimally_extend, Assignment};
use mpq::core::fixtures::RunningExample;
use mpq::core::keys::plan_keys;
use mpq::crypto::keyring::KeyRing;
use mpq::dist::Session;
use mpq::exec::rowref::execute_ref;
use mpq::exec::{Database, ExecCtx, SchemePlan};
use proptest::prelude::*;
use std::collections::HashMap;

/// Load `Hosp`/`Ins` with `n` patients whose diagnoses and premiums
/// are drawn from `picks` (one byte of entropy per patient).
fn load_random(ex: &RunningExample, picks: &[u8]) -> Database {
    let diagnoses = ["stroke", "flu", "fracture"];
    let treatments = ["tPA", "rest", "surgery"];
    let mut db = Database::new();
    let mut hosp = Vec::new();
    let mut ins = Vec::new();
    for (i, &p) in picks.iter().enumerate() {
        let name = format!("patient{i}");
        let birth = mpq::algebra::Date::parse("1970-01-01").unwrap();
        hosp.push(vec![
            Value::str(&name),
            Value::Date(birth),
            Value::str(diagnoses[(p % 3) as usize]),
            Value::str(treatments[((p >> 2) % 3) as usize]),
        ]);
        ins.push(vec![
            Value::str(&name),
            Value::Num(50.0 + f64::from(p) * 1.5),
        ]);
    }
    db.load(&ex.catalog, "Hosp", hosp);
    db.load(&ex.catalog, "Ins", ins);
    db
}

/// Λ for the running example's four operations.
fn lambda(ex: &RunningExample) -> Candidates {
    candidates(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &CapabilityPolicy::default(),
        true,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Theorems 5.2/5.3 say every assignment drawn from Λ extends to an
    /// authorized plan; here we additionally demand that executing that
    /// plan returns the plaintext answer, and the same bytes on every
    /// edge each time it runs under the same seed.
    #[test]
    fn sessions_match_the_plaintext_reference(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 4..9),
        choice in proptest::collection::vec(any::<u16>(), 4),
    ) {
        let ex = RunningExample::new();
        let db = load_random(&ex, &picks);
        let cands = lambda(&ex);

        // Draw one candidate per operation — a random point of Λ.
        let mut assignment = Assignment::new();
        for (node, c) in ex.operations().into_iter().zip(&choice) {
            let set = cands.of(node);
            prop_assert!(!set.is_empty(), "Λ empty for {node}");
            assignment.set(node, set[*c as usize % set.len()]);
        }
        let ext = minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &assignment,
            Some(ex.subject("U")),
        )
        .expect("assignments drawn from Λ extend (Theorem 5.2)");
        let keys = plan_keys(&ext);
        let user = ex.subject("U");
        let run = || {
            Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, seed)
                .execute(&ext, &keys, user)
                .expect("authorized run")
        };
        let first = run();

        // Result equivalence with the plaintext oracle, row by row;
        // Paillier sums come back as fixed-point numerics.
        let (ring, schemes, koa) = (KeyRing::new(), SchemePlan::default(), HashMap::new());
        let ctx = ExecCtx::new(&ex.catalog, &db, &ring, &schemes, &koa);
        let reference = execute_ref(&ex.plan, &ctx).expect("plaintext run");
        prop_assert_eq!(first.result.attrs().to_vec(), reference.attrs().to_vec());
        prop_assert_eq!(first.result.len(), reference.len(), "row count diverged");
        for (a, b) in first.result.to_rows().iter().zip(&reference.to_rows()) {
            for (x, y) in a.iter().zip(b) {
                let close = match (x.as_num(), y.as_num()) {
                    (Some(p), Some(q)) => (p - q).abs() < 1e-6,
                    _ => x.sql_eq(y),
                };
                prop_assert!(close, "cell diverged: {:?} vs {:?}", x, y);
            }
        }

        // The same seed, the same data bytes on every edge and the
        // same requests.
        let second = run();
        prop_assert_eq!(first.data_bytes(), second.data_bytes());
        prop_assert_eq!(first.requests, second.requests);
    }
}
