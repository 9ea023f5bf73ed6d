//! Differential property tests: the concurrent multi-party runtime
//! (`Session::execute`) must be indistinguishable from the same-thread
//! reference scheduler (`Session::execute_sequential`) — same result
//! rows, same per-edge byte counts, same request count — for random
//! seeds, random data, random assignments drawn from Λ (which produce
//! structurally different extended plans: different crypto operators,
//! different wire graphs, different key plans), **and random worker
//! counts**: the intra-operator data parallelism chunks rows across a
//! pool, and per-(node, column, row)-derived encryption randomness
//! makes the chunking unobservable. Byte equality per edge is the
//! ciphertext-sensitive check — encrypted cell widths depend on the
//! exact ciphertext bytes produced (Paillier cells shed leading zero
//! bytes), so a single diverging ciphertext shows up in the byte
//! accounting.

use mpq::algebra::Value;
use mpq::core::candidates::{candidates, Candidates};
use mpq::core::capability::CapabilityPolicy;
use mpq::core::extend::{minimally_extend, Assignment};
use mpq::core::fixtures::RunningExample;
use mpq::core::keys::plan_keys;
use mpq::dist::{Session, SessionConfig};
use mpq::exec::Database;
use proptest::prelude::*;

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
    /// plan concurrently and sequentially is observationally identical.
    #[test]
    fn concurrent_runtime_matches_sequential(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 4..9),
        choice in proptest::collection::vec(any::<u16>(), 4),
        conc_workers in 1usize..6,
        seq_workers in 1usize..6,
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

        // Independently drawn worker counts on the two sides: thread
        // pools of any size must produce the same bytes.
        let open = |workers| {
            let config = SessionConfig::new(seed).with_workers(workers);
            Session::open_with(&ex.catalog, &ex.subjects, &ex.policy, &db, config)
        };
        let concurrent = open(conc_workers)
            .execute(&ext, &keys, user)
            .expect("authorized concurrent run");
        let sequential = open(seq_workers)
            .execute_sequential(&ext, &keys, user)
            .expect("authorized sequential run");

        // Result equivalence: bit-identical tables (both paths build
        // the same per-node contexts, so even ciphertext-derived floats
        // agree exactly).
        prop_assert_eq!(concurrent.result.attrs().to_vec(), sequential.result.attrs().to_vec());
        prop_assert_eq!(
            concurrent.result.len(),
            sequential.result.len(),
            "row count diverged"
        );
        for (a, b) in concurrent.result.to_rows().iter().zip(&sequential.result.to_rows()) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!(x.sql_eq(y), "cell diverged: {:?} vs {:?}", x, y);
            }
        }

        // Identical wire accounting, edge by edge.
        prop_assert_eq!(&concurrent.transfers, &sequential.transfers);
        prop_assert_eq!(concurrent.requests, sequential.requests);
        prop_assert_eq!(concurrent.total_bytes(), sequential.total_bytes());
    }
}
