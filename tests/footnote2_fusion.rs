//! Footnote 2 of the paper: "a subject that knows the key can evaluate
//! the condition on plaintext and encrypt only the resulting tuples."
//! The engine implements this as *fusion*: when a `Select` sits
//! directly on an `Encrypt` and both are assigned to the same subject,
//! the assignee filters the plaintext first and encrypts only the
//! survivors — at their **original row offsets**, so the ciphertext of
//! every surviving cell is bit-identical to the unfused run and the
//! reordering is observationally invisible.
//!
//! These tests sweep Λ assignments of the running example to find
//! extended plans that actually contain fusion sites (the Fig. 7(a)
//! fixture assignment does not produce one — the spliced Encrypt lands
//! above the selection), then differentially execute each such plan
//! with fusion on and off across both runtimes, demanding identical
//! decrypted rows and *exactly equal* per-edge byte counts. The pinned
//! before/after delta for every swept plan — including the Fig. 7(a)
//! fixture itself — is 0 bytes.

use mpq::core::candidates::{candidates, Candidates};
use mpq::core::capability::CapabilityPolicy;
use mpq::core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq::core::fixtures::RunningExample;
use mpq::core::keys::plan_keys;
use mpq::dist::{Report, Session, SessionConfig};
use mpq::exec::{fused_encrypt_child, Database};
use proptest::prelude::*;

fn sample_db(ex: &RunningExample) -> Database {
    let mut db = Database::new();
    db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
    db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
    db
}

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

/// The fusion sites of an extended plan: Encrypt nodes whose parent
/// Select is fusible (engine predicate) and shares their assignee.
/// This mirrors `mpq_dist::session::fusion_sites` from the outside.
fn fusion_sites(ext: &ExtendedPlan) -> Vec<mpq::algebra::NodeId> {
    let mut out = Vec::new();
    for id in ext.plan.postorder() {
        if let Some(enc_id) = fused_encrypt_child(&ext.plan, id) {
            if ext.assignment.get(&id) == ext.assignment.get(&enc_id) {
                out.push(enc_id);
            }
        }
    }
    out
}

/// Every assignment in the product of Λ candidate sets for the four
/// operations of the running example, paired with its extension.
fn all_extensions(ex: &RunningExample, cands: &Candidates) -> Vec<ExtendedPlan> {
    let ops = ex.operations();
    let sets: Vec<_> = ops.iter().map(|&n| cands.of(n).to_vec()).collect();
    let mut combos = vec![Vec::new()];
    for set in &sets {
        let mut next = Vec::new();
        for combo in &combos {
            for &s in set {
                let mut c = combo.clone();
                c.push(s);
                next.push(c);
            }
        }
        combos = next;
    }
    combos
        .into_iter()
        .map(|combo| {
            let mut assignment = Assignment::new();
            for (&node, &subj) in ops.iter().zip(&combo) {
                assignment.set(node, subj);
            }
            minimally_extend(
                &ex.plan,
                &ex.catalog,
                &ex.policy,
                &ex.subjects,
                cands,
                &assignment,
                Some(ex.subject("U")),
            )
            .expect("assignments drawn from Λ extend (Theorem 5.2)")
        })
        .collect()
}

fn run_pair(
    ex: &RunningExample,
    db: &Database,
    ext: &ExtendedPlan,
    seed: u64,
    sequential: bool,
    fuse: bool,
) -> Report {
    let keys = plan_keys(ext);
    let user = ex.subject("U");
    let config = SessionConfig::new(seed).fuse(fuse);
    let mut session = Session::open_with(&ex.catalog, &ex.subjects, &ex.policy, db, config);
    if sequential {
        session
            .execute_sequential(ext, &keys, user)
            .expect("authorized run")
    } else {
        session.execute(ext, &keys, user).expect("authorized run")
    }
}

fn assert_identical(fused: &Report, plain: &Report) {
    assert_eq!(fused.result.attrs().to_vec(), plain.result.attrs().to_vec());
    assert_eq!(fused.result.len(), plain.result.len(), "row count diverged");
    for (a, b) in fused.result.to_rows().iter().zip(&plain.result.to_rows()) {
        for (x, y) in a.iter().zip(b) {
            assert!(x.sql_eq(y), "cell diverged: {x:?} vs {y:?}");
        }
    }
    // Footnote 2 must never *increase* any per-edge byte count; with
    // original-offset ciphertexts it in fact changes none of them.
    assert_eq!(&fused.transfers, &plain.transfers);
    assert_eq!(fused.requests, plain.requests);
    assert_eq!(fused.total_bytes(), plain.total_bytes());
}

/// Λ of the running example contains assignments whose minimal
/// extension has a same-assignee Select-over-Encrypt — footnote 2 is
/// reachable, not dead code — and for every such plan the reordered
/// execution is bit-identical in rows and bytes (delta = 0) in both
/// runtimes.
#[test]
fn fusion_sites_exist_and_reordering_is_invisible() {
    let ex = RunningExample::new();
    let db = sample_db(&ex);
    let cands = lambda(&ex);

    let exts = all_extensions(&ex, &cands);
    let fused_exts: Vec<_> = exts
        .iter()
        .filter(|ext| !fusion_sites(ext).is_empty())
        .collect();
    assert!(
        !fused_exts.is_empty(),
        "no assignment in Λ produces a footnote-2 fusion site \
         ({} extensions swept)",
        exts.len()
    );

    // Differentially execute a bounded sample of the fused plans.
    for ext in fused_exts.iter().take(6) {
        for sequential in [true, false] {
            let fused = run_pair(&ex, &db, ext, 7, sequential, true);
            let plain = run_pair(&ex, &db, ext, 7, sequential, false);
            assert_identical(&fused, &plain);
        }
    }
}

/// The Fig. 7(a) fixture plan, before/after footnote 2: pinned byte
/// delta of exactly 0 on every edge (the fixture's spliced Encrypt
/// lands above its Select, so fusion has nothing to reorder — the
/// invariant still has to hold).
#[test]
fn fig7a_before_after_byte_delta_is_zero() {
    let ex = RunningExample::new();
    let db = sample_db(&ex);
    let ext = ex.fig7a_extended();

    let fused = run_pair(&ex, &db, &ext, 2026, true, true);
    let plain = run_pair(&ex, &db, &ext, 2026, true, false);
    let delta = fused.total_bytes() as i64 - plain.total_bytes() as i64;
    assert_eq!(delta, 0, "footnote-2 reordering changed Fig. 7(a) bytes");
    assert_identical(&fused, &plain);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random data, random Λ assignment, random seed: fusion on vs off
    /// is observationally identical — same decrypted rows, same bytes
    /// on every edge — in the sequential reference interpreter.
    #[test]
    fn reordered_plans_are_bit_identical(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 4..9),
        choice in proptest::collection::vec(any::<u16>(), 4),
    ) {
        let ex = RunningExample::new();
        let diagnoses = ["stroke", "flu", "fracture"];
        let treatments = ["tPA", "rest", "surgery"];
        let mut hosp = Vec::new();
        let mut ins = Vec::new();
        for (i, &p) in picks.iter().enumerate() {
            let name = format!("patient{i}");
            let birth = mpq::algebra::Date::parse("1970-01-01").unwrap();
            hosp.push(vec![
                mpq::algebra::Value::str(&name),
                mpq::algebra::Value::Date(birth),
                mpq::algebra::Value::str(diagnoses[(p % 3) as usize]),
                mpq::algebra::Value::str(treatments[((p >> 2) % 3) as usize]),
            ]);
            ins.push(vec![
                mpq::algebra::Value::str(&name),
                mpq::algebra::Value::Num(50.0 + f64::from(p) * 1.5),
            ]);
        }
        let mut db = Database::new();
        db.load(&ex.catalog, "Hosp", hosp);
        db.load(&ex.catalog, "Ins", ins);

        let cands = lambda(&ex);
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

        let fused = run_pair(&ex, &db, &ext, seed, true, true);
        let plain = run_pair(&ex, &db, &ext, seed, true, false);
        prop_assert_eq!(fused.result.len(), plain.result.len());
        for (a, b) in fused.result.to_rows().iter().zip(&plain.result.to_rows()) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!(x.sql_eq(y), "cell diverged: {:?} vs {:?}", x, y);
            }
        }
        prop_assert_eq!(&fused.transfers, &plain.transfers);
        prop_assert_eq!(fused.total_bytes(), plain.total_bytes());
    }
}
