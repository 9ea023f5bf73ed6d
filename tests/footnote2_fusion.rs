//! Footnote 2 of the paper: "a subject that knows the key can evaluate
//! the condition on plaintext and encrypt only the resulting tuples."
//! Nothing switches this on: a subject runs its whole Fig. 8 region as
//! one pipeline, and when a `Select` and the `Encrypt` below it are in
//! the same region the engine filters the plaintext first and encrypts
//! only the survivors — at their **original row offsets**, so every
//! surviving ciphertext is the one the literal plan order produces and
//! the reordering is observationally invisible.
//!
//! These tests sweep Λ assignments of the running example to find
//! extended plans that actually contain such sites (the Fig. 7(a)
//! fixture assignment does not produce one — the spliced Encrypt lands
//! above the selection), then execute each over both transports,
//! demanding the plaintext engine's rows and *exactly equal* per-edge
//! byte counts and request counts. That every table on every edge is
//! byte-identical to a node-at-a-time, encrypt-then-filter walk is
//! pinned where the tables can be seen: `party.rs`'s
//! `regions_ship_byte_for_byte_what_a_node_at_a_time_walk_ships`.

use mpq::core::candidates::{candidates, Candidates};
use mpq::core::capability::CapabilityPolicy;
use mpq::core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq::core::fixtures::RunningExample;
use mpq::core::keys::plan_keys;
use mpq::dist::{Report, Session, SessionConfig, TransportKind};
use mpq::exec::{execute, fused_encrypt_child, Database, ExecCtx, SchemePlan, Table};
use mpq_crypto::keyring::KeyRing;
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
/// Select is fusible (engine predicate) and shares their assignee —
/// that is, sits in the same region.
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

fn run(
    ex: &RunningExample,
    db: &Database,
    ext: &ExtendedPlan,
    seed: u64,
    transport: TransportKind,
) -> Report {
    let keys = plan_keys(ext);
    let user = ex.subject("U");
    let config = SessionConfig::new(seed).transport(transport);
    let mut session = Session::open_with(&ex.catalog, &ex.subjects, &ex.policy, db, config);
    session.execute(ext, &keys, user).expect("authorized run")
}

/// The running example's original plan on the plaintext engine: no
/// subjects, no keys, nothing to reorder.
fn plaintext(ex: &RunningExample, db: &Database) -> Table {
    let (ring, schemes, keys) = (KeyRing::new(), SchemePlan::default(), Default::default());
    let ctx = ExecCtx::new(&ex.catalog, db, &ring, &schemes, &keys);
    execute(&ex.plan, &ctx).expect("plaintext run")
}

/// Order-insensitive: a plan that groups on ciphertext may emit its
/// groups in another order than the plaintext reference.
fn same_rows(got: &Table, want: &Table) -> Result<(), String> {
    if got.attrs() != want.attrs() || got.len() != want.len() {
        return Err(format!("shape diverged: {got:?} vs {want:?}"));
    }
    let sorted = |t: &Table| {
        let mut rows = t.to_rows();
        rows.sort_by_cached_key(|row| format!("{row:?}"));
        rows
    };
    for (a, b) in sorted(got).iter().zip(&sorted(want)) {
        if let Some((x, y)) = a.iter().zip(b).find(|(x, y)| !x.sql_eq(y)) {
            return Err(format!("cell diverged: {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

/// Both transports carry the same regions' tables: same rows, and
/// exactly the same bytes on every edge and the same number of
/// requests.
fn assert_identical(in_proc: &Report, tcp: &Report, want: &Table) {
    same_rows(&in_proc.result, want).unwrap();
    same_rows(&tcp.result, want).unwrap();
    assert_eq!(&in_proc.transfers, &tcp.transfers);
    assert_eq!(in_proc.requests, tcp.requests);
    assert_eq!(in_proc.total_bytes(), tcp.total_bytes());
}

/// Λ of the running example contains assignments whose minimal
/// extension has a same-region Select-over-Encrypt — footnote 2 is
/// reachable, not dead code — and for every such plan the reordered
/// execution returns the plaintext rows, with the same bytes on every
/// edge over both transports.
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
    let want = plaintext(&ex, &db);
    for ext in fused_exts.iter().take(6) {
        let in_proc = run(&ex, &db, ext, 7, TransportKind::InProc);
        let tcp = run(&ex, &db, ext, 7, TransportKind::Tcp);
        assert_identical(&in_proc, &tcp, &want);
    }
}

/// The Fig. 7(a) fixture plan (its spliced Encrypt lands above its
/// Select, so there is nothing to reorder — the invariants still have
/// to hold), with its request count pinned: four regions, Fig. 8's
/// four signed sub-queries.
#[test]
fn fig7a_runs_its_four_regions_identically_under_both_schedulers() {
    let ex = RunningExample::new();
    let db = sample_db(&ex);
    let ext = ex.fig7a_extended();
    assert!(fusion_sites(&ext).is_empty());

    let in_proc = run(&ex, &db, &ext, 2026, TransportKind::InProc);
    let tcp = run(&ex, &db, &ext, 2026, TransportKind::Tcp);
    assert_identical(&in_proc, &tcp, &plaintext(&ex, &db));
    assert_eq!(tcp.requests, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random data, random Λ assignment, random seed: wherever the
    /// cut puts its fusion sites, the run returns the plaintext rows,
    /// and the two transports agree on the bytes of every edge.
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

        let in_proc = run(&ex, &db, &ext, seed, TransportKind::InProc);
        let tcp = run(&ex, &db, &ext, seed, TransportKind::Tcp);
        let want = plaintext(&ex, &db);
        prop_assert_eq!(same_rows(&in_proc.result, &want), Ok(()));
        prop_assert_eq!(same_rows(&tcp.result, &want), Ok(()));
        prop_assert_eq!(&in_proc.transfers, &tcp.transfers);
        prop_assert_eq!(in_proc.requests, tcp.requests);
        prop_assert_eq!(in_proc.total_bytes(), tcp.total_bytes());
    }
}
