//! End-to-end tests for the distributed-execution simulator
//! (`mpq-dist`): the §6 story actually runs — sub-queries execute at
//! their assigned subjects over real ciphertexts, and the authorization
//! model is enforced *again* at runtime, behaviorally.

use mpq::algebra::{Date, Operator, Value};
use mpq::core::candidates::{candidates, Candidates};
use mpq::core::capability::CapabilityPolicy;
use mpq::core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq::core::fixtures::RunningExample;
use mpq::core::keys::{plan_keys, KeyPlan};
use mpq::dist::{Session, SessionConfig, SimError};
use mpq::exec::{Database, SchemePlan};
use mpq_crypto::keyring::KeyRing;
use std::collections::HashMap;

fn load(ex: &RunningExample) -> Database {
    let mut db = Database::new();
    let d = |s: &str| Value::Date(Date::parse(s).unwrap());
    db.load(
        &ex.catalog,
        "Hosp",
        vec![
            vec![
                Value::str("alice"),
                d("1969-03-01"),
                Value::str("stroke"),
                Value::str("tPA"),
            ],
            vec![
                Value::str("bob"),
                d("1975-07-12"),
                Value::str("stroke"),
                Value::str("tPA"),
            ],
            vec![
                Value::str("carol"),
                d("1981-11-30"),
                Value::str("flu"),
                Value::str("rest"),
            ],
            vec![
                Value::str("dave"),
                d("1958-01-21"),
                Value::str("stroke"),
                Value::str("surgery"),
            ],
            vec![
                Value::str("erin"),
                d("1990-05-05"),
                Value::str("stroke"),
                Value::str("tPA"),
            ],
        ],
    );
    db.load(
        &ex.catalog,
        "Ins",
        vec![
            vec![Value::str("alice"), Value::Num(150.0)],
            vec![Value::str("bob"), Value::Num(210.0)],
            vec![Value::str("carol"), Value::Num(75.0)],
            vec![Value::str("dave"), Value::Num(95.0)],
            vec![Value::str("erin"), Value::Num(180.0)],
        ],
    );
    db
}

fn setup(
    ex: &RunningExample,
    sel: &str,
    join: &str,
    group: &str,
    having: &str,
) -> (Candidates, ExtendedPlan, KeyPlan) {
    let cands = candidates(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &CapabilityPolicy::default(),
        true,
    );
    let mut a = Assignment::new();
    a.set(ex.node("select_d"), ex.subject(sel));
    a.set(ex.node("join"), ex.subject(join));
    a.set(ex.node("group"), ex.subject(group));
    a.set(ex.node("having"), ex.subject(having));
    let ext = minimally_extend(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &cands,
        &a,
        Some(ex.subject("U")),
    )
    .expect("assignment drawn from Λ");
    let keys = plan_keys(&ext);
    (cands, ext, keys)
}

fn centralized_reference(ex: &RunningExample, db: &Database) -> mpq::exec::Table {
    let ring = KeyRing::new();
    let schemes = SchemePlan::default();
    let koa = HashMap::new();
    let ctx = mpq::exec::engine::ExecCtx::new(&ex.catalog, db, &ring, &schemes, &koa);
    mpq::exec::execute(&ex.plan, &ctx).expect("plaintext execution")
}

fn assert_tables_match(a: &mpq::exec::Table, b: &mpq::exec::Table) {
    assert_eq!(a.len(), b.len(), "row count differs");
    for (ra, rb) in a.to_rows().iter().zip(&b.to_rows()) {
        for (x, y) in ra.iter().zip(rb) {
            let close = match (x.as_num(), y.as_num()) {
                (Some(p), Some(q)) => (p - q).abs() < 1e-6,
                _ => x.sql_eq(y),
            };
            assert!(close, "cell mismatch: {x:?} vs {y:?}");
        }
    }
}

/// Fig. 7(a)/Fig. 8 end to end: H, I, X, Y compute over XTEA/Paillier
/// ciphertexts and the user receives exactly the plaintext answer.
#[test]
fn fig7a_distributed_matches_centralized() {
    let ex = RunningExample::new();
    let db = load(&ex);
    let (_, ext, keys) = setup(&ex, "H", "X", "X", "Y");

    let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 2026);
    let report = sim
        .execute(&ext, &keys, ex.subject("U"))
        .expect("authorized run");
    assert_tables_match(&centralized_reference(&ex, &db), &report.result);

    // Fig. 8: four signed requests (one per region).
    assert_eq!(report.requests, 4);

    // The wire graph of Fig. 7(a): H and I feed X, X feeds Y, Y answers
    // to U; the user's signed requests reach all four executors.
    let edge = |from: &str, to: &str| {
        report
            .transfers
            .get(&(ex.subject(from), ex.subject(to)))
            .copied()
            .unwrap_or(0)
    };
    for (f, t) in [("H", "X"), ("I", "X"), ("X", "Y"), ("Y", "U")] {
        assert!(edge(f, t) > 0, "expected bytes on {f} → {t}");
    }
    for executor in ["H", "I", "X", "Y"] {
        assert!(edge("U", executor) > 0, "request envelope U → {executor}");
    }
    assert!(
        edge("H", "Y") == 0 && edge("I", "Y") == 0,
        "no shortcut edges"
    );
    assert_eq!(report.total_bytes(), report.transfers.values().sum());

    // Def. 6.1 key distribution materialized: H and I share k_SC, I and
    // Y share k_P, X holds no full key at all.
    let k_sc = keys.key_for(ex.attr("S")).unwrap().id;
    let k_p = keys.key_for(ex.attr("P")).unwrap().id;
    for (name, key, held) in [
        ("H", k_sc, true),
        ("I", k_sc, true),
        ("I", k_p, true),
        ("Y", k_p, true),
        ("X", k_sc, false),
        ("X", k_p, false),
        ("Y", k_sc, false),
    ] {
        assert_eq!(sim.holds_key(ex.subject(name), key), held, "{name}/k{key}");
    }
}

/// Fig. 7(b): the Z assignment encrypts D at the source, so H evaluates
/// `D = 'stroke'` over *deterministic ciphertexts* with an encrypted
/// literal — and the result still matches plaintext execution.
#[test]
fn fig7b_encrypted_selection_matches_centralized() {
    let ex = RunningExample::new();
    let db = load(&ex);
    let (_, ext, keys) = setup(&ex, "H", "Z", "Z", "Y");
    let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 7);
    let report = sim
        .execute(&ext, &keys, ex.subject("U"))
        .expect("authorized run");
    assert_tables_match(&centralized_reference(&ex, &db), &report.result);
}

/// The all-user baseline: no encryption, three regions (H, I, U), and
/// the same answer.
#[test]
fn all_user_assignment_runs_without_keys() {
    let ex = RunningExample::new();
    let db = load(&ex);
    let (_, ext, keys) = setup(&ex, "U", "U", "U", "U");
    assert!(keys.keys.is_empty());
    let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 3);
    let report = sim
        .execute(&ext, &keys, ex.subject("U"))
        .expect("authorized run");
    assert_tables_match(&centralized_reference(&ex, &db), &report.result);
    assert_eq!(report.requests, 3);
}

/// Same seed → bit-identical report; different seed → same result rows.
#[test]
fn runs_are_deterministic_per_seed() {
    let ex = RunningExample::new();
    let db = load(&ex);
    let (_, ext, keys) = setup(&ex, "H", "X", "X", "Y");
    let run = |seed: u64| {
        let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, seed);
        sim.execute(&ext, &keys, ex.subject("U"))
            .expect("authorized run")
    };
    let (a, b, c) = (run(42), run(42), run(43));
    assert_eq!(a.transfers, b.transfers);
    assert_tables_match(&a.result, &b.result);
    assert_tables_match(&a.result, &c.result);
}

/// Runtime enforcement, statically-detectable case: an assignment whose
/// subject is not authorized (the final plaintext `avg(P) > 100` handed
/// to provider X) is refused before anything executes.
#[test]
fn unauthorized_assignment_is_rejected_at_runtime() {
    let ex = RunningExample::new();
    let db = load(&ex);
    let (_, mut ext, keys) = setup(&ex, "H", "X", "X", "Y");
    // Tamper: reassign the having node to X, bypassing Λ entirely.
    ext.assignment.insert(ex.node("having"), ex.subject("X"));
    let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 11);
    match sim.execute(&ext, &keys, ex.subject("U")) {
        Err(SimError::Unauthorized { subject, .. }) => {
            assert_eq!(subject, ex.subject("X"));
        }
        other => panic!("expected Unauthorized, got {other:?}"),
    }
}

/// A plan tampered so that its `HAVING` names an aggregate its γ lacks
/// (`AggRef(7)` above the one-aggregate `γ T,avg(P)`) is refused with a
/// typed error. The reference used to be an unchecked index: `validate`
/// let it through and `profile_plan` — hence `assign_schemes` and the
/// verifier pre-flight that is there to refuse such a plan — panicked.
#[test]
fn an_out_of_range_aggregate_reference_is_refused_not_indexed() {
    use mpq::algebra::{CmpOp, Expr};
    use mpq::core::verify::Code;
    let ex = RunningExample::new();
    let db = load(&ex);
    let (_, mut ext, keys) = setup(&ex, "H", "X", "X", "Y");
    ext.plan.node_mut(ex.node("having")).op = Operator::Having {
        pred: Expr::cmp(Expr::AggRef(7), CmpOp::Gt, Expr::Lit(Value::Num(100.0))),
    };
    // The analyses under the pre-flight return instead of indexing.
    assert_eq!(
        mpq::core::profile::profile_plan(&ext.plan).len(),
        ext.plan.len()
    );
    let _ = mpq::exec::assign_schemes(&ext.plan);
    assert!(ext.plan.validate(&ex.catalog).is_err());
    let user = ex.subject("U");
    let report = mpq::core::verify_with_policy(
        &ext,
        &keys,
        &ex.catalog,
        &ex.subjects,
        &ex.policy,
        Some(user),
    );
    assert!(report.has(Code::Malformed), "{report}");
    let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 11);
    match sim.execute(&ext, &keys, user) {
        Err(SimError::Verify(report)) => assert!(report.has(Code::Malformed), "{report}"),
        other => panic!("expected the pre-flight to refuse, got {other:?}"),
    }
}

/// Runtime enforcement, behavioral case: strip Y from the holders of
/// k_P (so Def. 6.1 never hands it the key). The static profile checks
/// still pass — but Y's decryption fails for want of the key. The
/// pre-flight verifier would refuse this plan up front (`MPQ003`,
/// asserted below), so the dynamic half runs with pre-flight disabled.
#[test]
fn decryption_without_the_key_fails() {
    let ex = RunningExample::new();
    let db = load(&ex);
    let (_, ext, mut keys) = setup(&ex, "H", "X", "X", "Y");
    let y = ex.subject("Y");
    for key in &mut keys.keys {
        key.holders.retain(|&s| s != y);
    }
    // Static twin: the verifier names the missing holder before any
    // execution.
    let report = mpq::core::verify_with_policy(
        &ext,
        &keys,
        &ex.catalog,
        &ex.subjects,
        &ex.policy,
        Some(ex.subject("U")),
    );
    assert!(
        report.has(mpq::core::verify::Code::KeyUnavailable),
        "{report}"
    );
    // Dynamic twin: with pre-flight off, the key ring itself refuses.
    let mut sim = Session::open_with(
        &ex.catalog,
        &ex.subjects,
        &ex.policy,
        &db,
        SessionConfig::new(13).without_preflight(),
    );
    match sim.execute(&ext, &keys, ex.subject("U")) {
        Err(SimError::Exec(mpq::exec::ExecError::MissingKey { .. })) => {}
        other => panic!("expected MissingKey, got {other:?}"),
    }
}

/// Runtime enforcement, cell-level case: weaken an Encrypt node so the
/// actual rows leak plaintext S while the (stale) profiles still claim
/// it is encrypted — the transfer audit catches it. The pre-flight
/// verifier also catches it up front, via a different route: the stale
/// annotation trips the N-version flow cross-check (`MPQ007`) and the
/// re-derived flow shows plaintext S reaching X (`MPQ002`).
#[test]
fn leaked_plaintext_cells_are_refused_at_the_wire() {
    let ex = RunningExample::new();
    let db = load(&ex);
    let (_, mut ext, keys) = setup(&ex, "H", "X", "X", "Y");
    let s_attr = ex.attr("S");
    let enc_s = ext
        .plan
        .postorder()
        .into_iter()
        .find(|&id| {
            matches!(&ext.plan.node(id).op, Operator::Encrypt { attrs } if attrs == &vec![s_attr])
        })
        .expect("fig7a encrypts S above the selection");
    ext.plan.node_mut(enc_s).op = Operator::Encrypt { attrs: vec![] };
    // Static twin: both the stale annotation and the re-derived leak
    // are reported.
    let report = mpq::core::verify_with_policy(
        &ext,
        &keys,
        &ex.catalog,
        &ex.subjects,
        &ex.policy,
        Some(ex.subject("U")),
    );
    assert!(
        report.has(mpq::core::verify::Code::FlowDivergence),
        "{report}"
    );
    assert!(
        report.has(mpq::core::verify::Code::PlaintextLeak),
        "{report}"
    );
    // Dynamic twin: with pre-flight off, the wire audit refuses the
    // actual cells.
    let mut sim = Session::open_with(
        &ex.catalog,
        &ex.subjects,
        &ex.policy,
        &db,
        SessionConfig::new(17).without_preflight(),
    );
    match sim.execute(&ext, &keys, ex.subject("U")) {
        Err(SimError::LeakedPlaintext { attr, subject }) => {
            assert_eq!(attr, s_attr);
            assert_eq!(subject, ex.subject("X"));
        }
        other => panic!("expected LeakedPlaintext, got {other:?}"),
    }
}

/// A node with no assignee at all is refused up front.
#[test]
fn missing_assignee_is_refused() {
    let ex = RunningExample::new();
    let db = load(&ex);
    let (_, mut ext, keys) = setup(&ex, "H", "X", "X", "Y");
    ext.assignment.remove(&ex.node("join"));
    let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 19);
    match sim.execute(&ext, &keys, ex.subject("U")) {
        Err(SimError::Unassigned(n)) => assert_eq!(n, ex.node("join")),
        other => panic!("expected Unassigned, got {other:?}"),
    }
}

/// The authority partitioning of `Session::open`: H stores Hosp, I
/// stores Ins, nobody else stores anything.
#[test]
fn base_relations_stay_with_their_authorities() {
    let ex = RunningExample::new();
    let db = load(&ex);
    let sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 23);
    let hosp = ex.catalog.relation("Hosp").unwrap().rel;
    let ins = ex.catalog.relation("Ins").unwrap().rel;
    assert_eq!(sim.stored_relations(ex.subject("H")), vec![hosp]);
    assert_eq!(sim.stored_relations(ex.subject("I")), vec![ins]);
    for other in ["U", "X", "Y", "Z"] {
        assert!(sim.stored_relations(ex.subject(other)).is_empty());
    }
}

/// Base relations never leave their authority: a leaf reassigned to a
/// provider is refused before execution, as a typed error (not a
/// missing-table crash).
#[test]
fn leaf_assigned_away_from_its_authority_is_refused() {
    let ex = RunningExample::new();
    let db = load(&ex);
    let (_, mut ext, keys) = setup(&ex, "H", "X", "X", "Y");
    ext.assignment.insert(ex.node("base_hosp"), ex.subject("X"));
    let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 29);
    match sim.execute(&ext, &keys, ex.subject("U")) {
        Err(SimError::NotTheAuthority {
            subject, authority, ..
        }) => {
            assert_eq!(subject, ex.subject("X"));
            assert_eq!(authority, ex.subject("H"));
        }
        other => panic!("expected NotTheAuthority, got {other:?}"),
    }
}
