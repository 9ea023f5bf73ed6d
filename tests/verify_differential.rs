//! Differential tests between the static verifier (`mpq_core::verify`)
//! and the runtime enforcement layers (`mpq-dist`'s Def. 4.1 re-check,
//! key ring, and wire audit): the two must agree.
//!
//! * **Clean direction** — any assignment drawn from Λ and minimally
//!   extended verifies clean *and* executes clean, and its decrypted
//!   result equals a plaintext reference execution of the same query:
//!   the verifier has no false positives over the space of plans the
//!   planner can produce, and no plan in that space silently corrupts
//!   the answer (the ROADMAP item 6 mixed-form hazard).
//! * **Dirty direction** — a tampered plan is refused *statically* with
//!   the expected diagnostic code, and (with pre-flight disabled where
//!   the static check would mask it) the *runtime* refuses the same
//!   plan with its own typed error. Across the mutation set at least
//!   five distinct MPQ codes fire, each with static/runtime agreement.

use mpq::algebra::{Date, Operator, Value};
use mpq::core::candidates::{candidates, Candidates};
use mpq::core::capability::CapabilityPolicy;
use mpq::core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq::core::fixtures::RunningExample;
use mpq::core::keys::{plan_keys, KeyPlan};
use mpq::core::verify::Code;
use mpq::core::verify_with_policy;
use mpq::dist::{Session, SessionConfig, SimError};
use mpq::exec::{execute, Database, ExecCtx, SchemePlan};
use mpq_crypto::keyring::KeyRing;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Load `Hosp`/`Ins` with patients drawn from `picks` (one byte of
/// entropy per patient), as in the runtime differential tests.
fn load_random(ex: &RunningExample, picks: &[u8]) -> Database {
    let diagnoses = ["stroke", "flu", "fracture"];
    let treatments = ["tPA", "rest", "surgery"];
    let mut db = Database::new();
    let mut hosp = Vec::new();
    let mut ins = Vec::new();
    for (i, &p) in picks.iter().enumerate() {
        let name = format!("patient{i}");
        let birth = Date::parse("1970-01-01").unwrap();
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

/// Draw one assignment from Λ and minimally extend it.
fn extend_choice(
    ex: &RunningExample,
    cands: &Candidates,
    choice: &[u16],
) -> (ExtendedPlan, KeyPlan) {
    let mut assignment = Assignment::new();
    for (node, c) in ex.operations().into_iter().zip(choice) {
        let set = cands.of(node);
        assignment.set(node, set[*c as usize % set.len()]);
    }
    let ext = minimally_extend(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        cands,
        &assignment,
        Some(ex.subject("U")),
    )
    .expect("assignments drawn from Λ extend (Theorem 5.2)");
    let keys = plan_keys(&ext);
    (ext, keys)
}

fn verify(ex: &RunningExample, ext: &ExtendedPlan, keys: &KeyPlan) -> mpq::core::VerifyReport {
    verify_with_policy(
        ext,
        keys,
        &ex.catalog,
        &ex.subjects,
        &ex.policy,
        Some(ex.subject("U")),
    )
}

/// Execute the *unextended* plan over plaintext data — the ground
/// truth every authorized execution must reproduce.
fn plaintext_reference(ex: &RunningExample, db: &Database) -> Vec<Vec<Value>> {
    let ring = KeyRing::new();
    let schemes = SchemePlan::default();
    let koa = HashMap::new();
    let ctx = ExecCtx::new(&ex.catalog, db, &ring, &schemes, &koa);
    sorted(
        execute(&ex.plan, &ctx)
            .expect("plaintext reference executes")
            .to_rows(),
    )
}

/// Order-insensitive row comparison: group emission order may differ
/// between a plan that groups on ciphertext and the plaintext
/// reference.
fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// The first Encrypt node with a non-empty attribute list, if any.
fn some_encrypt(ext: &ExtendedPlan) -> Option<mpq::algebra::NodeId> {
    ext.plan.postorder().into_iter().find(
        |&id| matches!(&ext.plan.node(id).op, Operator::Encrypt { attrs } if !attrs.is_empty()),
    )
}

/// A session with the static pre-flight off: only the dynamic
/// defenses (per-node Def. 4.1 re-check, wire audit, key rings) stand
/// between a bad plan and the data.
fn dynamic_only(ex: &RunningExample, db: &Database, seed: u64) -> Session {
    let config = SessionConfig::new(seed).without_preflight();
    Session::open_with(&ex.catalog, &ex.subjects, &ex.policy, db, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// No false positives: every plan the planner can produce (any
    /// assignment from Λ, minimally extended) verifies clean, and the
    /// clean static verdict agrees with the runtime — the simulator
    /// (pre-flight *enabled*, so the verifier itself is in the path)
    /// executes it without error.
    #[test]
    fn clean_plans_verify_clean_and_execute(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 4..9),
        choice in proptest::collection::vec(any::<u16>(), 4),
    ) {
        let ex = RunningExample::new();
        let db = load_random(&ex, &picks);
        let cands = lambda(&ex);
        let (ext, keys) = extend_choice(&ex, &cands, &choice);

        let report = verify(&ex, &ext, &keys);
        prop_assert!(report.is_clean(), "false positive on a Λ-drawn plan:\n{}", report);

        let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, seed);
        let run = sim.execute(&ext, &keys, ex.subject("U"));
        prop_assert!(run.is_ok(), "clean plan refused at runtime: {:?}", run.err());

        // Strict correctness, not just absence of errors: the decrypted
        // result must equal the plaintext reference. This is the check
        // that catches silently-empty mixed-form joins.
        prop_assert_eq!(
            sorted(run.unwrap().result.to_rows()),
            plaintext_reference(&ex, &db),
            "clean plan's result diverges from the plaintext reference"
        );
    }

    /// No false negatives on the mutation set: each tampering applied
    /// to a Λ-drawn plan is (a) refused statically with the expected
    /// code and (b) refused by the runtime with the matching typed
    /// error — static verdict and runtime outcome agree on every
    /// mutant.
    #[test]
    fn mutated_plans_are_rejected_statically_and_dynamically(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 4..9),
        choice in proptest::collection::vec(any::<u16>(), 4),
    ) {
        let ex = RunningExample::new();
        let db = load_random(&ex, &picks);
        let cands = lambda(&ex);
        let (ext, keys) = extend_choice(&ex, &cands, &choice);
        let user = ex.subject("U");

        // M1: reassign the final plaintext `avg(P) > 100` to provider
        // X, which can never see P in plaintext. MPQ001 statically;
        // the Def. 4.1 re-check refuses it at runtime.
        {
            let mut bad = ext.clone();
            bad.assignment.insert(ex.node("having"), ex.subject("X"));
            let report = verify(&ex, &bad, &keys);
            prop_assert!(report.has(Code::UnauthorizedAssignee), "{}", report);
            let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, seed);
            prop_assert!(matches!(
                sim.execute(&bad, &keys, user),
                Err(SimError::Unauthorized { .. })
            ));
        }

        // M2: strip every key holder, so Def. 6.1 hands nobody the
        // material. MPQ003 statically; at runtime (pre-flight off, else
        // the verifier masks the behavior) either the executing party's
        // key ring refuses, or — when the plan rewrites a literal over
        // a source-encrypted attribute — dispatch-time rewriting does.
        if !keys.keys.is_empty() {
            let mut weak = keys.clone();
            for key in &mut weak.keys {
                key.holders.clear();
            }
            let report = verify(&ex, &ext, &weak);
            prop_assert!(report.has(Code::KeyUnavailable), "{}", report);
            let mut sim = dynamic_only(&ex, &db, seed);
            let run = sim.execute(&ext, &weak, user);
            prop_assert!(
                matches!(
                    run,
                    Err(SimError::Exec(mpq::exec::ExecError::MissingKey { .. })
                        | SimError::Rewrite(_))
                ),
                "expected a missing-key refusal, got {:?}",
                run.err()
            );
        }

        // M3: drop an assignment entirely. MPQ008 statically; the
        // dispatcher refuses the unassigned node at runtime.
        {
            let mut bad = ext.clone();
            bad.assignment.remove(&ex.node("join"));
            let report = verify(&ex, &bad, &keys);
            prop_assert!(report.has(Code::BadAssignment), "{}", report);
            let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, seed);
            prop_assert!(matches!(
                sim.execute(&bad, &keys, user),
                Err(SimError::Unassigned(_))
            ));
        }

        // M4: weaken an Encrypt node so plaintext flows where the
        // (stale) profiles still claim ciphertext. The N-version flow
        // cross-check always fires (MPQ007), and the re-derived flow
        // shows the Def. 4.1 damage — either a plaintext edge leak
        // (MPQ002) or an assignee violation such as a non-uniform
        // equivalence class (MPQ001). At runtime the wire audit refuses
        // the actual cells (pre-flight off) — *when cells actually
        // flow*: a physically empty intermediate (e.g. a join that
        // matched nothing) gives the cell-level audit nothing to see,
        // in which case the run must still produce the *correct*
        // answer — equality against the plaintext reference, not
        // against another (possibly equally wrong) extended run. The
        // static verifier is strictly stronger there, which is its
        // purpose.
        if let Some(enc) = some_encrypt(&ext) {
            let mut bad = ext.clone();
            bad.plan.node_mut(enc).op = Operator::Encrypt { attrs: vec![] };
            let report = verify(&ex, &bad, &keys);
            prop_assert!(report.has(Code::FlowDivergence), "{}", report);
            prop_assert!(
                report.has(Code::PlaintextLeak) || report.has(Code::UnauthorizedAssignee),
                "{}",
                report
            );
            let mut sim = dynamic_only(&ex, &db, seed);
            match sim.execute(&bad, &keys, user) {
                Err(_) => {}
                Ok(run) => {
                    prop_assert_eq!(
                        sorted(run.result.to_rows()),
                        plaintext_reference(&ex, &db),
                        "audit-silent mutant diverged from the plaintext reference"
                    );
                }
            }
        }
    }
}

/// The mutation set exercises at least five distinct diagnostic codes,
/// each with static/runtime agreement — pinned deterministically on
/// Fig. 7(a), where every mutation is applicable (keys exist, an
/// Encrypt node exists) and the runtime error is exact.
#[test]
fn mutations_fire_five_distinct_codes_with_runtime_agreement() {
    let ex = RunningExample::new();
    let db = load_random(&ex, &[3, 17, 40, 91, 200]);
    let ext = ex.fig7a_extended();
    let keys = plan_keys(&ext);
    let user = ex.subject("U");
    let mut fired: BTreeSet<Code> = BTreeSet::new();

    // MPQ001: unauthorized reassignment ↔ SimError::Unauthorized.
    let mut bad = ext.clone();
    bad.assignment.insert(ex.node("having"), ex.subject("X"));
    let report = verify(&ex, &bad, &keys);
    assert!(report.has(Code::UnauthorizedAssignee), "{report}");
    fired.extend(report.codes());
    let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 61);
    assert!(matches!(
        sim.execute(&bad, &keys, user),
        Err(SimError::Unauthorized { .. })
    ));

    // MPQ003: stripped key holders ↔ ExecError::MissingKey.
    let mut weak = keys.clone();
    for key in &mut weak.keys {
        key.holders.clear();
    }
    let report = verify(&ex, &ext, &weak);
    assert!(report.has(Code::KeyUnavailable), "{report}");
    fired.extend(report.codes());
    let mut sim = dynamic_only(&ex, &db, 67);
    assert!(matches!(
        sim.execute(&ext, &weak, user),
        Err(SimError::Exec(mpq::exec::ExecError::MissingKey { .. }))
    ));

    // MPQ008: missing assignment ↔ SimError::Unassigned.
    let mut bad = ext.clone();
    bad.assignment.remove(&ex.node("join"));
    let report = verify(&ex, &bad, &keys);
    assert!(report.has(Code::BadAssignment), "{report}");
    fired.extend(report.codes());
    let mut sim = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 71);
    assert!(matches!(
        sim.execute(&bad, &keys, user),
        Err(SimError::Unassigned(_))
    ));

    // MPQ007 + MPQ002: weakened Encrypt ↔ SimError::LeakedPlaintext.
    let enc = some_encrypt(&ext).expect("fig7a encrypts S");
    let mut bad = ext.clone();
    bad.plan.node_mut(enc).op = Operator::Encrypt { attrs: vec![] };
    let report = verify(&ex, &bad, &keys);
    assert!(report.has(Code::FlowDivergence), "{report}");
    assert!(report.has(Code::PlaintextLeak), "{report}");
    fired.extend(report.codes());
    let mut sim = dynamic_only(&ex, &db, 73);
    assert!(matches!(
        sim.execute(&bad, &keys, user),
        Err(SimError::LeakedPlaintext { .. })
    ));

    assert!(
        fired.len() >= 5,
        "expected ≥5 distinct codes, got {fired:?}"
    );
}
