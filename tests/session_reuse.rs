//! Session-reuse differential tests: a persistent `Session` executing
//! N queries must be observationally equivalent to N fresh one-query
//! sessions — same decrypted results, same data-flow bytes on
//! every edge, same signed-request accounting — while provisioning each
//! Def. 6.1 cluster exactly once.
//!
//! The byte comparison is deliberately split: *data-flow* bytes
//! ([`Report::data_bytes`]) are a deterministic function of the key
//! material and the execution seed, so when the session provisions its
//! clusters at the same RNG position a fresh session would (its first
//! query), every later query's ciphertexts — and hence per-edge byte
//! counts — are bit-identical to a fresh run's. Request-*envelope*
//! bytes draw fresh hybrid session keys per query and are compared as
//! edge sets and request counts, not byte-for-byte.

use mpq::algebra::builder::plan_sql;
use mpq::algebra::{NodeId, Operator, QueryPlan, SubjectId, Value};
use mpq::core::candidates::{candidates, Candidates};
use mpq::core::capability::CapabilityPolicy;
use mpq::core::dispatch::regions;
use mpq::core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq::core::fixtures::RunningExample;
use mpq::core::keys::{plan_keys, KeyPlan};
use mpq::crypto::keyring::{ClusterKey, KeyRing};
use mpq::dist::{Report, Session, SessionConfig, SimError, TransportKind};
use mpq::exec::{assign_schemes, execute_region, Database, ExecCtx, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn sample_db(ex: &RunningExample) -> Database {
    let mut db = Database::new();
    db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
    db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
    db
}

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

fn assert_rows_match(a: &Report, b: &Report, what: &str) {
    assert_eq!(
        a.result.attrs(),
        b.result.attrs(),
        "{what}: column mismatch"
    );
    assert_eq!(a.result.len(), b.result.len(), "{what}: row count");
    for (ra, rb) in a.result.to_rows().iter().zip(&b.result.to_rows()) {
        for (x, y) in ra.iter().zip(rb) {
            assert!(x.sql_eq(y), "{what}: cell {x:?} vs {y:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// N repetitions of one query through a single `Session` are
    /// bit-equivalent (results *and* data-flow bytes per edge) to N
    /// fresh sessions' first queries, with every cluster provisioned once.
    #[test]
    fn session_queries_match_fresh_session_runs(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 4..9),
        choice in proptest::collection::vec(any::<u16>(), 4),
        n in 2usize..5,
    ) {
        let ex = RunningExample::new();
        let db = load_random(&ex, &picks);
        let cands = lambda(&ex);
        let (ext, keys) = extend_choice(&ex, &cands, &choice);
        let user = ex.subject("U");

        let mut session = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, seed);
        for i in 0..n {
            let via_session = session
                .execute(&ext, &keys, user)
                .expect("authorized session query");
            let fresh = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, seed)
                .execute(&ext, &keys, user)
                .expect("authorized fresh run");
            assert_rows_match(&via_session, &fresh, &format!("query {i}"));
            // Ciphertext-sensitive probe: the session reuses the very
            // material a fresh session would generate (same RNG
            // position), so data bytes agree edge by edge, bit for bit.
            prop_assert_eq!(via_session.data_bytes(), fresh.data_bytes(), "query {}", i);
            prop_assert_eq!(via_session.requests, fresh.requests);
            // Envelope session keys are fresh per query; the *edges*
            // (who is asked to compute) must still be identical.
            let mut se: Vec<_> = via_session.request_bytes.keys().copied().collect();
            let mut fe: Vec<_> = fresh.request_bytes.keys().copied().collect();
            se.sort_unstable();
            fe.sort_unstable();
            prop_assert_eq!(se, fe);
        }

        // Amortization actually happened: each cluster was generated
        // once, then served from the cache for the n-1 repeats.
        let stats = session.stats();
        prop_assert_eq!(stats.clusters_provisioned, keys.keys.len());
        prop_assert_eq!(stats.clusters_reused, (n - 1) * keys.keys.len());
        prop_assert_eq!(session.cached_clusters(), keys.keys.len());
    }

    /// A mixed workload (two assignments alternating) through one
    /// session still matches fresh runs query-for-query on results and
    /// request accounting. Clusters provisioned after the first query
    /// draw from a different RNG position than a fresh session's, so
    /// ciphertext bytes are not comparable here — decrypted results and
    /// the wire graph are.
    #[test]
    fn mixed_workload_matches_fresh_runs(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 4..9),
        choice_a in proptest::collection::vec(any::<u16>(), 4),
        choice_b in proptest::collection::vec(any::<u16>(), 4),
    ) {
        let ex = RunningExample::new();
        let db = load_random(&ex, &picks);
        let cands = lambda(&ex);
        let items = [
            extend_choice(&ex, &cands, &choice_a),
            extend_choice(&ex, &cands, &choice_b),
        ];
        let user = ex.subject("U");

        let mut session = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, seed);
        for round in 0..2 {
            for (i, (ext, keys)) in items.iter().enumerate() {
                let via_session = session
                    .execute(ext, keys, user)
                    .expect("authorized session query");
                let fresh = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, seed)
                    .execute(ext, keys, user)
                    .expect("authorized fresh run");
                assert_rows_match(&via_session, &fresh, &format!("round {round} item {i}"));
                prop_assert_eq!(via_session.requests, fresh.requests);
                let mut st: Vec<_> = via_session.transfers.keys().copied().collect();
                let mut ft: Vec<_> = fresh.transfers.keys().copied().collect();
                st.sort_unstable();
                ft.sort_unstable();
                prop_assert_eq!(st, ft, "wire graph diverged");
            }
        }
        // Round 2 provisioned nothing new.
        let stats = session.stats();
        let total: usize = items.iter().map(|(_, k)| k.keys.len()).sum();
        prop_assert!(stats.clusters_provisioned <= total);
        prop_assert!(stats.clusters_reused >= total);
    }
}

/// Revocation punches through the cache: the next query needing the
/// cluster must re-provision fresh material under a new id — a revoked
/// key never comes back from the cache.
#[test]
fn revoke_forces_reprovisioning() {
    let ex = RunningExample::new();
    let db = sample_db(&ex);
    let ext = ex.fig7a_extended();
    let keys = plan_keys(&ext);
    let user = ex.subject("U");
    let y = ex.subject("Y");

    let mut session = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 41);
    session.execute(&ext, &keys, user).expect("first query");
    session.execute(&ext, &keys, user).expect("second query");
    assert_eq!(session.stats().clusters_provisioned, 2);
    assert_eq!(session.stats().clusters_reused, 2);

    // k_P (held by I and Y) got session id 1 on first provisioning
    // (session ids follow KeyPlan order for a fresh session).
    let k_p = keys.key_for(ex.attr("P")).unwrap().id;
    assert!(session.holds_key(y, k_p));
    session.revoke_key(k_p);
    assert!(!session.holds_key(y, k_p), "revoked key still held");
    assert_eq!(session.cached_clusters(), 1, "cache entry must go too");

    // The next query is *not* served the revoked material: the cluster
    // is regenerated under a fresh session id, and the query succeeds.
    let report = session
        .execute(&ext, &keys, user)
        .expect("post-revoke query");
    assert!(!report.result.is_empty());
    assert_eq!(session.stats().clusters_provisioned, 3);
    assert!(!session.holds_key(y, k_p), "old id must not be re-used");
    assert!(session.holds_key(y, 2), "fresh material under a new id");
}

/// A failed query aborts cleanly and leaves the session serving, over
/// either transport: what an aborted epoch left in a mailbox is residue
/// the next query drops, so that query returns the rows and data bytes
/// the in-proc session returns for the same sequence of queries.
#[test]
fn errors_abort_the_query_not_the_session() {
    let ex = RunningExample::new();
    let db = sample_db(&ex);
    let ext = ex.fig7a_extended();
    let keys = plan_keys(&ext);
    let user = ex.subject("U");

    // In Fig. 7(a) H and I both feed X's join, each encrypting under a
    // key it holds. Regions run producers first; `regions` lists them
    // consumers first, so the first of the two it names runs second.
    let producers = [ex.subject("H"), ex.subject("I")];
    let cut = regions(&ext.plan, &ext.assignment).expect("a total assignment");
    let second = (cut.iter().map(|r| r.subject))
        .find(|s| producers.contains(s))
        .expect("H and I both run a region");
    let strip = |who: SubjectId| {
        let mut weak = keys.clone();
        for key in &mut weak.keys {
            key.holders.retain(|&s| s != who);
        }
        weak
    };

    let mut last = Vec::new();
    for transport in [TransportKind::InProc, TransportKind::Tcp] {
        let config = SessionConfig::new(43).transport(transport);
        let mut session = Session::open_with(&ex.catalog, &ex.subjects, &ex.policy, &db, config);
        session.execute(&ext, &keys, user).expect("healthy query");

        // Tamper: reassign the final plaintext having to provider X,
        // which is not authorized for it — refused at the runtime
        // re-check.
        let mut bad = ext.clone();
        bad.assignment.insert(ex.node("having"), ex.subject("X"));
        match session.execute(&bad, &keys, user) {
            Err(SimError::Unauthorized { subject, .. }) => assert_eq!(subject, ex.subject("X")),
            other => panic!("{transport:?}: expected Unauthorized, got {other:?}"),
        }

        // Strip a holder so decryption or encryption fails *mid-
        // execution* (a behavioral abort). The static pre-flight would
        // refuse these plans up front (MPQ003) — disable it so the
        // failure happens inside a region.
        let config = SessionConfig::new(47)
            .without_preflight()
            .transport(transport);
        let mut weak_session =
            Session::open_with(&ex.catalog, &ex.subjects, &ex.policy, &db, config);
        // Y cannot decrypt: X's table reached Y before Y's region failed.
        // The second producer cannot encrypt: the first one's table is
        // already in X's mailbox when the query aborts.
        for weak_keys in [strip(ex.subject("Y")), strip(second)] {
            match weak_session.execute(&ext, &weak_keys, user) {
                Err(SimError::Exec(mpq::exec::ExecError::MissingKey { .. })) => {}
                other => panic!("{transport:?}: expected MissingKey, got {other:?}"),
            }
        }
        // …and the session still serves the next (healthy) query.
        let report = weak_session
            .execute(&ext, &keys, user)
            .expect("session survives a failed query");
        assert!(!report.result.is_empty());
        last.push(report);
    }
    let (in_proc, tcp) = (&last[0], &last[1]);
    assert_rows_match(in_proc, tcp, "after the aborted epochs, TCP vs in-proc");
    assert_eq!(in_proc.data_bytes(), tcp.data_bytes());
}

/// `Hosp`/`Ins` over 24 patients who share four names, so that `Ins.C`
/// — Det-encrypted by its authority over its own base scan in Fig.
/// 7(a) — is encrypted through its dictionary.
fn repeated_names_db(ex: &RunningExample) -> Database {
    let birth = Value::Date(mpq::algebra::Date::parse("1970-01-01").unwrap());
    let mut db = Database::new();
    let name = |i: usize| Value::str(&format!("patient{}", i % 4));
    let hosp = (0..24).map(|i| {
        let treatment = Value::str(["tPA", "rest"][i % 2]);
        vec![name(i), birth.clone(), Value::str("stroke"), treatment]
    });
    let ins = (0..24).map(|i| vec![name(i), Value::Num(90.0 + i as f64)]);
    db.load(&ex.catalog, "Hosp", hosp.collect());
    db.load(&ex.catalog, "Ins", ins.collect());
    db
}

/// Nothing key-scoped outlives a query: a column's dictionary is
/// plaintext of the stored relation, and its ciphertexts are made anew
/// under whatever key the query brings. After a revocation, the
/// authority → provider table of the next query is bit-identical to a
/// fresh database's under the new key — even with the new key under
/// the revoked key's id — and two sessions over one database build
/// each column's codes once.
#[test]
fn revoked_keys_leave_no_ciphertext_behind() {
    let ex = RunningExample::new();
    let db = repeated_names_db(&ex);
    let ext = ex.fig7a_extended();
    let keys = plan_keys(&ext);
    let user = ex.subject("U");
    let ins = ex.catalog.relation("Ins").unwrap().rel;
    let c = ex.attr("C");

    // Two sessions over one database: the first query builds `C`'s
    // codes, which both sessions' authorities then share.
    let mut session = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 41);
    assert!(db.dictionary_codes(ins, c).is_none(), "built on first use");
    let first = session.execute(&ext, &keys, user).expect("first query");
    let codes = db
        .dictionary_codes(ins, c)
        .expect("C is encrypted over its scan");
    let mut other = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 43);
    assert_rows_match(
        &first,
        &other.execute(&ext, &keys, user).unwrap(),
        "second session",
    );
    let again = db.dictionary_codes(ins, c).unwrap();
    assert!(
        std::ptr::eq(codes, again),
        "a second session rebuilt the codes"
    );

    // Revoke C's cluster: the next query re-provisions and still
    // matches the first one's rows and per-edge data bytes.
    let k_c = keys.key_for(c).unwrap().id;
    session.revoke_key(k_c);
    let after = session
        .execute(&ext, &keys, user)
        .expect("post-revoke query");
    assert_rows_match(&first, &after, "after the revocation");
    assert_eq!(first.data_bytes(), after.data_bytes());
    assert!(
        !session.holds_key(ex.subject("I"), k_c),
        "old id must not be re-used"
    );

    // The authority's region alone — `Encrypt(C, P)` over `Ins` at `I`,
    // the table that crosses I → X — run under a revoked key, then under
    // fresh material in the same id, and on a fresh database under that
    // fresh material.
    let is_ins_scan =
        |n: NodeId| matches!(ext.plan.node(n).op, Operator::Base { rel, .. } if rel == ins);
    let (enc, scan) = (ext.plan.postorder().into_iter())
        .find_map(
            |n| match (&ext.plan.node(n).op, &ext.plan.node(n).children[..]) {
                (Operator::Encrypt { .. }, &[child]) if is_ins_scan(child) => Some((n, child)),
                _ => None,
            },
        )
        .expect("I encrypts over its own scan");
    let schemes = assign_schemes(&ext.plan).unwrap();
    let key_of_attr = HashMap::from([(c, 0u32), (ex.attr("P"), 0u32)]);
    let key = |seed| ClusterKey::generate(&mut StdRng::seed_from_u64(seed), 0, 256);
    let edge = |db: &Database, ring: &KeyRing| -> Table {
        let ctx = ExecCtx::new(&ex.catalog, db, ring, &schemes, &key_of_attr);
        let member = |n: NodeId| n == enc || n == scan;
        let region = execute_region(&ext.plan, enc, &member, &mut HashMap::new(), &ctx);
        region.expect("I's region runs").into_table()
    };
    let ring = KeyRing::new();
    ring.insert(key(1));
    let revoked = edge(&db, &ring);
    ring.revoke(0);
    ring.insert(key(2));
    let renewed = edge(&db, &ring);
    let fresh_ring = KeyRing::new();
    fresh_ring.insert(key(2));
    let fresh = edge(&repeated_names_db(&ex), &fresh_ring);
    assert_eq!(renewed, fresh, "ciphertexts under the new key");
    let col = renewed.col_index(c).unwrap();
    assert_ne!(
        renewed.column(col),
        revoked.column(col),
        "C still under the revoked key"
    );
}

/// `plan` over the running example under `at` (operation → subject by
/// name; unnamed operations go to `rest`), minimally extended for `U`.
fn pinned(
    ex: &RunningExample,
    plan: &QueryPlan,
    at: &[(NodeId, &str)],
    rest: &str,
) -> (ExtendedPlan, KeyPlan) {
    let cands = candidates(
        plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &CapabilityPolicy::default(),
        true,
    );
    let mut assignment = Assignment::new();
    for id in plan.postorder() {
        if !plan.node(id).children.is_empty() {
            let named = at.iter().find(|(n, _)| *n == id);
            assignment.set(id, ex.subject(named.map_or(rest, |(_, s)| s)));
        }
    }
    let user = Some(ex.subject("U"));
    let ext = minimally_extend(
        plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &cands,
        &assignment,
        user,
    )
    .expect("the pinned assignment is drawn from Λ");
    let keys = plan_keys(&ext);
    (ext, keys)
}

/// A cold-then-warm pass over Fig. 7(a), Fig. 7(b) and the plan run
/// wholly at `U`, after `reset_provisioning`, provisions three clusters
/// — `{S, C}` and `{D}` compared, `{P}` summed under Paillier — and
/// builds one Paillier keypair, `{P}`'s, where making every cluster's
/// keypair with its master built three. Only `{P}`'s public half goes
/// to computing non-holders: four deliveries, where shipping every
/// cluster's made eleven.
#[test]
fn a_churn_pass_builds_the_one_paillier_keypair_it_sums_under() {
    let ex = RunningExample::new();
    let db = sample_db(&ex);
    let user = ex.subject("U");
    let nodes = ["select_d", "join", "group", "having"].map(|n| ex.node(n));
    let pass: Vec<_> = [["H", "X", "X", "Y"], ["H", "Z", "Z", "Y"], ["U"; 4]]
        .iter()
        .map(|at| {
            let at: Vec<_> = nodes.iter().copied().zip(at.iter().copied()).collect();
            pinned(&ex, &ex.plan, &at, "U")
        })
        .collect();
    for transport in [TransportKind::InProc, TransportKind::Tcp] {
        let config = SessionConfig::new(41).transport(transport);
        let mut session = Session::open_with(&ex.catalog, &ex.subjects, &ex.policy, &db, config);
        for _ in 0..2 {
            session.reset_provisioning();
            let before = session.stats();
            for _cold_then_warm in 0..2 {
                for (ext, keys) in &pass {
                    session
                        .execute(ext, keys, user)
                        .expect("a fig7_churn query");
                }
            }
            let after = session.stats();
            let delta = |f: fn(&mpq::dist::SessionStats) -> usize| f(&after) - f(&before);
            assert_eq!(delta(|s| s.clusters_provisioned), 3, "{transport:?}");
            assert_eq!(delta(|s| s.paillier_keypairs), 1, "{transport:?}");
            assert_eq!(delta(|s| s.publics_delivered), 4, "{transport:?}");
        }
    }
}

/// A cluster provisioned by a query that only carries its attribute
/// builds no keypair; the first query that sums the attribute under
/// Paillier builds it then — from the cached master, so every holder's
/// copy agrees — and ships the public half to the subjects computing
/// without the key (`H` under the selection, `X` under the rest), in-proc
/// and over TCP alike.
#[test]
fn a_cached_cluster_gets_its_keypair_when_a_query_first_sums_it() {
    let ex = RunningExample::new();
    let db = sample_db(&ex);
    let user = ex.subject("U");
    let query = |sql: &str| {
        let plan = plan_sql(&ex.catalog, sql).expect("valid SQL");
        let select = (plan.postorder().into_iter())
            .find(|&n| matches!(plan.node(n).op, Operator::Select { .. }))
            .expect("a selection");
        pinned(&ex, &plan, &[(select, "H")], "X")
    };
    let from = "from Hosp join Ins on S=C where D='stroke'";
    let (carry, carry_keys) = query(&format!("select T, P {from}"));
    let (sum, sum_keys) = query(&format!("select T, sum(P) {from} group by T"));
    let p = ex.attr("P");
    let sig = |keys: &KeyPlan| keys.key_for(p).expect("P is encrypted").cluster_sig();
    assert!(sig(&carry_keys) == sig(&sum_keys), "one {{P}} cluster");

    let mut reports = Vec::new();
    for transport in [TransportKind::InProc, TransportKind::Tcp] {
        let config = SessionConfig::new(53).transport(transport);
        let mut session = Session::open_with(&ex.catalog, &ex.subjects, &ex.policy, &db, config);
        session.execute(&carry, &carry_keys, user).expect("carry P");
        let carried = session.stats();
        assert_eq!(
            (carried.paillier_keypairs, carried.publics_delivered),
            (0, 0)
        );
        reports.push(session.execute(&sum, &sum_keys, user).expect("sum P"));
        let summed = session.stats();
        assert_eq!(summed.clusters_provisioned, carried.clusters_provisioned);
        assert_eq!((summed.paillier_keypairs, summed.publics_delivered), (1, 2));
    }
    let mut fresh = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 53);
    let reference = fresh.execute(&sum, &sum_keys, user).expect("sum P");
    assert_rows_match(&reports[0], &reference, "in-proc vs a fresh session");
    assert_rows_match(&reports[1], &reference, "TCP vs a fresh session");
}

/// A key's Paillier keypair is a function of its master: built lazily
/// by one clone, it is every clone's, and the one a key of the same
/// master built at once has — also once the master has crossed a wire.
#[test]
fn a_lazily_built_keypair_is_the_eager_one_and_shared_by_clones() {
    let key = |seed| ClusterKey::generate(&mut StdRng::seed_from_u64(seed), 3, 256);
    let eager = key(17);
    let eager_bytes = eager.paillier().to_bytes();
    let lazy = key(17);
    let clone = lazy.clone();
    let wired = ClusterKey::from_bytes(&lazy.to_bytes()).expect("a key's own bytes");
    assert!(!lazy.paillier_built() && !clone.paillier_built());
    assert_eq!(clone.paillier().to_bytes(), eager_bytes);
    assert!(lazy.paillier_built(), "the clone built it for both");
    assert!(std::ptr::eq(lazy.paillier(), clone.paillier()));
    assert!(!wired.paillier_built());
    assert_eq!(wired.paillier().to_bytes(), eager_bytes);
    assert_ne!(key(18).paillier().to_bytes(), eager_bytes);
}
