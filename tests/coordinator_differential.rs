//! Deployment differential: the process-per-subject deployment
//! (`Coordinator::execute` over real `Server`s) must be
//! indistinguishable from a session's walk (`Session::execute` after
//! `reset_provisioning`) — same rows, and the same bytes on every edge:
//! `Report::transfers`, every data and request byte, on Fig. 7(a),
//! Fig. 7(b) and the plan that runs every operation at `U`. Both step
//! the same party core; this pins that they also make every party
//! alike. Sessions, coordinators and servers draw the parties' RSA
//! identities from one seeded stream, the fleet seed, and a
//! coordinator's `Dispatcher` continues that stream as a session's
//! does, so one seed fixes every key, ciphertext and envelope of both.
//!
//! The servers run on test threads over loopback, each bound on an
//! OS-assigned port. A long-lived fleet serves one coordinator after
//! another: a second coordinator, connected once the first is gone,
//! answers its first query as the first one did.

use mpq::algebra::{SubjectId, Value};
use mpq::core::candidates::candidates;
use mpq::core::capability::CapabilityPolicy;
use mpq::core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq::core::fixtures::RunningExample;
use mpq::core::keys::{plan_keys, KeyPlan};
use mpq::dist::{Coordinator, Report, RetryPolicy, Server, ServerConfig, Session, SessionConfig};
use mpq::exec::Database;
use std::collections::HashMap;
use std::net::TcpListener;
use std::time::Duration;

const SEED: u64 = 2026;

fn sample_db(ex: &RunningExample) -> Database {
    let mut db = Database::new();
    db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
    db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
    db
}

/// Extend the running example's plan under a named assignment of its
/// four operations (Fig. 7).
fn fig7(ex: &RunningExample, assign: [&str; 4]) -> (ExtendedPlan, KeyPlan) {
    let cands = candidates(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &CapabilityPolicy::default(),
        true,
    );
    let mut a = Assignment::new();
    for (node, s) in ["select_d", "join", "group", "having"].iter().zip(assign) {
        a.set(ex.node(node), ex.subject(s));
    }
    let ext = minimally_extend(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &cands,
        &a,
        Some(ex.subject("U")),
    )
    .expect("Fig. 7 assignments are drawn from Λ");
    let keys = plan_keys(&ext);
    (ext, keys)
}

fn sorted_rows(r: &Report) -> Vec<Vec<Value>> {
    let mut rows = r.result.to_rows();
    rows.sort_by_key(|row| format!("{row:?}"));
    rows
}

#[test]
fn coordinator_matches_the_session_byte_for_byte() {
    let ex = RunningExample::new();
    let db = sample_db(&ex);
    let user = ex.subject("U");
    let views = ex.policy.all_views(&ex.catalog, &ex.subjects);

    // One server per non-user subject, bound on port 0; the peer maps
    // are filled in once every address is known. The user's data-plane
    // address must exist before the coordinator does, so that one port
    // is reserved by a listener held until the fleet is bound (no
    // server can be handed it) and dropped just before the first
    // coordinator binds it.
    let reserved = TcpListener::bind("127.0.0.1:0").expect("reserve a loopback port");
    let user_addr = reserved.local_addr().expect("bound").to_string();
    let mut fleet: Vec<Server> = ex
        .subjects
        .iter()
        .filter(|&s| s != user)
        .map(|me| {
            let mut store = Database::new();
            for rel in ex.catalog.relations() {
                if ex.subjects.authority(rel.rel) == Some(me) {
                    store.insert(rel.rel, db.table(rel.rel).expect("loaded").clone());
                }
            }
            Server::bind(ServerConfig {
                me,
                listen: "127.0.0.1:0".to_string(),
                peers: HashMap::new(),
                seed: SEED,
                catalog: ex.catalog.clone(),
                view: views[me.index()].clone(),
                store,
                faults: None,
                retry: RetryPolicy::default(),
            })
            .expect("bind a loopback server")
        })
        .collect();
    let servers: HashMap<SubjectId, String> = fleet
        .iter()
        .map(|s| (s.subject(), s.addr().to_string()))
        .collect();
    let mut everyone = servers.clone();
    everyone.insert(user, user_addr.clone());
    let handles: Vec<_> = fleet
        .drain(..)
        .map(|mut server| {
            let mut peers = everyone.clone();
            peers.remove(&server.subject());
            server.set_peers(peers);
            std::thread::spawn(move || server.run())
        })
        .collect();

    let connect = || {
        let config = SessionConfig::new(SEED).timeout(Duration::from_secs(10));
        Coordinator::connect(
            &ex.catalog,
            &ex.subjects,
            &ex.policy,
            &db,
            user,
            &user_addr,
            &servers,
            config,
        )
        .expect("coordinator connects to all five servers")
    };
    drop(reserved);
    let mut coordinator = connect();
    let mut session = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, SEED);

    let plans = [
        ("7a", ["H", "X", "X", "Y"]),
        ("7b", ["H", "Z", "Z", "Y"]),
        ("all at U", ["U", "U", "U", "U"]),
    ];
    let mut first = None;
    for (label, assign) in plans {
        let (ext, keys) = fig7(&ex, assign);
        let federated = coordinator
            .execute(&ext, &keys)
            .unwrap_or_else(|e| panic!("{label} over the coordinator: {e}"));
        // The coordinator provisions every query afresh; so does the
        // session run it is compared with, in the same order.
        session.reset_provisioning();
        let local = session.execute(&ext, &keys, user).expect("session run");

        assert_eq!(sorted_rows(&federated), sorted_rows(&local), "{label}");
        assert_eq!(federated.result.attrs(), local.result.attrs(), "{label}");
        assert_eq!(federated.requests, local.requests, "{label}");
        assert_eq!(federated.request_bytes, local.request_bytes, "{label}");
        assert_eq!(federated.transfers, local.transfers, "{label}: every byte");
        assert!(federated.data_bytes().values().all(|&b| b > 0), "{label}");
        first.get_or_insert((ext, keys, federated));
    }
    assert_eq!(coordinator.recovered_sends(), 0, "no faults, no retries");

    // A second coordinator against the same, long-lived fleet: its
    // query epochs start above every server's, so no server replays
    // the first coordinator's outcome, and its first query is the
    // first coordinator's.
    drop(coordinator);
    let mut second = connect();
    let (ext, keys, expected) = first.expect("three plans ran");
    let again = second
        .execute(&ext, &keys)
        .expect("a second coordinator's first query");
    assert_eq!(sorted_rows(&again), sorted_rows(&expected));
    assert_eq!(again.transfers, expected.transfers);

    second.shutdown();
    for h in handles {
        h.join()
            .expect("server thread")
            .expect("server exits cleanly on Shutdown");
    }
}
