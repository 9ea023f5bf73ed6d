//! Scheduler differential: the process-per-subject scheduler
//! (`Coordinator::execute` over real `Server`s) must be
//! indistinguishable from a session's one walk (`Session::execute`,
//! also called here by its hidden alias `execute_sequential`) — same
//! rows, same directed wire graph, same signed-request count — on the
//! happy path of Fig. 7(a) and 7(b). Both step the same party core;
//! this pins that the federated preparation and the session's walk
//! feed it the same way.
//!
//! The servers run on test threads over loopback, each bound on an
//! OS-assigned port. Byte *values* per edge are not compared: the
//! coordinator draws its keys from a differently-advanced RNG (it
//! generates one RSA identity, a session six), and ciphertext widths
//! depend on the key material.

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

fn edges(r: &Report) -> Vec<(SubjectId, SubjectId)> {
    let mut e: Vec<_> = r.transfers.keys().copied().collect();
    e.sort_unstable();
    e
}

#[test]
fn coordinator_matches_both_session_schedulers() {
    let ex = RunningExample::new();
    let db = sample_db(&ex);
    let user = ex.subject("U");
    let views = ex.policy.all_views(&ex.catalog, &ex.subjects);

    // One server per non-user subject, bound on port 0; the peer maps
    // are filled in once every address is known. The user's data-plane
    // address must exist before the coordinator does, so that one port
    // is reserved by binding and dropping a listener.
    let user_addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve a loopback port")
        .to_string();
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
                seed: SEED ^ (me.index() as u64 + 1),
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

    let config = SessionConfig::new(SEED).timeout(Duration::from_secs(10));
    let mut coordinator = Coordinator::connect(
        &ex.catalog,
        &ex.subjects,
        &ex.policy,
        &db,
        user,
        &user_addr,
        &servers,
        config,
    )
    .expect("coordinator connects to all five servers");
    let mut session = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, SEED);

    for (label, assign) in [("7a", ["H", "X", "X", "Y"]), ("7b", ["H", "Z", "Z", "Y"])] {
        let (ext, keys) = fig7(&ex, assign);
        let federated = coordinator
            .execute(&ext, &keys)
            .unwrap_or_else(|e| panic!("Fig. {label} over the coordinator: {e}"));
        // The coordinator provisions every query afresh; so do the
        // session runs it is compared with.
        session.reset_provisioning();
        let threaded = session.execute(&ext, &keys, user).expect("threaded run");
        session.reset_provisioning();
        let same_thread = session
            .execute_sequential(&ext, &keys, user)
            .expect("same-thread run");

        assert_eq!(sorted_rows(&threaded), sorted_rows(&same_thread), "{label}");
        assert_eq!(sorted_rows(&federated), sorted_rows(&threaded), "{label}");
        assert_eq!(federated.result.attrs(), threaded.result.attrs(), "{label}");
        assert_eq!(edges(&threaded), edges(&same_thread), "{label}");
        assert_eq!(edges(&federated), edges(&threaded), "{label}: wire graph");
        assert_eq!(federated.requests, threaded.requests, "{label}");
        assert_eq!(federated.requests, same_thread.requests, "{label}");
        // Same edges carry requests, and every data edge carried bytes.
        let request_edges = |r: &Report| {
            let mut e: Vec<_> = r.request_bytes.keys().copied().collect();
            e.sort_unstable();
            e
        };
        assert_eq!(
            request_edges(&federated),
            request_edges(&threaded),
            "{label}"
        );
        assert!(federated.data_bytes().values().all(|&b| b > 0), "{label}");
    }
    assert_eq!(coordinator.recovered_sends(), 0, "no faults, no retries");

    coordinator.shutdown();
    for h in handles {
        h.join()
            .expect("server thread")
            .expect("server exits cleanly on Shutdown");
    }
}
