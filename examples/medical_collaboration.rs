//! Medical collaboration: distributed *execution* over encrypted data.
//!
//! The intro's motivating scenario: a hospital and an insurer expose
//! their relations for collaborative analysis; cloud providers supply
//! computation without ever seeing plaintext identifiers or premiums.
//! This example actually *runs* the Fig. 7(a) plan across simulated
//! subjects — real XTEA/OPE/Paillier ciphertexts, signed RSA request
//! envelopes, per-subject key rings — and checks the answer against a
//! centralized plaintext execution.
//!
//! Run with `cargo run --example medical_collaboration`.

use mpq::core::candidates::candidates;
use mpq::core::capability::CapabilityPolicy;
use mpq::core::extend::{minimally_extend, Assignment};
use mpq::core::fixtures::RunningExample;
use mpq::core::keys::plan_keys;
use mpq::dist::{Session, SessionConfig, TransportKind};
use mpq::exec::{Database, SchemePlan};
use mpq_crypto::keyring::KeyRing;
use std::collections::HashMap;

fn load(ex: &RunningExample) -> Database {
    let mut db = Database::new();
    db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
    db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
    db
}

fn main() {
    let ex = RunningExample::new();
    let db = load(&ex);

    // Plan the Fig. 7(a) assignment.
    let cands = candidates(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &CapabilityPolicy::default(),
        true,
    );
    let mut a = Assignment::new();
    a.set(ex.node("select_d"), ex.subject("H"));
    a.set(ex.node("join"), ex.subject("X"));
    a.set(ex.node("group"), ex.subject("X"));
    a.set(ex.node("having"), ex.subject("Y"));
    let ext = minimally_extend(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &cands,
        &a,
        Some(ex.subject("U")),
    )
    .expect("valid assignment");
    let keys = plan_keys(&ext);

    // Centralized plaintext reference (the user could legally do this).
    let reference = {
        let ring = KeyRing::new();
        let schemes = SchemePlan::default();
        let koa = HashMap::new();
        let ctx = mpq::exec::engine::ExecCtx::new(&ex.catalog, &db, &ring, &schemes, &koa);
        mpq::exec::execute(&ex.plan, &ctx).expect("plaintext execution")
    };
    println!("== centralized plaintext reference ==");
    println!("{}", reference.display(&ex.catalog));

    // Distributed encrypted execution: H, I, X, Y each run their
    // Fig. 8 region under a signed envelope, producers first, and every
    // encrypted table crosses its edge into the consumer's mailbox.
    let mut session = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 2026);
    let report = session
        .execute(&ext, &keys, ex.subject("U"))
        .expect("authorized distributed run");
    println!("== distributed result (via H, I, X, Y) ==");
    println!("{}", report.result.display(&ex.catalog));

    // The same query with every table framed over loopback TCP must be
    // observationally identical — same rows, same bytes on every edge.
    let config = SessionConfig::new(2026).transport(TransportKind::Tcp);
    let mut tcp_session = Session::open_with(&ex.catalog, &ex.subjects, &ex.policy, &db, config);
    let tcp_report = tcp_session
        .execute(&ext, &keys, ex.subject("U"))
        .expect("authorized run over TCP");
    assert_eq!(report.result.to_rows(), tcp_report.result.to_rows());
    assert_eq!(report.transfers, tcp_report.transfers);
    assert_eq!(report.requests, tcp_report.requests);

    println!("== bytes on the wire ==");
    let mut edges: Vec<_> = report.transfers.iter().collect();
    edges.sort_by_key(|((f, t), _)| (f.index(), t.index()));
    for ((from, to), bytes) in edges {
        println!(
            "  {} → {}: {bytes} bytes",
            ex.subjects.name(*from),
            ex.subjects.name(*to)
        );
    }

    assert_eq!(reference.len(), report.result.len());
    for (a, b) in reference.to_rows().iter().zip(&report.result.to_rows()) {
        for (x, y) in a.iter().zip(b) {
            let close = match (x.as_num(), y.as_num()) {
                (Some(p), Some(q)) => (p - q).abs() < 1e-6,
                _ => x.sql_eq(y),
            };
            assert!(close, "mismatch: {x:?} vs {y:?}");
        }
    }
    println!("✓ distributed encrypted execution matches the plaintext reference");
    println!("✓ in-proc and TCP transports agree edge-for-edge");
}
