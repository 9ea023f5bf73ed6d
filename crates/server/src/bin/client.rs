//! `mpq-client` — the querying user's coordinator process.
//!
//! Takes SQL text, runs the full authorization-aware pipeline locally
//! (parse → Def. 4.1 candidates → cost-based assignment → minimal
//! extension → Def. 6.1 key plan → static verification), then drives
//! the §6 protocol across the `mpq-server` processes: hello, sealed
//! key provisioning, signed sub-query dispatch, peer-to-peer
//! execution, and report assembly. Prints the decrypted result and the
//! per-edge byte accounting.

use mpq_dist::{Coordinator, SessionConfig};
use mpq_server::{parse_peers, parse_recovery, Fixture, Flags};
use std::time::Duration;

const USAGE: &str = "\
mpq-client — run SQL across a federation of mpq-server processes

USAGE:
    mpq-client --listen HOST:PORT --servers NAME=HOST:PORT,... \"SQL\"
               [--fixture running-example|tpch] [--scale SF] [--seed N]
               [--timeout-ms N] [--no-preflight] [--shutdown]
               [--faults SPEC] [--retries N]

OPTIONS:
    --listen ADDR    this client's own data-plane address (the user is a
                     party too: results flow to it peer-to-peer)
    --servers MAP    control addresses of every subject server
    --fixture NAME   shared world both sides derive: running-example (default)
                     or tpch
    --scale SF       tpch scale factor (default 0.01)
    --seed N         fleet seed: fixture *and* keys (default 42); a server
                     started with another one is refused at connect
    --timeout-ms N   data-plane receive timeout (default 10000)
    --no-preflight   skip the static verifier before execution
    --shutdown       ask the servers to exit after the query
    --faults SPEC    inject faults into this client's control and data
                     planes, e.g. seed=7,drop=100,reset=50,max=3 (per-mille
                     rates)
    --retries N      delivery attempts per message (default 4)
    --help           this text
";

/// Every flag this binary reads; `Flags::parse` refuses any other.
#[rustfmt::skip]
const FLAGS: &[&str] = &["listen", "servers", "fixture", "scale", "seed", "timeout-ms",
                         "no-preflight", "shutdown", "faults", "retries", "help"];

fn main() {
    if let Err(e) = run() {
        eprintln!("mpq-client: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let flags = Flags::parse(std::env::args().skip(1), FLAGS)?;
    if flags.has("help") {
        print!("{USAGE}");
        return Ok(());
    }
    let sql = flags.positional.join(" ");
    if sql.trim().is_empty() {
        return Err(format!("no SQL given\n\n{USAGE}"));
    }
    let seed = flags.num("seed", 42u64)?;
    let fixture = Fixture::parse(
        flags.get("fixture").unwrap_or("running-example"),
        flags.num("scale", 0.01)?,
    )?;
    let world = fixture.build(seed);
    let servers = parse_peers(flags.require("servers")?, &world.env.subjects)?;

    // ---- plan: SQL → authorized, minimally extended, costed --------
    let opt = world.plan(&sql)?;
    println!(
        "plan: {} nodes, cost {:.4}",
        opt.extended.plan.postorder().len(),
        opt.cost.total()
    );
    for id in opt.extended.plan.postorder() {
        let node = opt.extended.plan.node(id);
        let assignee = opt.extended.assignment[&id];
        println!(
            "  {} -> {}",
            node.op.name(),
            world.env.subjects.name(assignee)
        );
    }

    // ---- execute across the federation -----------------------------
    let (faults, retry) = parse_recovery(&flags)?;
    let mut config = SessionConfig::new(seed)
        .timeout(Duration::from_millis(flags.num("timeout-ms", 10_000u64)?))
        .retry(retry);
    if let Some(plan) = faults {
        config = config.faults(plan);
    }
    if flags.has("no-preflight") {
        config = config.without_preflight();
    }
    let mut coordinator = Coordinator::connect(
        &world.catalog,
        &world.env.subjects,
        &world.env.policy,
        &world.db,
        world.env.user,
        flags.require("listen")?,
        &servers,
        config,
    )
    .map_err(|e| format!("connect failed: {e}"))?;
    let outcome = coordinator
        .execute(&opt.extended, &opt.keys)
        .map_err(|e| format!("query failed: {e}"));
    let recovered = coordinator.recovered_sends();
    if flags.has("shutdown") {
        coordinator.shutdown();
    }
    let report = outcome?;

    // ---- report -----------------------------------------------------
    println!("result ({} rows):", report.result.len());
    print!("{}", report.result.display(&world.catalog));
    println!(
        "requests: {}, total bytes on the wire: {}",
        report.requests,
        report.total_bytes()
    );
    // The chaos smoke gates on this line: a faulted run that succeeded
    // must show it actually *recovered* rather than got lucky.
    println!("recovery: {recovered} recovered deliveries");
    println!("per-edge transfers:");
    print!("{}", report.render_transfers(&world.env.subjects));
    Ok(())
}
