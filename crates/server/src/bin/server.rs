//! `mpq-server` — host one subject of the federation as its own OS
//! process.
//!
//! The process binds a single listener serving both planes (control
//! frames from the coordinator, data frames from peer subjects),
//! derives the shared fixture from `(--fixture, --scale, --seed)` and
//! its subject's RSA keypair from the same fleet seed, and keeps
//! **only** the partition its subject is the authority of. It serves
//! coordinators until one sends a shutdown frame.

use mpq_dist::{Server, ServerConfig};
use mpq_server::{parse_peers, parse_recovery, Fixture, Flags};
use std::io::Write;

const USAGE: &str = "\
mpq-server — host one subject of a federated multi-provider query deployment

USAGE:
    mpq-server --subject NAME --listen HOST:PORT --peers NAME=HOST:PORT,...
               [--fixture running-example|tpch] [--scale SF] [--seed N]
               [--faults SPEC] [--retries N]

OPTIONS:
    --subject NAME   subject this process hosts (e.g. H, I, X; A1, A2 for tpch)
    --listen ADDR    address to bind (port 0 lets the OS pick)
    --peers MAP      data-plane addresses of the OTHER parties, including
                     the querying user's client (results flow peer-to-peer)
    --fixture NAME   shared world both sides derive: running-example (default)
                     or tpch
    --scale SF       tpch scale factor (default 0.01)
    --seed N         fleet seed: fixture *and* keys (default 42); every server
                     and client of a fleet must be given the same one
    --faults SPEC    inject faults into this server's data-plane sends, e.g.
                     seed=7,drop=100,reset=50,max=3 (per-mille rates)
    --retries N      delivery attempts per message (default 4)
    --help           this text
";

/// Every flag this binary reads; `Flags::parse` refuses any other.
const FLAGS: &[&str] = &[
    "subject", "listen", "peers", "fixture", "scale", "seed", "faults", "retries", "help",
];

fn main() {
    if let Err(e) = run() {
        eprintln!("mpq-server: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let flags = Flags::parse(std::env::args().skip(1), FLAGS)?;
    if flags.has("help") {
        print!("{USAGE}");
        return Ok(());
    }
    let seed = flags.num("seed", 42u64)?;
    let fixture = Fixture::parse(
        flags.get("fixture").unwrap_or("running-example"),
        flags.num("scale", 0.01)?,
    )?;
    let world = fixture.build(seed);

    let name = flags.require("subject")?;
    let me = world
        .env
        .subjects
        .id(name)
        .ok_or_else(|| format!("no subject `{name}` in this fixture"))?;
    let mut peers = parse_peers(flags.require("peers")?, &world.env.subjects)?;
    peers.remove(&me); // peer map is the *other* parties

    let views = world
        .env
        .policy
        .all_views(&world.catalog, &world.env.subjects);
    let store = world.partition(me);
    let (faults, retry) = parse_recovery(&flags)?;
    let server = Server::bind(ServerConfig {
        me,
        listen: flags.require("listen")?.to_string(),
        peers,
        seed,
        catalog: world.catalog,
        view: views[me.index()].clone(),
        store,
        faults,
        retry,
    })
    .map_err(|e| e.to_string())?;

    // The readiness line the smoke script (and the fault tests) wait
    // for; flush because stdout is block-buffered under a pipe.
    println!("mpq-server: {name} listening on {}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    server.run().map_err(|e| e.to_string())
}
