//! Throughput harness for the distributed runtime.
//!
//! Drives N concurrent query *sessions* — each a simulated client
//! issuing a mix of the paper's Fig. 7 medical-collaboration plans and
//! optimized TPC-H queries over generated data — through the
//! `mpq-dist` multi-party runtime, and reports latency percentiles,
//! queries/sec, and bytes on the wire. Every distributed result is
//! checked cell-by-cell against a centralized plaintext reference run,
//! so the harness doubles as an end-to-end correctness gate (CI runs
//! it with `--smoke` and fails on divergence).
//!
//! Both execution paths are measured: the concurrent thread-per-subject
//! runtime (`Session::execute`) and the same-thread reference scheduler
//! (`Session::execute_sequential`), each query provisioned afresh; the
//! report records their ratio so
//! the pipeline-parallelism win (or regression) is visible per PR in
//! `BENCH_dist.json`. With [`ThroughputConfig::session_mode`]
//! (`--session`), a third phase drives the identical workload through
//! one persistent [`mpq_dist::Session`] per client and environment —
//! Def. 6.1 provisioning amortizes across iterations — and the report
//! additionally records `session_speedup_p50` (fresh p50 ÷ session
//! p50), the amortization win `bench_diff` ratchets.

use mpq_algebra::{Catalog, SubjectId};
use mpq_core::authz::Policy;
use mpq_core::candidates::{candidates, Candidates};
use mpq_core::capability::CapabilityPolicy;
use mpq_core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq_core::fixtures::RunningExample;
use mpq_core::keys::{plan_keys, KeyPlan};
use mpq_core::subjects::Subjects;
use mpq_crypto::keyring::KeyRing;
use mpq_dist::{Session, SessionConfig, TransportKind};
use mpq_exec::{Database, SchemePlan, Table};
use mpq_planner::stats::{collect_stats, SampleConfig};
use mpq_planner::{build_scenario, optimize, Scenario, Strategy};
use mpq_tpch::{generate, query_plan};
use std::collections::HashMap;
use std::time::Instant;

/// Harness configuration (see the `throughput` binary for the flags).
#[derive(Clone, Debug)]
pub struct ThroughputConfig {
    /// Concurrent query sessions (client threads).
    pub sessions: usize,
    /// Iterations of the full workload mix per session.
    pub iters: usize,
    /// TPC-H scale factor for the generated data.
    pub tpch_sf: f64,
    /// TPC-H queries in the mix (must execute under UAPenc).
    pub tpch_queries: Vec<usize>,
    /// Base RNG seed (sessions derive their own from it).
    pub seed: u64,
    /// Smoke mode: tiny workload, still exercising every path.
    pub smoke: bool,
    /// Additionally measure the persistent-`Session` path (`--session`):
    /// each client drives its query mix through one long-lived
    /// `mpq_dist::Session` per environment, so Def. 6.1 provisioning
    /// amortizes across iterations; the report then records
    /// fresh-provisioning vs session p50 so the amortization win is
    /// ratchetable.
    pub session_mode: bool,
    /// Additionally measure the loopback-TCP transport
    /// (`--transport tcp`): the identical persistent-session workload,
    /// but every data-plane frame crosses a real socket. Reported as
    /// the `tcp` field next to the in-process modes — a measurement of
    /// the wire tax, never ratcheted.
    pub tcp_mode: bool,
}

impl ThroughputConfig {
    /// The CI smoke configuration: small but complete. SF 0.01 keeps
    /// every query doing real engine work — with the batched
    /// Montgomery crypto, SF 0.002 queries finished in ~10 ms and the
    /// benchmark degenerated into measuring per-query protocol fixed
    /// costs (key provisioning, envelope sealing, thread spawns).
    pub fn smoke() -> ThroughputConfig {
        ThroughputConfig {
            sessions: 2,
            iters: Self::iters_for_sf(0.01),
            tpch_sf: 0.01,
            tpch_queries: vec![1, 6],
            seed: 2026,
            smoke: true,
            session_mode: false,
            tcp_mode: false,
        }
    }

    /// Workload repetitions per session that keep a run roughly
    /// constant-work across scale factors: tiny scales repeat the mix
    /// so per-query protocol costs average out; at SF ≥ 0.05 a single
    /// pass is already orders of magnitude more engine work than the
    /// fixed costs and extra passes only multiply the wall clock. The
    /// `throughput` binary uses this whenever `--sf` is given without
    /// an explicit `--iters`.
    pub fn iters_for_sf(sf: f64) -> usize {
        if sf >= 0.05 {
            1
        } else {
            2
        }
    }

    /// Unmeasured warmup passes per fresh mode, derived from the scale
    /// factor rather than hardcoded for SF 0.01. Below SF 0.05 one
    /// full pass de-biases the concurrent-vs-sequential comparison
    /// (page cache, allocator growth, thread spawns all land in
    /// whichever phase runs first, and at ~10 ms/query those fixed
    /// costs dominate). At larger scales the workload build has
    /// already executed every query once for the plaintext references
    /// — first-touch of the generated data is done — and a full-scale
    /// warmup pass would double the wall clock to hide costs that are
    /// noise against multi-second queries.
    pub fn warmup_iters(&self) -> usize {
        if self.tpch_sf >= 0.05 {
            0
        } else {
            1
        }
    }

    /// The default full configuration.
    pub fn full() -> ThroughputConfig {
        ThroughputConfig {
            sessions: 8,
            iters: 3,
            tpch_sf: 0.002,
            tpch_queries: vec![1, 3, 5, 6, 10, 12],
            seed: 2026,
            smoke: false,
            session_mode: false,
            tcp_mode: false,
        }
    }
}

/// One runnable query: an extended plan, its key establishment, and
/// the plaintext reference result.
struct WorkItem {
    name: String,
    /// Index into the workload's shared environments.
    env: usize,
    ext: ExtendedPlan,
    keys: KeyPlan,
    reference: Table,
}

/// A shared execution environment (catalog + subjects + policy + data).
struct Env {
    catalog: Catalog,
    subjects: Subjects,
    policy: Policy,
    db: Database,
    user: SubjectId,
}

/// The prepared workload: environments plus the query mix.
pub struct Workload {
    envs: Vec<Env>,
    items: Vec<WorkItem>,
}

/// Latency/byte statistics for one execution mode.
#[derive(Clone, Debug)]
pub struct ModeStats {
    /// Queries completed.
    pub queries: usize,
    /// Wall-clock seconds for the whole phase (all sessions).
    pub wall_secs: f64,
    /// Queries per second (queries / wall).
    pub qps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
}

/// The full harness report (serialized to `BENCH_dist.json`).
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Echo of the configuration.
    pub config: ThroughputConfig,
    /// Names of the queries in the mix.
    pub workload: Vec<String>,
    /// Stats for the concurrent thread-per-subject runtime.
    pub concurrent: ModeStats,
    /// Stats for the sequential reference interpreter.
    pub sequential: ModeStats,
    /// Stats for the persistent-`Session` path (`--session` only):
    /// the same workload through the concurrent runtime, but with one
    /// long-lived session per client and environment, so Def. 6.1
    /// provisioning runs once per cluster instead of once per query.
    pub session: Option<ModeStats>,
    /// Stats for the loopback-TCP transport (`--transport tcp` only):
    /// the persistent-session workload with every data-plane frame on
    /// a real socket. A measurement of the wire tax relative to the
    /// in-process modes; `bench_diff` never ratchets it.
    pub tcp: Option<ModeStats>,
    /// Total bytes on the wire per executed query (identical across
    /// the fresh modes by construction; asserted, not assumed —
    /// session-mode bytes are excluded: its envelope session keys and
    /// later-provisioned clusters draw from different RNG positions).
    pub bytes_per_query: f64,
    /// Signed sub-query requests per executed query.
    pub requests_per_query: f64,
    /// Distributed-vs-plaintext mismatches (must be empty).
    pub mismatches: Vec<String>,
}

impl ThroughputReport {
    /// `true` when every distributed result matched its plaintext
    /// reference.
    pub fn verified(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The Def. 6.1 amortization win: fresh-provisioning p50 over
    /// persistent-session p50 on the identical workload (>1 means the
    /// session is faster). `None` without `--session`. The single
    /// definition behind both the console line and the
    /// `session_speedup_p50` JSON field `bench_diff` gates.
    pub fn session_speedup_p50(&self) -> Option<f64> {
        let session = self.session.as_ref()?;
        Some(if session.p50_ms > 0.0 {
            self.concurrent.p50_ms / session.p50_ms
        } else {
            0.0
        })
    }
}

/// The Fig. 7 medical data (the running example's five patients, from
/// the shared fixture).
fn medical_db(ex: &RunningExample) -> Database {
    let mut db = Database::new();
    db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
    db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
    db
}

/// Centralized plaintext execution (the reference both runtimes must
/// reproduce).
fn plaintext_reference(catalog: &Catalog, db: &Database, plan: &mpq_algebra::QueryPlan) -> Table {
    let ring = KeyRing::new();
    let schemes = SchemePlan::default();
    let koa = HashMap::new();
    let ctx = mpq_exec::ExecCtx::new(catalog, db, &ring, &schemes, &koa);
    mpq_exec::execute(plan, &ctx).expect("plaintext reference run")
}

/// Extend the running example's plan under a named assignment.
fn fig7_item(
    ex: &RunningExample,
    cands: &Candidates,
    db: &Database,
    label: &str,
    assign: [&str; 4],
) -> WorkItem {
    let mut a = Assignment::new();
    for (node, s) in ["select_d", "join", "group", "having"].iter().zip(assign) {
        a.set(ex.node(node), ex.subject(s));
    }
    let ext = minimally_extend(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        cands,
        &a,
        Some(ex.subject("U")),
    )
    .expect("fig7 assignment drawn from Λ");
    let keys = plan_keys(&ext);
    WorkItem {
        name: label.to_string(),
        env: 0,
        ext,
        keys,
        reference: plaintext_reference(&ex.catalog, db, &ex.plan),
    }
}

/// Build the full workload: Fig. 7 variants + optimized TPC-H queries
/// under UAPenc over generated data.
pub fn build_workload(cfg: &ThroughputConfig) -> Workload {
    let ex = RunningExample::new();
    let med_db = medical_db(&ex);
    let cands = candidates(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &CapabilityPolicy::default(),
        true,
    );
    let mut items = vec![
        fig7_item(&ex, &cands, &med_db, "fig7a", ["H", "X", "X", "Y"]),
        fig7_item(&ex, &cands, &med_db, "fig7b", ["H", "Z", "Z", "Y"]),
        fig7_item(&ex, &cands, &med_db, "fig7_user", ["U", "U", "U", "U"]),
    ];
    let mut envs = vec![Env {
        catalog: ex.catalog.clone(),
        subjects: ex.subjects.clone(),
        policy: ex.policy.clone(),
        db: med_db,
        user: ex.subject("U"),
    }];

    if !cfg.tpch_queries.is_empty() {
        let (cat, db) = generate(cfg.tpch_sf, cfg.seed);
        // Statistics are collected from the data actually executed,
        // not analytic guesses (`mpq_planner::stats`).
        let stats = collect_stats(&cat, &db, &SampleConfig::default());
        let env = build_scenario(&cat, Scenario::UAPenc);
        for &q in &cfg.tpch_queries {
            let plan = query_plan(&cat, q);
            let reference = plaintext_reference(&cat, &db, &plan);
            let opt = optimize(
                &plan,
                &cat,
                &stats,
                &env,
                &CapabilityPolicy::tpch_evaluation(),
                Strategy::CostDp,
            )
            .unwrap_or_else(|e| panic!("Q{q} UAPenc: {e}"));
            items.push(WorkItem {
                name: format!("tpch_q{q}"),
                env: 1,
                ext: opt.extended,
                keys: opt.keys,
                reference,
            });
        }
        envs.push(Env {
            catalog: cat,
            subjects: env.subjects,
            policy: env.policy,
            db,
            user: env.user,
        });
    }

    Workload { envs, items }
}

/// Compare a distributed result against the plaintext reference —
/// shape first (a dropped or extra column must not slip through a
/// zip), then cell by cell.
fn check(item: &WorkItem, result: &Table) -> Result<(), String> {
    if item.reference.attrs().len() != result.attrs().len() {
        return Err(format!(
            "{}: column count {} vs reference {}",
            item.name,
            result.attrs().len(),
            item.reference.attrs().len()
        ));
    }
    if item.reference.len() != result.len() {
        return Err(format!(
            "{}: row count {} vs reference {}",
            item.name,
            result.len(),
            item.reference.len()
        ));
    }
    for (i, (a, b)) in item
        .reference
        .to_rows()
        .iter()
        .zip(&result.to_rows())
        .enumerate()
    {
        if a.len() != b.len() {
            return Err(format!(
                "{}: row {i} width {} vs reference {}",
                item.name,
                b.len(),
                a.len()
            ));
        }
        for (x, y) in a.iter().zip(b) {
            let ok = match (x.as_num(), y.as_num()) {
                (Some(p), Some(q)) => (p - q).abs() <= 1e-6 * p.abs().max(1.0),
                _ => x.sql_eq(y) || (x.is_null() && y.is_null()),
            };
            if !ok {
                return Err(format!("{}: row {i} cell {x:?} vs {y:?}", item.name));
            }
        }
    }
    Ok(())
}

/// Per-session measurements.
#[derive(Default)]
struct SessionOut {
    latencies_ms: Vec<f64>,
    bytes: usize,
    requests: usize,
    queries: usize,
    mismatches: Vec<String>,
}

/// Which execution path a phase measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// `Session::execute` after `reset_provisioning` — fresh Def. 6.1
    /// provisioning per query.
    Concurrent,
    /// `Session::execute_sequential`, likewise fresh per query — the
    /// same-thread reference scheduler.
    Sequential,
    /// `Session::execute` — one persistent session per client and
    /// environment, provisioning amortized across the iterations.
    Session,
    /// `Session::execute` over the loopback-TCP transport — the same
    /// persistent sessions, but the data plane crosses real sockets.
    Tcp,
}

/// Run one phase (all sessions × iters × items) in the given mode.
fn run_phase(wl: &Workload, cfg: &ThroughputConfig, phase: Phase) -> (ModeStats, SessionOut) {
    // Sessions first open their runtimes (per-party RSA identities
    // and party threads — setup cost, not query cost), then meet at
    // the barrier; the clock starts when the last one arrives. In the
    // session phase, key provisioning deliberately stays *inside* the
    // measured region: amortization is the phenomenon under test, so
    // first-iteration queries pay it and later ones show the win.
    let barrier = std::sync::Barrier::new(cfg.sessions + 1);
    let (outs, start): (Vec<SessionOut>, Instant) = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|session| {
                scope.spawn(move || {
                    let mut out = SessionOut::default();
                    let seed = cfg.seed ^ (session as u64).wrapping_mul(0x9E37_79B9);
                    // One session per environment. The fresh phases
                    // reset its provisioning before every query; the
                    // session phases let it amortize.
                    let fresh = matches!(phase, Phase::Concurrent | Phase::Sequential);
                    let mut config = SessionConfig::new(seed);
                    if phase == Phase::Tcp {
                        config = config.transport(TransportKind::Tcp);
                    }
                    let mut sessions: Vec<Session> = wl
                        .envs
                        .iter()
                        .map(|e| {
                            let config = config.clone();
                            Session::open_with(&e.catalog, &e.subjects, &e.policy, &e.db, config)
                        })
                        .collect();
                    barrier.wait();
                    for _ in 0..cfg.iters {
                        for item in &wl.items {
                            let env = &wl.envs[item.env];
                            let session = &mut sessions[item.env];
                            let t0 = Instant::now();
                            if fresh {
                                session.reset_provisioning();
                            }
                            let report = if phase == Phase::Sequential {
                                session.execute_sequential(&item.ext, &item.keys, env.user)
                            } else {
                                session.execute(&item.ext, &item.keys, env.user)
                            };
                            let dt = t0.elapsed().as_secs_f64() * 1e3;
                            match report {
                                Ok(r) => {
                                    out.latencies_ms.push(dt);
                                    out.bytes += r.total_bytes();
                                    out.requests += r.requests;
                                    out.queries += 1;
                                    if let Err(m) = check(item, &r.result) {
                                        out.mismatches.push(m);
                                    }
                                }
                                Err(e) => out
                                    .mismatches
                                    .push(format!("{}: runtime error: {e}", item.name)),
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        (
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread"))
                .collect(),
            start,
        )
    });
    let wall = start.elapsed().as_secs_f64();

    let mut merged = SessionOut::default();
    for o in outs {
        merged.latencies_ms.extend(o.latencies_ms);
        merged.bytes += o.bytes;
        merged.requests += o.requests;
        merged.queries += o.queries;
        merged.mismatches.extend(o.mismatches);
    }
    let mut sorted = merged.latencies_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx]
    };
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    };
    let stats = ModeStats {
        queries: merged.queries,
        wall_secs: wall,
        qps: if wall > 0.0 {
            merged.queries as f64 / wall
        } else {
            0.0
        },
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        mean_ms: mean,
    };
    (stats, merged)
}

/// Run the full harness: build the workload, measure both modes (plus
/// the persistent-session path when configured), verify every result.
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputReport {
    let wl = build_workload(cfg);
    // Unmeasured passes through each fresh path first, sized for the
    // scale factor (see [`ThroughputConfig::warmup_iters`]): at tiny
    // SF the fixed costs bias whichever phase runs first; at SF ≥ 0.05
    // the reference runs in `build_workload` already first-touched the
    // data and a full-scale warmup would only double the wall clock.
    let warmup = cfg.warmup_iters();
    if warmup > 0 {
        let warm = ThroughputConfig {
            iters: warmup,
            ..cfg.clone()
        };
        run_phase(&wl, &warm, Phase::Concurrent);
        run_phase(&wl, &warm, Phase::Sequential);
    }
    let (concurrent, conc_out) = run_phase(&wl, cfg, Phase::Concurrent);
    let (sequential, seq_out) = run_phase(&wl, cfg, Phase::Sequential);
    // The session phase needs no extra warmup pass: its own first
    // iteration *is* the cold (provisioning) case being compared
    // against the fresh-provisioning phases above.
    let session_phase = cfg
        .session_mode
        .then(|| run_phase(&wl, cfg, Phase::Session));
    // Same rationale for TCP: its first iteration pays socket setup
    // and provisioning, which is part of the wire tax being measured.
    let tcp_phase = cfg.tcp_mode.then(|| run_phase(&wl, cfg, Phase::Tcp));

    let mut mismatches = conc_out.mismatches;
    mismatches.extend(seq_out.mismatches);
    let session = session_phase.map(|(stats, out)| {
        mismatches.extend(out.mismatches);
        if out.queries != conc_out.queries {
            mismatches.push(format!(
                "session phase executed {} queries vs {} fresh",
                out.queries, conc_out.queries
            ));
        }
        if out.requests != conc_out.requests {
            mismatches.push(format!(
                "request accounting diverged: session {} requests vs fresh {}",
                out.requests, conc_out.requests
            ));
        }
        stats
    });
    let tcp = tcp_phase.map(|(stats, out)| {
        mismatches.extend(out.mismatches);
        if out.queries != conc_out.queries {
            mismatches.push(format!(
                "tcp phase executed {} queries vs {} fresh",
                out.queries, conc_out.queries
            ));
        }
        if out.requests != conc_out.requests {
            mismatches.push(format!(
                "request accounting diverged: tcp {} requests vs fresh {}",
                out.requests, conc_out.requests
            ));
        }
        stats
    });
    // The two modes must agree on the wire, not just on the rows.
    if conc_out.queries == seq_out.queries && conc_out.bytes != seq_out.bytes {
        mismatches.push(format!(
            "wire accounting diverged: concurrent {} bytes vs sequential {}",
            conc_out.bytes, seq_out.bytes
        ));
    }
    if conc_out.queries == seq_out.queries && conc_out.requests != seq_out.requests {
        mismatches.push(format!(
            "request accounting diverged: concurrent {} requests vs sequential {}",
            conc_out.requests, seq_out.requests
        ));
    }

    let per_query = |total: usize, queries: usize| -> f64 {
        if queries == 0 {
            0.0
        } else {
            total as f64 / queries as f64
        }
    };
    ThroughputReport {
        config: cfg.clone(),
        workload: wl.items.iter().map(|i| i.name.clone()).collect(),
        bytes_per_query: per_query(conc_out.bytes, conc_out.queries),
        requests_per_query: per_query(conc_out.requests, conc_out.queries),
        concurrent,
        sequential,
        session,
        tcp,
        mismatches,
    }
}

/// Serialize the report as pretty-printed JSON (hand-rolled: the
/// workspace has no serde).
pub fn to_json(r: &ThroughputReport) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let strings = |v: &[String]| {
        v.iter()
            .map(|s| format!("\"{}\"", esc(s)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mode = |m: &ModeStats| {
        format!(
            "{{\"queries\": {}, \"wall_secs\": {:.4}, \"qps\": {:.3}, \"p50_ms\": {:.3}, \
             \"p95_ms\": {:.3}, \"mean_ms\": {:.3}}}",
            m.queries, m.wall_secs, m.qps, m.p50_ms, m.p95_ms, m.mean_ms
        )
    };
    let speedup = if r.concurrent.p50_ms > 0.0 {
        r.sequential.p50_ms / r.concurrent.p50_ms
    } else {
        0.0
    };
    let session_part = r
        .session
        .as_ref()
        .map(|s| {
            format!(
                "  \"session\": {},\n  \"session_speedup_p50\": {:.3},\n",
                mode(s),
                r.session_speedup_p50().expect("session stats present")
            )
        })
        .unwrap_or_default();
    let tcp_part = r
        .tcp
        .as_ref()
        .map(|s| format!("  \"tcp\": {},\n", mode(s)))
        .unwrap_or_default();
    format!(
        "{{\n  \"bench\": \"mpq-dist throughput\",\n  \"mode\": \"{}\",\n  \"config\": \
         {{\"sessions\": {}, \"iters\": {}, \"tpch_sf\": {}, \"tpch_queries\": [{}], \"seed\": {}}},\n  \
         \"workload\": [{}],\n  \"concurrent\": {},\n  \"sequential\": {},\n{}{}  \
         \"speedup_p50\": {:.3},\n  \"bytes_per_query\": {:.1},\n  \"requests_per_query\": {:.2},\n  \
         \"verified\": {},\n  \"mismatches\": [{}]\n}}\n",
        if r.config.smoke { "smoke" } else { "full" },
        r.config.sessions,
        r.config.iters,
        r.config.tpch_sf,
        r.config
            .tpch_queries
            .iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        r.config.seed,
        strings(&r.workload),
        mode(&r.concurrent),
        mode(&r.sequential),
        session_part,
        tcp_part,
        speedup,
        r.bytes_per_query,
        r.requests_per_query,
        r.verified(),
        strings(&r.mismatches),
    )
}
