//! The traced run: a few passes with spans on, the walk, direct calls
//! into the crypto layer, and the per-layer metrics derived from them.
//!
//! All per-pass values are Σ over the pass's slots of the per-slot
//! median over the traced passes.

use crate::measure::{check, median, percentile, run_pass, slots, Mode, Sessions, Window};
use crate::reference::Speedometer;
use crate::trace::{self_times_us, Span, Tracer};
use crate::walk::{walk, WalkCounts};
use crate::workloads::{Planning, Workload};
use mpq_algebra::value::{EncScheme, Value};
use mpq_algebra::Operator;
use mpq_core::candidates::candidates;
use mpq_core::capability::CapabilityPolicy;
use mpq_core::dispatch::dispatch;
use mpq_core::profile::profile_plan;
use mpq_crypto::keyring::ClusterKey;
use mpq_crypto::paillier::PaillierKeypair;
use mpq_crypto::rsa::{RsaKeypair, SignedEnvelope};
use mpq_crypto::schemes::{decrypt_batch, encrypt_batch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Traced passes per traced run.
pub const TRACED_PASSES: usize = 5;
/// Cells sampled from the workload's own columns for the direct calls.
const MICRO_CELLS: usize = 1024;

/// Name → value of every per-layer metric.
pub type Values = BTreeMap<&'static str, f64>;

/// `[slot][pass]` sums of one quantity.
struct Grid(Vec<Vec<f64>>);

impl Grid {
    /// Σ over slots of the per-slot median over passes.
    fn per_pass(&self) -> f64 {
        self.0.iter().map(|passes| median(passes)).sum()
    }

    /// Mean over the chosen slots of the per-slot median over passes.
    fn mean_over(&self, pick: impl Fn(usize) -> bool) -> f64 {
        let picked: Vec<f64> = (0..self.0.len())
            .filter(|&s| pick(s))
            .map(|s| median(&self.0[s]))
            .collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64
        }
    }
}

/// Spans folded into `[slot][pass]` grids, keyed by quantity.
struct Folded {
    slots: usize,
    grids: BTreeMap<String, Grid>,
}

impl Folded {
    /// Fold the traced spans. Layer quantities (`core.*`, `walk.*`, …)
    /// count only under a `layers` root, so the planning spans that
    /// also occur inside each mode's `query` span are not counted
    /// three more times; `session.*` spans count wherever they occur.
    /// `walk.step` goes in by self time under `step.<kind>`.
    fn new(spans: &[Span], slots: usize) -> Folded {
        let own = self_times_us(spans);
        let mut folded = Folded {
            slots,
            grids: BTreeMap::new(),
        };
        for (id, span) in spans.iter().enumerate() {
            let mut root = id;
            while let Some(parent) = spans[root].parent {
                root = parent;
            }
            let in_layers = spans[root].name == "layers";
            if span.name == "walk.step" {
                let kind = span.tags.iter().find(|(k, _)| *k == "kind");
                let kind = kind.map_or("unknown", |(_, v)| v.as_str());
                folded.add(&format!("step.{kind}"), span, own[id]);
            } else if in_layers || span.name.starts_with("session.") {
                folded.add(span.name, span, span.dur_us());
            }
        }
        folded
    }

    fn add(&mut self, key: &str, span: &Span, us: f64) {
        let grid = self
            .grids
            .entry(key.to_string())
            .or_insert_with(|| Grid(vec![vec![0.0; TRACED_PASSES]; self.slots]));
        grid.0[span.slot][span.pass] += us;
    }

    /// Per-pass microseconds of `key` (0 when no such span occurred).
    fn us(&self, key: &str) -> f64 {
        self.grids.get(key).map_or(0.0, Grid::per_pass)
    }

    /// Mean microseconds per picked slot of `key`.
    fn mean_us(&self, key: &str, pick: impl Fn(usize) -> bool) -> f64 {
        self.grids.get(key).map_or(0.0, |g| g.mean_over(pick))
    }

    /// Per-pass milliseconds of `key`.
    fn ms(&self, key: &str) -> f64 {
        self.us(key) / 1e3
    }
}

/// Run the traced passes and derive every per-layer metric. `window`
/// is the untraced window of the same process (pass counts and the
/// tracing overhead are measured against it). Failures found here —
/// a wrong result, a walk whose root differs from the reference, walk
/// edge bytes more than 1 % off `Report::data_bytes()` — are appended
/// to `failures`; the return value also carries the attempted count.
pub fn traced_run(
    wl: &Workload,
    s: &mut Sessions,
    seed: u64,
    window: &Window,
    tr: &mut Tracer,
    failures: &mut Vec<String>,
) -> (Values, usize) {
    let pass_slots = slots(wl);
    let mut attempted = 0;
    let mut counts = WalkCounts::default();
    let mut model_cost = 0.0;
    let mut traced_conc_ms = Vec::new();
    let (mut request_bytes, mut requests) = (0, 0);
    let mut conc_stats = [0usize; 3];

    for pass in 0..TRACED_PASSES {
        tr.pass = pass;
        let mut conc_data_bytes = Vec::new();
        for k in 0..3 {
            let mode = Mode::ALL[(pass + k) % 3];
            let before = s.inproc.stats();
            let out = run_pass(wl, s, mode, tr, &mut Speedometer::off());
            attempted += out.slot_ms.len();
            failures.extend(out.failures.iter().map(|f| format!("traced {f}")));
            if mode == Mode::Conc {
                let after = s.inproc.stats();
                conc_stats[0] += after.clusters_provisioned - before.clusters_provisioned;
                conc_stats[1] += after.clusters_reused - before.clusters_reused;
                conc_stats[2] += after.publics_delivered - before.publics_delivered;
                traced_conc_ms.push(out.wall_ms);
                (request_bytes, requests) = (out.request_bytes, out.requests);
                conc_data_bytes = out.slot_data_bytes;
            }
        }

        counts = WalkCounts::default();
        model_cost = 0.0;
        for (ix, slot) in pass_slots.iter().enumerate() {
            let q = &wl.queries[slot.query];
            tr.slot = ix;
            attempted += 1;
            let walked = tr.span("layers", |tr| {
                let p = wl.plan(q, tr);
                if matches!(q.planning, Planning::CostDp) {
                    // Time the core layer on the optimizer's own
                    // assignment; `optimize` calls it internally.
                    let cands = tr.span("core.candidates", |_| {
                        candidates(
                            &q.plan,
                            &wl.catalog,
                            &wl.policy,
                            &wl.subjects,
                            &CapabilityPolicy::tpch_evaluation(),
                            true,
                        )
                    });
                    black_box(wl.extend(q, &cands, p.assignment.clone(), tr));
                }
                tr.span("core.profile", |_| black_box(profile_plan(&p.ext.plan)));
                tr.span("core.dispatch", |_| {
                    black_box(dispatch(&p.ext, &p.keys, &wl.catalog, &wl.subjects))
                });
                tr.span("exec.plain", |_| {
                    black_box(crate::workloads::plaintext(&wl.catalog, &wl.db, &q.plan))
                });
                model_cost += p.model_cost;
                tr.span("walk", |tr| walk(wl, &p, seed, tr))
            });
            match walked {
                Ok((root, c)) => {
                    if let Err(why) = check(q, &root) {
                        failures.push(format!("walk {why}"));
                    }
                    let reported = conc_data_bytes.get(ix).copied().unwrap_or(0) as f64;
                    if (c.edge_bytes as f64 - reported).abs() > 0.01 * reported {
                        failures.push(format!(
                            "walk {}: edge bytes {} vs Report::data_bytes() {reported}",
                            q.name, c.edge_bytes
                        ));
                    }
                    counts.add(&c);
                }
                Err(e) => failures.push(format!("walk {}: {e}", q.name)),
            }
        }
    }

    let folded = Folded::new(&tr.spans, pass_slots.len());
    let engine_ms =
        folded.ms("step.scan_select") + folded.ms("step.join") + folded.ms("step.groupby_sort");
    let per_traced_pass = |n: usize| n as f64 / TRACED_PASSES as f64;
    let untraced_conc = median(&window.raw_pass_ms(Mode::Conc));

    let mut v: Values = BTreeMap::new();
    v.insert("algebra.build_us", wl.parts.build_us);
    v.insert("core.candidates_us", folded.us("core.candidates"));
    v.insert("core.extend_us", folded.us("core.extend"));
    v.insert("core.profile_us", folded.us("core.profile"));
    v.insert("core.verify_us", folded.us("core.verify"));
    v.insert("core.plan_keys_us", folded.us("core.plan_keys"));
    v.insert("core.dispatch_us", folded.us("core.dispatch"));
    v.insert("core.plan_nodes", counts.plan_nodes as f64);
    v.insert("core.crypto_nodes", counts.crypto_nodes as f64);
    v.insert("core.key_clusters", counts.key_clusters as f64);
    v.insert("planner.optimize_us", folded.us("planner.optimize"));
    v.insert("planner.stats_ms", wl.parts.stats_ms);
    v.insert("planner.model_cost", model_cost);
    v.insert("tpch.generate_ms", wl.parts.generate_ms);
    v.insert("tpch.rows", wl.parts.rows as f64);
    v.insert("crypto.encrypt_ms", folded.ms("step.encrypt"));
    v.insert("crypto.decrypt_ms", folded.ms("step.decrypt"));
    v.insert("crypto.cells_det", counts.cells_det as f64);
    v.insert("crypto.cells_ope", counts.cells_ope as f64);
    v.insert("crypto.cells_rnd", counts.cells_rnd as f64);
    v.insert("crypto.cells_paillier", counts.cells_paillier as f64);
    v.insert("crypto.cells_decrypted", counts.cells_decrypted as f64);
    v.insert("exec.engine_ms", engine_ms);
    v.insert("exec.scan_select_ms", folded.ms("step.scan_select"));
    v.insert("exec.join_ms", folded.ms("step.join"));
    v.insert("exec.groupby_sort_ms", folded.ms("step.groupby_sort"));
    v.insert("exec.rows_scanned", counts.rows_scanned as f64);
    v.insert("exec.max_table_bytes", counts.max_table_bytes as f64);
    v.insert("exec.plain_pass_ms", folded.ms("exec.plain"));
    v.insert("exec.walk_ms", folded.ms("walk.steps"));
    v.insert("dist.open_ms", s.open_ms);
    v.insert("dist.open_tcp_ms", s.open_tcp_ms);
    v.insert("dist.audit_ms", folded.ms("walk.audit"));
    v.insert("dist.audit_cells", counts.audit_cells as f64);
    v.insert("dist.edges", counts.edges as f64);
    v.insert("dist.edge_bytes", counts.edge_bytes as f64);
    v.insert("dist.request_bytes", request_bytes as f64);
    v.insert("dist.requests", requests as f64);
    v.insert(
        "dist.protocol_ms",
        folded.ms("session.seq") - folded.ms("walk.steps"),
    );
    v.insert(
        "dist.sched_ms",
        folded.ms("session.conc") - folded.ms("session.seq"),
    );
    v.insert(
        "dist.wire_tax_ms",
        folded.ms("session.tcp") - folded.ms("session.conc"),
    );
    v.insert(
        "dist.cold_query_ms",
        folded.mean_us("session.conc", |s| pass_slots[s].cold) / 1e3,
    );
    v.insert(
        "dist.warm_query_ms",
        folded.mean_us("session.conc", |s| !pass_slots[s].cold) / 1e3,
    );
    v.insert("dist.clusters_provisioned", per_traced_pass(conc_stats[0]));
    v.insert("dist.clusters_reused", per_traced_pass(conc_stats[1]));
    v.insert("dist.publics_delivered", per_traced_pass(conc_stats[2]));
    v.insert("dist.retries", s.retries() as f64);
    v.insert("client.passes_conc", window.of(Mode::Conc).len() as f64);
    v.insert("client.passes_seq", window.of(Mode::Seq).len() as f64);
    v.insert("client.passes_tcp", window.of(Mode::Tcp).len() as f64);
    v.insert(
        "client.pass_ms_p90",
        percentile(&window.pass_ms(Mode::Conc), 0.9),
    );
    v.insert(
        "client.trace_overhead_frac",
        median(&traced_conc_ms) / untraced_conc - 1.0,
    );
    v.insert("client.slowdown", window.slowdown());
    v.extend(micro(wl, seed));
    (v, attempted)
}

/// Median seconds of `rounds` runs of `f`.
fn time_rounds(rounds: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// `MICRO_CELLS` numeric cells drawn (seeded, with replacement) from
/// the base-relation columns the workload's queries scan.
fn sample_cells(wl: &Workload, rng: &mut StdRng) -> Vec<Value> {
    let mut columns = Vec::new();
    for q in &wl.queries {
        for id in q.plan.postorder() {
            let Operator::Base { rel, attrs } = &q.plan.node(id).op else {
                continue;
            };
            let Some(table) = wl.db.table(*rel) else {
                continue;
            };
            for col in attrs.iter().filter_map(|a| table.col_index(*a)) {
                let column = table.column(col);
                if !column.is_empty() && matches!(column.get(0), Value::Int(_) | Value::Num(_)) {
                    columns.push(column);
                }
            }
        }
    }
    assert!(!columns.is_empty(), "workload scans no numeric column");
    (0..MICRO_CELLS)
        .map(|_| {
            let column = columns[rng.gen_range(0..columns.len())];
            column.get(rng.gen_range(0..column.len()))
        })
        .collect()
}

/// Direct calls into `mpq-crypto`: per-cell cost of each scheme on the
/// workload's own values, Paillier addition, RSA envelope seal/open
/// and cluster-key generation.
fn micro(wl: &Workload, seed: u64) -> Values {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x006d_6963_726f); // "micro"
    let cells = sample_cells(wl, &mut rng);
    let key = ClusterKey::generate(&mut rng, 0, 256);
    let per_cell = |secs: f64, scale: f64| secs * scale / MICRO_CELLS as f64;
    let mut v: Values = BTreeMap::new();

    for (scheme, rounds, scale, enc_name, dec_name) in [
        (
            EncScheme::Deterministic,
            5,
            1e9,
            "crypto.det_enc_ns",
            "crypto.det_dec_ns",
        ),
        (
            EncScheme::Ope,
            5,
            1e9,
            "crypto.ope_enc_ns",
            "crypto.ope_dec_ns",
        ),
        (
            EncScheme::Random,
            5,
            1e9,
            "crypto.rnd_enc_ns",
            "crypto.rnd_dec_ns",
        ),
        (
            EncScheme::Paillier,
            1,
            1e6,
            "crypto.paillier_enc_us",
            "crypto.paillier_dec_us",
        ),
    ] {
        let mut encrypted = Vec::new();
        let enc = time_rounds(rounds, || {
            encrypted = encrypt_batch(&mut rng, &cells, scheme, &key).expect("encrypt sample");
        });
        let dec = time_rounds(rounds, || {
            black_box(decrypt_batch(&encrypted, &key).expect("decrypt sample"));
        });
        v.insert(enc_name, per_cell(enc, scale));
        v.insert(dec_name, per_cell(dec, scale));
    }

    let paillier = PaillierKeypair::generate(&mut rng, 256);
    let pk = &paillier.public;
    let ciphertexts: Vec<_> = (0..64)
        .map(|i| pk.encrypt(&mut rng, &pk.encode_signed(i)))
        .collect();
    let add = time_rounds(1, || {
        let mut acc = ciphertexts[0].clone();
        for i in 0..MICRO_CELLS {
            acc = pk.add(&acc, &ciphertexts[i % 64]);
        }
        black_box(acc);
    });
    v.insert("crypto.paillier_add_us", per_cell(add, 1e6));

    let (user, provider) = (
        RsaKeypair::generate(&mut rng, 512),
        RsaKeypair::generate(&mut rng, 512),
    );
    let payload = vec![0x71u8; 256];
    let mut envelopes = Vec::new();
    let seal = time_rounds(1, || {
        envelopes = (0..64)
            .map(|_| SignedEnvelope::seal(&mut rng, &payload, &user, &provider.public))
            .collect();
    });
    let open = time_rounds(1, || {
        for e in &envelopes {
            assert!(e.open(&provider, &user.public).is_some(), "envelope opens");
        }
    });
    v.insert("crypto.rsa_seal_us", seal * 1e6 / 64.0);
    v.insert("crypto.rsa_open_us", open * 1e6 / 64.0);

    let keygen = time_rounds(9, || {
        black_box(ClusterKey::generate(&mut rng, 1, 256));
    });
    v.insert("crypto.cluster_keygen_ms", keygen * 1e3);
    v
}
