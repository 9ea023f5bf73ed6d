//! The walk: step 4 of `Session::execute_sequential` (the bottom-up
//! loop) re-written over public APIs, so that every plan node and every
//! cross-subject edge gets its own span and its own counts. What the
//! walk leaves out — runtime Def. 4.1, pre-flight, provisioning through
//! the cluster cache, envelope seal/open, per-party rings and stores —
//! is exactly what `dist.protocol_ms` attributes to `Session`.

use crate::trace::Tracer;
use crate::workloads::{Planned, Workload};
use mpq_algebra::value::EncScheme;
use mpq_algebra::{AttrId, NodeId, Operator, SubjectId};
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_dist::audit_transfer;
use mpq_exec::{
    assign_schemes, effective_children, execute_step, fused_encrypt_child, rewrite_literals,
    ExecCtx, Table,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

/// Paillier modulus bits of walk-generated cluster keys — the size
/// `Session` provisions.
const PAILLIER_BITS: usize = 256;

/// Which time bucket a step's self time goes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    Encrypt,
    Decrypt,
    ScanSelect,
    Join,
    GroupBySort,
}

impl StepKind {
    /// Bucket of an operator; `fused` marks a Select that encrypts its
    /// survivors itself (footnote 2).
    pub fn of(op: &Operator, fused: bool) -> StepKind {
        match op {
            Operator::Encrypt { .. } => StepKind::Encrypt,
            Operator::Select { .. } if fused => StepKind::Encrypt,
            Operator::Decrypt { .. } => StepKind::Decrypt,
            Operator::Base { .. }
            | Operator::Select { .. }
            | Operator::Project { .. }
            | Operator::Udf { .. } => StepKind::ScanSelect,
            Operator::Join { .. } | Operator::Product => StepKind::Join,
            Operator::GroupBy { .. }
            | Operator::Having { .. }
            | Operator::Sort { .. }
            | Operator::Limit { .. } => StepKind::GroupBySort,
        }
    }

    /// The tag value written on `walk.step` spans.
    pub fn tag(self) -> &'static str {
        match self {
            StepKind::Encrypt => "encrypt",
            StepKind::Decrypt => "decrypt",
            StepKind::ScanSelect => "scan_select",
            StepKind::Join => "join",
            StepKind::GroupBySort => "groupby_sort",
        }
    }
}

/// Exact counts of one walk (they repeat from pass to pass).
#[derive(Clone, Debug, Default)]
pub struct WalkCounts {
    pub plan_nodes: usize,
    pub crypto_nodes: usize,
    pub key_clusters: usize,
    /// Cells encrypted, by scheme: rows out × attributes of that scheme.
    pub cells_det: usize,
    pub cells_ope: usize,
    pub cells_rnd: usize,
    pub cells_paillier: usize,
    pub cells_decrypted: usize,
    pub rows_scanned: usize,
    pub max_table_bytes: usize,
    /// Cells (rows × columns) of every audited table.
    pub audit_cells: usize,
    /// Edges whose producer ≠ consumer, and the bytes they carried.
    pub edges: usize,
    pub edge_bytes: usize,
}

impl WalkCounts {
    /// Accumulate one slot's counts into the pass total (`max` for the
    /// largest table).
    pub fn add(&mut self, c: &WalkCounts) {
        self.plan_nodes += c.plan_nodes;
        self.crypto_nodes += c.crypto_nodes;
        self.key_clusters += c.key_clusters;
        self.cells_det += c.cells_det;
        self.cells_ope += c.cells_ope;
        self.cells_rnd += c.cells_rnd;
        self.cells_paillier += c.cells_paillier;
        self.cells_decrypted += c.cells_decrypted;
        self.rows_scanned += c.rows_scanned;
        self.max_table_bytes = self.max_table_bytes.max(c.max_table_bytes);
        self.audit_cells += c.audit_cells;
        self.edges += c.edges;
        self.edge_bytes += c.edge_bytes;
    }
}

/// Step `p`'s extended plan bottom-up under one ring holding every
/// cluster key. Returns the root table and the counts, or the first
/// error as text.
pub fn walk(
    wl: &Workload,
    p: &Planned,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Table, WalkCounts), String> {
    let ext = &p.ext;
    let mut counts = WalkCounts {
        plan_nodes: ext.plan.len(),
        crypto_nodes: ext.encryption_ops() + ext.decryption_ops(),
        key_clusters: p.keys.keys.len(),
        ..WalkCounts::default()
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let ring = KeyRing::new();
    let mut key_of_attr: HashMap<AttrId, u32> = HashMap::new();
    let (schemes, exec_plan) = tr.span("walk.prepare", |tr| {
        let schemes = assign_schemes(&ext.plan).map_err(|e| e.to_string())?;
        for (id, cluster) in p.keys.keys.iter().enumerate() {
            let key = tr.span("crypto.cluster_keygen", |_| {
                ClusterKey::generate(&mut rng, id as u32, PAILLIER_BITS)
            });
            ring.insert(key);
            key_of_attr.extend(cluster.attrs.iter().map(|a| (a, id as u32)));
        }
        let exec_plan = rewrite_literals(
            &ext.plan,
            &wl.catalog,
            &schemes,
            &key_of_attr,
            &ring,
            &mut rng,
        )?;
        Ok::<_, String>((schemes, exec_plan))
    })?;

    // Footnote-2 fusion sites, as `Session` derives them: an Encrypt
    // folds into its parent Select when both run under one subject.
    let fused: HashSet<NodeId> = exec_plan
        .postorder()
        .into_iter()
        .filter_map(|id| {
            let enc = fused_encrypt_child(&exec_plan, id)?;
            (ext.assignment[&id] == ext.assignment[&enc]).then_some(enc)
        })
        .collect();

    let ctx = ExecCtx::builder(&wl.catalog, &wl.db, &ring, &schemes, &key_of_attr)
        .seed(seed)
        .build();
    let mut results: HashMap<NodeId, Table> = HashMap::new();
    // Audit `table` against the receiving subject's view; returns the
    // cells (rows × columns) handed to the audit.
    let audit = |table: &Table, to: SubjectId, tr: &mut Tracer| -> Result<usize, String> {
        tr.span("walk.audit", |_| {
            audit_transfer(table, &wl.views[to.index()])
        })
        .map_err(|e| e.to_string())?;
        Ok(table.len() * table.attrs().len())
    };
    let root = exec_plan.root();
    let result = tr.span("walk.steps", |tr| {
        for id in exec_plan.postorder() {
            if fused.contains(&id) {
                continue;
            }
            let executor = ext.assignment[&id];
            let op = &exec_plan.node(id).op;
            let fused_enc = exec_plan
                .node(id)
                .children
                .iter()
                .find(|c| fused.contains(c))
                .copied();
            let table = tr.span("walk.step", |tr| {
                let mut rows_in = 0;
                for child in effective_children(&exec_plan, id, &fused) {
                    let table = &results[&child];
                    rows_in += table.len();
                    if ext.assignment[&child] != executor {
                        counts.audit_cells += audit(table, executor, tr)?;
                        counts.edges += 1;
                        counts.edge_bytes += table.byte_size();
                    }
                }
                let table =
                    execute_step(&exec_plan, id, &mut results, &ctx).map_err(|e| e.to_string())?;
                tr.tag("op", op.name());
                tr.tag("kind", StepKind::of(op, fused_enc.is_some()).tag());
                tr.tag("assignee", wl.subjects.name(executor));
                tr.tag("rows_in", rows_in);
                tr.tag("rows_out", table.len());
                Ok::<_, String>(table)
            })?;
            counts.max_table_bytes = counts.max_table_bytes.max(table.byte_size());
            match op {
                Operator::Base { .. } => counts.rows_scanned += table.len(),
                Operator::Decrypt { attrs } => counts.cells_decrypted += table.len() * attrs.len(),
                _ => {}
            }
            // The Encrypt this step performed: itself, or the one
            // folded into it.
            let encrypted = match (op, fused_enc.map(|enc| &exec_plan.node(enc).op)) {
                (Operator::Encrypt { attrs }, _) | (_, Some(Operator::Encrypt { attrs })) => {
                    attrs.as_slice()
                }
                _ => &[],
            };
            for &a in encrypted {
                *match schemes.scheme_of(a) {
                    EncScheme::Deterministic => &mut counts.cells_det,
                    EncScheme::Ope => &mut counts.cells_ope,
                    EncScheme::Random => &mut counts.cells_rnd,
                    EncScheme::Paillier => &mut counts.cells_paillier,
                } += table.len();
            }
            results.insert(id, table);
        }
        let result = results.remove(&root).ok_or("root never executed")?;
        counts.audit_cells += audit(&result, wl.user, tr)?;
        if ext.assignment[&root] != wl.user {
            counts.edges += 1;
            counts.edge_bytes += result.byte_size();
        }
        Ok::<_, String>(result)
    })?;
    Ok((result, counts))
}
