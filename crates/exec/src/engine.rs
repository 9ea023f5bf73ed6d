//! Plan execution over streaming column batches.
//!
//! [`execute`] compiles a plan into a pull-model pipeline of streams
//! of bounded [`Table`]s — batches — (one stream per operator) and
//! drains the root. Pipelined operators — scan, select, project,
//! encrypt, decrypt, having, udf, limit — transform one batch at a
//! time, so their memory is `O(batch_rows)`, not `O(relation)`.
//! Pipeline breakers materialize exactly what they must: hash joins
//! collect the build side and probe batch-wise, group-by holds one
//! accumulator row per group, sort collects its input before permuting
//! it. Nothing is spilled or sampled silently.
//!
//! **One output rule.** Operators move columns: every output table is
//! assembled from `slice` / `gather` / `append` over input columns, or
//! from one freshly computed column per output attribute (udf,
//! group-by, crypto). Expressions run a column at a time too
//! (`eval_select` / [`eval_column`]: a predicate narrows one selection
//! of the batch's rows, which σ gathers on; an aggregate input, udf body
//! or sort key is one column), reading cells where they lie. Hash
//! operators do too: ⋈, γ and `COUNT(DISTINCT)` hash key *columns* in
//! typed loops into one `KeyTable` and compare candidates in place — a
//! key cell is copied once per group, never for a join. A join's residual predicate is a
//! mask over its candidate pairs, evaluated on just the columns it
//! reads; a product is a join without conditions. No operator
//! materializes a row: the row walk is the [`crate::rowref`] oracle's.
//!
//! **Determinism contract.** Every Random or Paillier cell an
//! `Encrypt` writes draws from an RNG seeded by `(seed, node, column,
//! row)`, where `row` is the global row index in the operator's input
//! stream (the running sum of batch lengths). Batch size therefore
//! cannot change a single ciphertext byte — the `parallel_differential`
//! proptests pin this against the row-at-a-time reference engine in
//! [`crate::rowref`]. Det and OPE cells draw nothing: they are a
//! function of key and value, so an `Encrypt` over its own base scan
//! encrypts each distinct value of the stored column once per query —
//! the column's dictionary — and gathers every batch by row code
//! (`tests/dictionary_encrypt.rs` holds it to the row walk).
//!
//! **One thread.** Every operator processes each batch whole, on the
//! thread that pulls the root; nothing splits an operator's rows.
//!
//! Key enforcement: `Encrypt`/`Decrypt` nodes require the executing
//! context to *hold* the cluster key ([`ExecError::MissingKey`]
//! otherwise); homomorphic aggregation only needs the public half.

use crate::batch::{ColumnVec, KeyEq, KeySeed, TableSchema, DEFAULT_BATCH_ROWS};
use crate::eval::{cmp_cells, eval_column, eval_select, mask_until_failure, EvalError};
use crate::scheme::SchemePlan;
use crate::table::{Batches, Database, Table};
use mpq_algebra::expr::{AggExpr, AggFunc};
use mpq_algebra::value::{CellRef, EncColumn, EncScheme, EncValue};
use mpq_algebra::{
    AttrId, AttrSet, CmpOp, Expr, JoinKind, NodeId, Operator, QueryPlan, RelId, Value,
};
use mpq_crypto::keyring::KeyRing;
use mpq_crypto::paillier::PaillierPublic;
use mpq_crypto::schemes::{
    decrypt_value, paillier_add_cell, paillier_finish, AggKind, ColumnCipher, EncryptError, RowRng,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Execution errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// No table loaded for a base relation.
    MissingTable(String),
    /// Expression evaluation failed.
    Eval(EvalError),
    /// The executing subject does not hold the key needed by an
    /// encryption/decryption operator.
    MissingKey {
        /// Attribute being processed.
        attr: AttrId,
        /// Cluster key id.
        key_id: u32,
    },
    /// No key id registered for an attribute scheduled for encryption.
    NoKeyForAttr(AttrId),
    /// A join condition's two key columns carry different forms:
    /// ciphertext against plaintext, or ciphertexts under different
    /// schemes or keys. The plan fixes every form (extension encrypts
    /// a join side whose partner arrives encrypted), so only a plan
    /// from elsewhere gets here; without this refusal the comparison
    /// would silently match zero rows (the MPQ009 hazard, behavioral
    /// edition).
    MixedForm {
        /// The probe side's attribute of the condition.
        attr: AttrId,
    },
    /// Cryptographic failure (wrong key, malformed cell).
    Crypto(String),
    /// Structurally unsupported plan shape.
    Unsupported(String),
    /// `node` reads the output of `operand`, which lies outside the
    /// region being run and was not supplied as an input. A region
    /// never computes a node that is not its own: another subject's
    /// node must arrive as a table, not run under this subject's keys.
    MissingOperand {
        /// The node being compiled.
        node: NodeId,
        /// Its child outside the region.
        operand: NodeId,
    },
}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> Self {
        ExecError::Eval(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingTable(r) => write!(f, "no data loaded for relation {r}"),
            ExecError::Eval(e) => write!(f, "evaluation error: {e}"),
            ExecError::MissingKey { attr, key_id } => {
                write!(
                    f,
                    "executor does not hold key {key_id} for attribute {attr}"
                )
            }
            ExecError::NoKeyForAttr(a) => write!(f, "no plan key covers attribute {a}"),
            ExecError::MixedForm { attr } => write!(
                f,
                "mixed-form join comparison on attribute {attr}: its two sides \
                 arrive in different forms"
            ),
            ExecError::Crypto(m) => write!(f, "crypto error: {m}"),
            ExecError::Unsupported(m) => write!(f, "unsupported plan: {m}"),
            ExecError::MissingOperand { node, operand } => write!(
                f,
                "node {node} reads node {operand}, which is outside the region being run \
                 and was not supplied"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Default base seed for encryption randomness (`"mpq"`).
pub(crate) const DEFAULT_SEED: u64 = 0x006d_7071;

/// splitmix64-style seed mixing: derive an independent stream for `v`
/// under stream-id `h`. Used to give every (node, column, row) its own
/// RNG so ciphertexts are identical no matter how rows are batched.
pub(crate) fn mix_seed(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Execution context.
///
/// Construct through [`ExecCtx::builder`], which folds the formerly
/// positional knobs (seed, batch size) into one place — the
/// exec-side mirror of `mpq-dist`'s `SessionConfig`.
pub struct ExecCtx<'a> {
    /// Catalog (names for diagnostics).
    pub catalog: &'a mpq_algebra::Catalog,
    /// Base-relation data.
    pub db: &'a Database,
    /// Keys held by the executing subject.
    pub keys: &'a KeyRing,
    /// Scheme per attribute for `Encrypt` nodes.
    pub schemes: &'a SchemePlan,
    /// Attribute → plan-key id (Def. 6.1 clusters).
    pub key_of_attr: &'a HashMap<AttrId, u32>,
    /// Base seed for encryption randomness. Every `Encrypt` cell draws
    /// from an RNG seeded by `(seed, node, column, row)`, so execution
    /// order and batching cannot change ciphertexts.
    pub seed: u64,
    /// Rows per streamed batch (pipelined operators hold at most this
    /// many rows at a time).
    pub batch_rows: usize,
}

/// Builder for [`ExecCtx`]: the five shared references are positional
/// (they have no defaults), everything tunable is a named knob.
pub struct ExecCtxBuilder<'a>(ExecCtx<'a>);

impl<'a> ExecCtxBuilder<'a> {
    /// Override the encryption-randomness base seed (default: a fixed
    /// deterministic seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }

    /// Override the stream batch size (default:
    /// [`crate::batch::DEFAULT_BATCH_ROWS`]). Values below 1 are
    /// clamped to 1.
    pub fn batch_rows(mut self, batch_rows: usize) -> Self {
        self.0.batch_rows = batch_rows.max(1);
        self
    }

    /// Finish the context.
    pub fn build(self) -> ExecCtx<'a> {
        self.0
    }
}

impl<'a> ExecCtx<'a> {
    /// Start a builder over the shared execution state.
    pub fn builder(
        catalog: &'a mpq_algebra::Catalog,
        db: &'a Database,
        keys: &'a KeyRing,
        schemes: &'a SchemePlan,
        key_of_attr: &'a HashMap<AttrId, u32>,
    ) -> ExecCtxBuilder<'a> {
        ExecCtxBuilder(ExecCtx {
            catalog,
            db,
            keys,
            schemes,
            key_of_attr,
            seed: DEFAULT_SEED,
            batch_rows: DEFAULT_BATCH_ROWS,
        })
    }

    /// Context with every knob at its default (deterministic seed,
    /// default batch size).
    pub fn new(
        catalog: &'a mpq_algebra::Catalog,
        db: &'a Database,
        keys: &'a KeyRing,
        schemes: &'a SchemePlan,
        key_of_attr: &'a HashMap<AttrId, u32>,
    ) -> ExecCtx<'a> {
        ExecCtx::builder(catalog, db, keys, schemes, key_of_attr).build()
    }
}

// ---------------------------------------------------------------------------
// Batch streams
// ---------------------------------------------------------------------------

/// A pull-model stream of batches — [`Table`]s of at most `batch_rows`
/// rows — sharing one schema. `pull` returns `Ok(None)` when exhausted;
/// empty batches are never emitted.
struct BatchStream<'p> {
    schema: TableSchema,
    next: Box<dyn FnMut() -> Result<Option<Table>, ExecError> + 'p>,
}

impl BatchStream<'_> {
    fn pull(&mut self) -> Result<Option<Table>, ExecError> {
        (self.next)()
    }

    /// Drain into the batches the stream emitted, as they are.
    fn collect(mut self) -> Result<Batches, ExecError> {
        let batches = std::iter::from_fn(|| self.pull().transpose()).collect::<Result<_, _>>()?;
        Ok(Batches {
            schema: self.schema,
            batches,
        })
    }
}

/// Stream the columns `indices` of the stored `table` under `schema`,
/// in `batch_rows` slices: how a base scan borrows the database's table
/// and projects it.
fn scan<'p>(
    table: &'p Table,
    schema: TableSchema,
    indices: Vec<usize>,
    batch_rows: usize,
) -> BatchStream<'p> {
    let step = batch_rows.max(1);
    let mut start = 0usize;
    BatchStream {
        schema: schema.clone(),
        next: Box::new(move || {
            let n = table.len();
            if start >= n {
                return Ok(None);
            }
            let end = (start + step).min(n);
            let cols = indices
                .iter()
                .map(|&i| table.column(i).slice(start..end))
                .collect();
            start = end;
            Ok(Some(Table::from_columns(schema.clone(), cols)))
        }),
    }
}

/// Stream owned batches — a delivered operand, a blocking operator's
/// result — as they are: a batch moves through whole, and only one
/// longer than `batch_rows` (a table decoded off a socket, a blocking
/// result) is cut into `batch_rows` slices. Empty batches are skipped.
fn scan_owned(batches: Batches, batch_rows: usize) -> BatchStream<'static> {
    let step = batch_rows.max(1);
    let mut queue = batches.batches.into_iter();
    let mut long: Option<(Table, usize)> = None;
    BatchStream {
        schema: batches.schema,
        next: Box::new(move || loop {
            if let Some((table, start)) = &mut long {
                let end = (*start + step).min(table.len());
                let slice = table.slice(*start..end);
                *start = end;
                if end == table.len() {
                    long = None;
                }
                return Ok(Some(slice));
            }
            match queue.next() {
                None => return Ok(None),
                Some(b) if b.is_empty() => {}
                Some(b) if b.len() <= step => return Ok(Some(b)),
                Some(b) => long = Some((b, 0)),
            }
        }),
    }
}

/// Stream a transformation of `child`: `f` maps each input batch to an
/// output batch (or `None` to drop it, e.g. fully filtered away).
fn map_stream<'p, F>(mut child: BatchStream<'p>, schema: TableSchema, mut f: F) -> BatchStream<'p>
where
    F: FnMut(Table) -> Result<Option<Table>, ExecError> + 'p,
{
    BatchStream {
        schema,
        next: Box::new(move || {
            while let Some(batch) = child.pull()? {
                if let Some(out) = f(batch)? {
                    if !out.is_empty() {
                        return Ok(Some(out));
                    }
                }
            }
            Ok(None)
        }),
    }
}

/// Stream whose table is computed in one blocking step on first pull
/// (group-by, sort: inherently materializing operators).
fn blocking_stream<'p, F>(schema: TableSchema, batch_rows: usize, init: F) -> BatchStream<'p>
where
    F: FnOnce() -> Result<Table, ExecError> + 'p,
{
    let mut init = Some(init);
    let mut inner: Option<BatchStream<'static>> = None;
    BatchStream {
        schema,
        next: Box::new(move || {
            if inner.is_none() {
                let table = (init.take().expect("initialized once"))()?;
                inner = Some(scan_owned(table.into(), batch_rows));
            }
            inner.as_mut().expect("initialized above").pull()
        }),
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Execute a whole plan as one streaming pipeline, returning the root
/// table.
pub fn execute(plan: &QueryPlan, ctx: &ExecCtx<'_>) -> Result<Table, ExecError> {
    let root = execute_region(plan, plan.root(), &|_| true, &mut HashMap::new(), ctx)?;
    Ok(root.into_table())
}

/// Execute the region of `plan` rooted at `root` as one streaming
/// pipeline: the nodes `member` accepts are compiled, and a child that
/// is not one must be waiting in `inputs` (it is consumed from there)
/// — a child that is neither is an [`ExecError::MissingOperand`], and
/// nothing runs. A member whose table is already in `inputs` is read
/// from there, not recomputed.
///
/// This is how `mpq-dist` runs a Fig. 8 sub-query: the members are one
/// subject's maximal connected group of nodes, `ctx` holds that
/// subject's key ring and base relations, and `inputs` the results
/// other subjects sent it. Nothing is materialized between members,
/// and nothing at either end: a delivered operand streams its batches
/// as they are, and the result is the batches the root emitted.
pub fn execute_region(
    plan: &QueryPlan,
    root: NodeId,
    member: &dyn Fn(NodeId) -> bool,
    inputs: &mut HashMap<NodeId, Batches>,
    ctx: &ExecCtx<'_>,
) -> Result<Batches, ExecError> {
    compile_node(plan, root, inputs, member, ctx)?.collect()
}

/// Execute a single node against already-materialized child results:
/// the region of `id` alone — plus, under footnote 2, the Encrypt a
/// fusible Select folds in when the caller did not materialize it.
/// Children of `id` are consumed from `results`; the caller inserts the
/// returned table under `id` before stepping any parent. Within the
/// step, child tables are re-streamed in `ctx.batch_rows` slices, so
/// the step's working set beyond its inputs stays batch-bounded.
pub fn execute_step(
    plan: &QueryPlan,
    id: NodeId,
    results: &mut HashMap<NodeId, Table>,
    ctx: &ExecCtx<'_>,
) -> Result<Table, ExecError> {
    let folded = fused_encrypt_child(plan, id);
    let member = |n| n == id || Some(n) == folded;
    let mut inputs: HashMap<NodeId, Batches> =
        results.drain().map(|(n, t)| (n, t.into())).collect();
    let out = execute_region(plan, id, &member, &mut inputs, ctx);
    // A table the step did not read stays where it was.
    results.extend(inputs.into_iter().map(|(n, b)| (n, b.into_table())));
    Ok(out?.into_table())
}

/// The operands `id` actually consumes when the Encrypt nodes in
/// `fused` are folded into their parent Selects (footnote 2): a fused
/// child contributes its *own* children — the plaintext inputs the
/// combined filter-then-encrypt step reads — instead of itself.
pub fn effective_children(plan: &QueryPlan, id: NodeId, fused: &HashSet<NodeId>) -> Vec<NodeId> {
    let mut out = Vec::new();
    for &c in &plan.node(id).children {
        if fused.contains(&c) {
            out.extend(plan.node(c).children.iter().copied());
        } else {
            out.push(c);
        }
    }
    out
}

/// Resolve child `k` of `id` as a stream: a supplied table when one
/// exists, otherwise the compiled child operator — if the child
/// belongs to the region being compiled.
fn child_stream<'p>(
    plan: &'p QueryPlan,
    id: NodeId,
    k: usize,
    inputs: &mut HashMap<NodeId, Batches>,
    member: &dyn Fn(NodeId) -> bool,
    ctx: &'p ExecCtx<'p>,
) -> Result<BatchStream<'p>, ExecError> {
    let cid = plan.node(id).children[k];
    if let Some(operand) = inputs.remove(&cid) {
        return Ok(scan_owned(operand, ctx.batch_rows));
    }
    if !member(cid) {
        return Err(ExecError::MissingOperand {
            node: id,
            operand: cid,
        });
    }
    compile_node(plan, cid, inputs, member, ctx)
}

fn compile_node<'p>(
    plan: &'p QueryPlan,
    id: NodeId,
    inputs: &mut HashMap<NodeId, Batches>,
    member: &dyn Fn(NodeId) -> bool,
    ctx: &'p ExecCtx<'p>,
) -> Result<BatchStream<'p>, ExecError> {
    let node = plan.node(id);
    match &node.op {
        Operator::Base { rel, attrs } => {
            let table = ctx
                .db
                .table(*rel)
                .ok_or_else(|| ExecError::MissingTable(ctx.catalog.rel(*rel).name.clone()))?;
            let indices: Vec<usize> = attrs
                .iter()
                .map(|a| {
                    table
                        .col_index(*a)
                        .ok_or_else(|| ExecError::Unsupported(format!("column {a} missing")))
                })
                .collect::<Result<_, _>>()?;
            let schema = TableSchema::new(attrs.clone());
            Ok(scan(table, schema, indices, ctx.batch_rows))
        }
        Operator::Project { attrs } => {
            let child = child_stream(plan, id, 0, inputs, member, ctx)?;
            let indices: Vec<usize> = attrs
                .iter()
                .map(|a| {
                    child
                        .schema
                        .col_index(*a)
                        .ok_or_else(|| ExecError::Unsupported(format!("column {a} missing")))
                })
                .collect::<Result<_, _>>()?;
            // When no source column is emitted twice, columns move out
            // of the consumed batch instead of being cloned.
            let unique = {
                let mut seen = indices.clone();
                seen.sort_unstable();
                seen.windows(2).all(|w| w[0] != w[1])
            };
            let schema = TableSchema::new(attrs.clone());
            Ok(map_stream(child, schema.clone(), move |batch| {
                let cols = if unique {
                    let mut src: Vec<Option<ColumnVec>> =
                        batch.into_columns().into_iter().map(Some).collect();
                    indices
                        .iter()
                        .map(|&i| src[i].take().expect("unique indices"))
                        .collect()
                } else {
                    let src = batch.into_columns();
                    indices.iter().map(|&i| src[i].clone()).collect()
                };
                Ok(Some(Table::from_columns(schema.clone(), cols)))
            }))
        }
        Operator::Select { pred } => {
            // Footnote-2 reordering: when a `Select` sits directly on
            // an `Encrypt` that is this region's to run (not a table
            // supplied by its producer) and the predicate is
            // [fusible](fused_encrypt_child), evaluate the condition
            // on the plaintext input and encrypt only the survivors.
            // Not an option: the region cut decides it.
            let child = node.children[0];
            if member(child) && !inputs.contains_key(&child) {
                if let Some(enc_id) = fused_encrypt_child(plan, id) {
                    return crypto_node(plan, enc_id, Some(pred), inputs, member, ctx);
                }
            }
            let child = child_stream(plan, id, 0, inputs, member, ctx)?;
            let schema = child.schema.clone();
            Ok(map_stream(child, schema, move |batch| {
                filter_batch(pred, batch, None)
            }))
        }
        Operator::Having { pred } => {
            let child = child_stream(plan, id, 0, inputs, member, ctx)?;
            // Extended plans may splice Decrypt/Encrypt between the
            // HAVING and its GROUP BY; both preserve the row layout.
            let agg_base = (plan.agg_scope(id))
                .ok_or_else(|| ExecError::Unsupported("HAVING over a non-GroupBy child".into()))?
                .base();
            let schema = child.schema.clone();
            Ok(map_stream(child, schema, move |batch| {
                filter_batch(pred, batch, Some(agg_base))
            }))
        }
        Operator::Product | Operator::Join { .. } => {
            let left = child_stream(plan, id, 0, inputs, member, ctx)?;
            let right = child_stream(plan, id, 1, inputs, member, ctx)?;
            // A product is a join without conditions: every build row
            // is every probe row's candidate, left-major.
            let (kind, on, residual) = match &node.op {
                Operator::Join { kind, on, residual } => (*kind, &on[..], residual.as_ref()),
                _ => (JoinKind::Inner, &[][..], None),
            };
            join_stream(kind, on, residual, left, right)
        }
        Operator::GroupBy { keys, aggs } => {
            let child = child_stream(plan, id, 0, inputs, member, ctx)?;
            let mut attrs: Vec<AttrId> = keys.to_vec();
            attrs.extend(aggs.iter().map(|a| a.output));
            let schema = TableSchema::new(attrs);
            let keys = keys.to_vec();
            let aggs = aggs.to_vec();
            Ok(blocking_stream(schema.clone(), ctx.batch_rows, move || {
                group_by_stream(&keys, &aggs, child, schema, ctx)
            }))
        }
        Operator::Udf {
            inputs: udf_inputs,
            output,
            body,
            ..
        } => {
            let child = child_stream(plan, id, 0, inputs, member, ctx)?;
            let body = body
                .as_ref()
                .ok_or_else(|| ExecError::Unsupported("opaque udf cannot be executed".into()))?;
            let (out_idx, drop_idx, kept) = udf_layout(udf_inputs, *output, child.schema.attrs())?;
            Ok(udf_stream(
                child,
                out_idx,
                drop_idx,
                body,
                TableSchema::new(kept),
            ))
        }
        Operator::Encrypt { .. } | Operator::Decrypt { .. } => {
            crypto_node(plan, id, None, inputs, member, ctx)
        }
        Operator::Sort { keys } => {
            let agg_base = plan.agg_scope(id).map(|scope| scope.base());
            let child = child_stream(plan, id, 0, inputs, member, ctx)?;
            let schema = child.schema.clone();
            let keys = keys.to_vec();
            Ok(blocking_stream(schema, ctx.batch_rows, move || {
                sort_stream(&keys, agg_base, child)
            }))
        }
        Operator::Limit { n } => {
            let mut child = child_stream(plan, id, 0, inputs, member, ctx)?;
            let schema = child.schema.clone();
            let mut remaining = *n as usize;
            Ok(BatchStream {
                schema,
                next: Box::new(move || {
                    if remaining == 0 {
                        return Ok(None);
                    }
                    match child.pull()? {
                        None => Ok(None),
                        Some(mut batch) => {
                            if batch.len() > remaining {
                                batch = batch.slice(0..remaining);
                            }
                            remaining -= batch.len();
                            Ok(Some(batch))
                        }
                    }
                }),
            })
        }
    }
}

/// Evaluate `pred` over `batch` and gather the passing rows (`None`
/// when nothing passes).
fn filter_batch(
    pred: &Expr,
    batch: Table,
    agg_base: Option<usize>,
) -> Result<Option<Table>, ExecError> {
    let kept = eval_select(pred, &batch, agg_base)?;
    if kept.is_empty() {
        return Ok(None);
    }
    if kept.len() == batch.len() {
        return Ok(Some(batch));
    }
    let cols = batch.columns().iter().map(|c| c.gather(&kept)).collect();
    Ok(Some(Table::from_columns(batch.schema().clone(), cols)))
}

// ---------------------------------------------------------------------------
// Footnote-2 fusion: filter before encrypt
// ---------------------------------------------------------------------------

/// `true` when every reference `pred` makes to an attribute in `enc`
/// is a direct column-vs-literal comparison — the shapes whose
/// rewritten literals a key holder can decrypt back and evaluate on
/// the plaintext input with a result provably identical to evaluating
/// the rewritten predicate on ciphertext (Deterministic equality is
/// injective, OPE is order-preserving, and `align_int_cmp` already
/// normalized the operator at rewrite time). Anything else touching an
/// encrypted attribute (LIKE, IS NULL, EXTRACT, arithmetic,
/// column-vs-column) disqualifies the fusion.
fn pred_fusible(e: &Expr, enc: &AttrSet) -> bool {
    let clear_of_enc = |x: &Expr| !x.attrs().intersects(enc);
    match e {
        Expr::And(parts) | Expr::Or(parts) => parts.iter().all(|p| pred_fusible(p, enc)),
        Expr::Not(inner) => pred_fusible(inner, enc),
        Expr::Cmp(l, _, r) => {
            matches!(
                (&**l, &**r),
                (Expr::Col(_), Expr::Lit(_)) | (Expr::Lit(_), Expr::Col(_))
            ) || clear_of_enc(e)
        }
        Expr::Between { expr, lo, hi, .. } => {
            (matches!(&**expr, Expr::Col(_))
                && matches!(&**lo, Expr::Lit(_))
                && matches!(&**hi, Expr::Lit(_)))
                || clear_of_enc(e)
        }
        Expr::InList { expr, .. } => matches!(&**expr, Expr::Col(_)) || clear_of_enc(e),
        other => clear_of_enc(other),
    }
}

/// Footnote-2 eligibility, decided on plan shape alone: when `id` is a
/// `Select` sitting directly on an `Encrypt` and the predicate is
/// fusible w.r.t. the encrypted attributes, returns the Encrypt's
/// `NodeId`. The same test drives the engine's fused stream and the
/// cost model's post-selection pricing credit. Whether the two nodes
/// actually fuse is the region's business: only when both are members
/// of the region being run.
pub fn fused_encrypt_child(plan: &QueryPlan, id: NodeId) -> Option<NodeId> {
    let Operator::Select { pred } = &plan.node(id).op else {
        return None;
    };
    let cid = *plan.node(id).children.first()?;
    let Operator::Encrypt { attrs } = &plan.node(cid).op else {
        return None;
    };
    let enc: AttrSet = attrs.iter().copied().collect();
    pred_fusible(pred, &enc).then_some(cid)
}

/// Decrypt the literal a rewritten predicate compares against an
/// attribute of the fused Encrypt: the dispatcher encrypted it for
/// evaluation *above* the Encrypt, but the fused step evaluates on the
/// plaintext input below it. Literals for attributes outside `enc`
/// (encrypted lower in the plan) stay ciphertext — they still compare
/// against ciphertext columns.
fn decrypt_lit(
    v: &Value,
    attr: AttrId,
    enc: &AttrSet,
    ctx: &ExecCtx<'_>,
) -> Result<Value, ExecError> {
    let Value::Enc(ev) = v else {
        return Ok(v.clone());
    };
    if !enc.contains(attr) {
        return Ok(v.clone());
    }
    let key = ctx.keys.get(ev.key_id).ok_or(ExecError::MissingKey {
        attr,
        key_id: ev.key_id,
    })?;
    decrypt_value(v, &key).map_err(|e| ExecError::Crypto(e.to_string()))
}

/// Rewrite `pred` for plaintext evaluation under a fused Encrypt:
/// every literal compared against an attribute in `enc` is decrypted
/// back with the executor's cluster key. Precondition:
/// [`pred_fusible`] holds.
fn decrypt_pred_literals(pred: &Expr, enc: &AttrSet, ctx: &ExecCtx<'_>) -> Result<Expr, ExecError> {
    pred.try_map_atoms(&mut |atom| {
        Ok(match atom {
            Expr::Cmp(l, op, r) => match (&**l, &**r) {
                (Expr::Col(a), Expr::Lit(v)) => Expr::Cmp(
                    l.clone(),
                    *op,
                    Box::new(Expr::Lit(decrypt_lit(v, *a, enc, ctx)?)),
                ),
                (Expr::Lit(v), Expr::Col(a)) => Expr::Cmp(
                    Box::new(Expr::Lit(decrypt_lit(v, *a, enc, ctx)?)),
                    *op,
                    r.clone(),
                ),
                _ => atom.clone(),
            },
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => match (&**expr, &**lo, &**hi) {
                (Expr::Col(a), Expr::Lit(vl), Expr::Lit(vh)) => Expr::Between {
                    expr: expr.clone(),
                    lo: Box::new(Expr::Lit(decrypt_lit(vl, *a, enc, ctx)?)),
                    hi: Box::new(Expr::Lit(decrypt_lit(vh, *a, enc, ctx)?)),
                    negated: *negated,
                },
                _ => atom.clone(),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => match &**expr {
                Expr::Col(a) => Expr::InList {
                    expr: expr.clone(),
                    list: list
                        .iter()
                        .map(|v| decrypt_lit(v, *a, enc, ctx))
                        .collect::<Result<_, _>>()?,
                    negated: *negated,
                },
                _ => atom.clone(),
            },
            other => other.clone(),
        })
    })
}

// ---------------------------------------------------------------------------
// Encrypt / Decrypt
// ---------------------------------------------------------------------------

/// Per-attribute crypto work resolved once at compile time: the column
/// cipher (key schedules, Paillier context), the columns carrying the
/// attribute, the attribute's seed stream, and — for a Det or OPE
/// encrypt of a column the region scans from its stored relation — the
/// column's row codes and its dictionary, encrypted.
struct CryptoPlan<'p> {
    cipher: ColumnCipher,
    col_idxs: Vec<usize>,
    attr_seed: u64,
    dictionary: Option<(&'p [u32], EncColumn)>,
}

/// Compile the `Encrypt` or `Decrypt` node `id` over its child. `keep`
/// is the predicate of a Select fused onto an `Encrypt` (footnote 2),
/// evaluated on the plaintext input with its literals decrypted. The
/// crypto plans are keyed to `id` either way, so every ciphertext draws
/// from the same seed stream as the unfused plan order.
fn crypto_node<'p>(
    plan: &'p QueryPlan,
    id: NodeId,
    keep: Option<&Expr>,
    inputs: &mut HashMap<NodeId, Batches>,
    member: &dyn Fn(NodeId) -> bool,
    ctx: &'p ExecCtx<'p>,
) -> Result<BatchStream<'p>, ExecError> {
    let node = plan.node(id);
    let (Operator::Encrypt { attrs } | Operator::Decrypt { attrs }) = &node.op else {
        unreachable!("crypto_node compiles Encrypt and Decrypt nodes");
    };
    let encrypt = matches!(node.op, Operator::Encrypt { .. });
    let scanned = local_scan(plan, node.children[0], inputs, member).filter(|_| encrypt);
    let child = child_stream(plan, id, 0, inputs, member, ctx)?;
    let plans = crypto_plans(attrs, &child.schema, id, ctx, scanned)?;
    let enc: AttrSet = attrs.iter().copied().collect();
    let keep = keep
        .map(|pred| decrypt_pred_literals(pred, &enc, ctx))
        .transpose()?;
    Ok(crypto_stream(child, plans, encrypt, keep))
}

/// The stored relation `id` scans when it is a base scan its region runs
/// itself rather than a table delivered to it.
fn local_scan(
    plan: &QueryPlan,
    id: NodeId,
    inputs: &HashMap<NodeId, Batches>,
    member: &dyn Fn(NodeId) -> bool,
) -> Option<RelId> {
    match plan.node(id).op {
        Operator::Base { rel, .. } if member(id) && !inputs.contains_key(&id) => Some(rel),
        _ => None,
    }
}

/// Resolve keys/schemes for an `Encrypt`/`Decrypt` node. Key presence
/// is checked here — before any data flows — so an unprovisioned
/// executor is refused even on empty inputs. `scanned` is the stored
/// relation an `Encrypt` reads straight from its own base scan; the
/// dictionary of each of its Det or OPE columns is encrypted here, once
/// per query.
fn crypto_plans<'p>(
    attrs: &[AttrId],
    schema: &TableSchema,
    id: NodeId,
    ctx: &ExecCtx<'p>,
    scanned: Option<RelId>,
) -> Result<Vec<CryptoPlan<'p>>, ExecError> {
    attrs
        .iter()
        .map(|attr| {
            let key_id = *ctx
                .key_of_attr
                .get(attr)
                .ok_or(ExecError::NoKeyForAttr(*attr))?;
            let key = ctx.keys.get(key_id).ok_or(ExecError::MissingKey {
                attr: *attr,
                key_id,
            })?;
            let scheme = ctx.schemes.scheme_of(*attr);
            // Every column carrying this attribute is processed.
            let col_idxs: Vec<usize> = schema
                .attrs()
                .iter()
                .enumerate()
                .filter(|(_, c)| **c == *attr)
                .map(|(i, _)| i)
                .collect();
            let cipher = ColumnCipher::new(scheme, &key);
            let attr_seed = mix_seed(mix_seed(ctx.seed, id.index() as u64), attr.0 as u64);
            // Det and OPE cells draw nothing from the generator. A
            // dictionary with a value that does not encrypt leaves the
            // per-row path to fail where it fails (or not at all, when
            // a σ drops the row or a limit stops first).
            let dictionary = match (scanned, scheme, col_idxs.len()) {
                (Some(rel), EncScheme::Deterministic | EncScheme::Ope, 1) => {
                    ctx.db.dictionary(rel, *attr).and_then(|dict| {
                        let rng = &mut StdRng::seed_from_u64(attr_seed);
                        let enc = encrypt_column(&dict.values, &cipher, rng).ok()?;
                        Some((&dict.codes[..], enc))
                    })
                }
                _ => None,
            };
            Ok(CryptoPlan {
                cipher,
                col_idxs,
                attr_seed,
                dictionary,
            })
        })
        .collect()
}

/// Stream Encrypt/Decrypt: each batch is transformed in place, with
/// every cell's RNG seeded from its *global* row index (`row_off` +
/// in-batch offset), so ciphertexts are independent of batch layout.
///
/// `keep` is the fused Select-over-Encrypt of footnote 2: a
/// (literal-decrypted) predicate evaluated on the plaintext batch
/// first. Failing rows are dropped and only the survivors are
/// encrypted — each still under its *original* offset, so what comes
/// out is byte-identical to encrypt-then-filter.
fn crypto_stream<'p>(
    child: BatchStream<'p>,
    plans: Vec<CryptoPlan<'p>>,
    encrypt: bool,
    keep: Option<Expr>,
) -> BatchStream<'p> {
    let schema = child.schema.clone();
    let mut row_off = 0usize;
    map_stream(child, schema.clone(), move |batch| {
        let base = row_off;
        row_off += batch.len();
        let kept = match &keep {
            Some(pred) => Some(eval_select(pred, &batch, None)?),
            None => None,
        };
        let (mut cols, kept) = match kept {
            Some(mut kept) if kept.len() < batch.len() => {
                if kept.is_empty() {
                    return Ok(None);
                }
                let cols = batch.columns().iter().map(|c| c.gather(&kept)).collect();
                kept.iter_mut().for_each(|r| *r += base);
                (cols, Some(kept))
            }
            _ => (batch.into_columns(), None),
        };
        let offsets = match &kept {
            Some(kept) => Offsets::Sparse(kept),
            None => Offsets::Dense(base),
        };
        for plan in &plans {
            apply_crypto_plan(&mut cols, plan, encrypt, &offsets)?;
        }
        Ok(Some(Table::from_columns(schema.clone(), cols)))
    })
}

/// Global row offsets for a batch's cells: `Dense` when the batch is a
/// contiguous slice of the operator's input stream, `Sparse` when a
/// fused selection already dropped rows and the survivors must keep
/// their pre-selection offsets (the determinism contract's `row`).
enum Offsets<'a> {
    Dense(usize),
    Sparse(&'a [usize]),
}

impl Offsets<'_> {
    #[inline]
    fn at(&self, i: usize) -> u64 {
        match self {
            Offsets::Dense(base) => (base + i) as u64,
            Offsets::Sparse(offs) => offs[i] as u64,
        }
    }
}

/// The determinism contract as a [`RowRng`]: the generator for a
/// batch's `row`-th cell is seeded from the cell's global offset.
struct SeededRows<'a> {
    attr_seed: u64,
    offsets: &'a Offsets<'a>,
    rng: Option<StdRng>,
}

impl RowRng for SeededRows<'_> {
    type Rng = StdRng;

    fn row(&mut self, row: usize) -> &mut StdRng {
        let offset = self.offsets.at(row);
        self.rng
            .insert(StdRng::seed_from_u64(mix_seed(self.attr_seed, offset)))
    }
}

/// Encrypt the cells of `col` straight into one ciphertext buffer,
/// every cell read where it lies. A column that is ciphertext already
/// passes its NULLs and refuses the rest.
fn encrypt_column(
    col: &ColumnVec,
    cipher: &ColumnCipher,
    rngs: impl RowRng,
) -> Result<EncColumn, EncryptError> {
    // One cell loop per representation: a single loop over
    // `col.cell_ref(i)` asks each cell for its representation, which
    // costs 10–25 % of a Det cell.
    match col {
        ColumnVec::Int(v) => cipher.encrypt_column(v.iter().map(|&i| CellRef::Int(i)), rngs),
        ColumnVec::Num(v) => cipher.encrypt_column(v.iter().map(|&f| CellRef::Num(f)), rngs),
        ColumnVec::Date(v) => cipher.encrypt_column(v.iter().map(|&d| CellRef::Date(d)), rngs),
        ColumnVec::Str(c) => cipher.encrypt_column(c.cells(0..c.len()).map(CellRef::Str), rngs),
        ColumnVec::Val(v) => cipher.encrypt_column(&v[..], rngs),
        ColumnVec::Enc(_) => cipher.encrypt_column((0..col.len()).map(|i| col.cell_ref(i)), rngs),
    }
}

/// Decrypt the cells of `col`, each from the bytes where they lie.
/// NULLs pass; a plaintext cell is refused. A Random column is one CTR
/// run. A Det or OPE ciphertext is a function of its value, so each
/// distinct one is decrypted once.
fn decrypt_column(col: &ColumnVec, cipher: &ColumnCipher) -> Result<ColumnVec, EncryptError> {
    if let ColumnVec::Enc(c) = col {
        if c.scheme() == EncScheme::Random {
            return Ok(cipher.decrypt_random_column(c)?.into_iter().collect());
        }
    }
    let mut memo: HashMap<(EncScheme, u32, &[u8]), Value> = HashMap::new();
    let mut out = ColumnVec::new();
    for i in 0..col.len() {
        out.push(match col.cell_ref(i) {
            CellRef::Null => Value::Null,
            CellRef::Enc(scheme @ (EncScheme::Deterministic | EncScheme::Ope), key_id, cell) => {
                match memo.entry((scheme, key_id, cell)) {
                    Entry::Occupied(v) => v.get().clone(),
                    Entry::Vacant(slot) => {
                        (slot.insert(cipher.decrypt_cell(scheme, key_id, cell)?)).clone()
                    }
                }
            }
            CellRef::Enc(scheme, key_id, cell) => cipher.decrypt_cell(scheme, key_id, cell)?,
            _ => return Err(EncryptError::WrongForm),
        });
    }
    Ok(out)
}

fn crypto_error(e: EncryptError) -> ExecError {
    ExecError::Crypto(e.to_string())
}

/// Apply one attribute's cipher to its column(s) within a batch.
///
/// The single-column case (the overwhelmingly common one) works on the
/// column itself, into a column of its own. When an attribute occurs
/// in several columns the row engine's semantics are preserved
/// exactly: the columns share one per-row RNG, consumed in
/// column-index order.
fn apply_crypto_plan(
    cols: &mut [ColumnVec],
    plan: &CryptoPlan<'_>,
    encrypt: bool,
    offsets: &Offsets<'_>,
) -> Result<(), ExecError> {
    match plan.col_idxs.as_slice() {
        [] => Ok(()),
        &[i] => {
            let col = &cols[i];
            let out = if !encrypt {
                decrypt_column(col, &plan.cipher)
            } else if let Some((codes, dict)) = &plan.dictionary {
                // A batch row's offset is its row in the stored relation.
                let rows = (0..col.len()).map(|r| Some(codes[offsets.at(r) as usize] as usize));
                Ok(ColumnVec::Enc(dict.gather(rows)))
            } else {
                let rngs = SeededRows {
                    attr_seed: plan.attr_seed,
                    offsets,
                    rng: None,
                };
                encrypt_column(col, &plan.cipher, rngs).map(ColumnVec::Enc)
            };
            cols[i] = out.map_err(crypto_error)?;
            Ok(())
        }
        idxs => {
            // Rare path: transpose the attribute's columns into row
            // tuples so one RNG serves all of a row's cells, as the
            // row-at-a-time engine did.
            let tuples = (0..cols[idxs[0]].len())
                .map(|r| {
                    let mut rng = StdRng::seed_from_u64(mix_seed(plan.attr_seed, offsets.at(r)));
                    idxs.iter()
                        .map(|&i| {
                            let cell = cols[i].get(r);
                            if encrypt {
                                plan.cipher.encrypt(&mut rng, &cell)
                            } else {
                                plan.cipher.decrypt(&cell)
                            }
                            .map_err(crypto_error)
                        })
                        .collect::<Result<Vec<Value>, ExecError>>()
                })
                .collect::<Result<Vec<_>, ExecError>>()?;
            for (k, &i) in idxs.iter().enumerate() {
                cols[i] = tuples.iter().map(|t| t[k].clone()).collect();
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// The `(scheme, key)` header of an encrypted cell or column; `None`
/// for plaintext.
pub(crate) type Form = Option<(EncScheme, u32)>;

/// The form of a run of key cells: `None` while none is non-NULL,
/// otherwise `Some` of the first non-NULL cell's form. The engine
/// encrypts and decrypts whole columns, so one cell speaks for all.
pub(crate) fn form_of<'a>(mut cells: impl Iterator<Item = CellRef<'a>>) -> Option<Form> {
    cells.find_map(|cell| match cell {
        CellRef::Null => None,
        CellRef::Enc(scheme, key_id, _) => Some(Some((scheme, key_id))),
        _ => Some(None),
    })
}

/// Refuse a join condition whose two sides carry different forms —
/// ciphertext against plaintext, or under another scheme or key
/// ([`CellRef::key_eq`] would match no pair). A side without a
/// non-NULL cell matches nothing either way and is never refused.
pub(crate) fn one_form(attr: AttrId, l: Option<Form>, r: Option<Form>) -> Result<(), ExecError> {
    match (l, r) {
        (Some(l), Some(r)) if l != r => Err(ExecError::MixedForm { attr }),
        _ => Ok(()),
    }
}

fn column_form(col: &ColumnVec) -> Option<Form> {
    form_of((0..col.len()).map(|i| col.cell_ref(i)))
}

// ---------------------------------------------------------------------------
// The key table
// ---------------------------------------------------------------------------

/// No entry: the end of a bucket's chain.
const NONE: u32 = u32::MAX;

/// Key hash → entries, and no key: what an entry *is* — a build row of
/// a join, a group of a γ, a distinct cell — its user knows, and
/// compares with a candidate where both lie ([`CellRef::key_eq`]).
/// Entries are numbered in the order they were added and chained per
/// bucket through `next`; the hashes arrive from outside
/// ([`hash_rows`]), so nothing here depends on their quality but speed.
pub(crate) struct KeyTable {
    seed: KeySeed,
    /// Per bucket (a power of two of them) its first entry, or [`NONE`].
    heads: Vec<u32>,
    /// Per entry the next one in its bucket, or [`NONE`].
    next: Vec<u32>,
    /// Per entry its key hash.
    hashes: Vec<u64>,
}

impl Default for KeyTable {
    fn default() -> KeyTable {
        KeyTable::new(KeySeed::default(), Vec::new())
    }
}

impl KeyTable {
    /// A table of one entry per hash, at most half full. Chains run in
    /// entry order: a join's candidates in build-row order.
    fn new(seed: KeySeed, hashes: Vec<u64>) -> KeyTable {
        let mut table = KeyTable {
            seed,
            heads: vec![NONE; (hashes.len() * 2).next_power_of_two().max(16)],
            next: vec![NONE; hashes.len()],
            hashes,
        };
        (0..table.next.len())
            .rev()
            .for_each(|entry| table.link(entry));
        table
    }

    /// Put `entry` at the head of its hash's bucket.
    fn link(&mut self, entry: usize) {
        assert!(entry < NONE as usize, "a key table holds under 2³² entries");
        let bucket = self.hashes[entry] as usize & (self.heads.len() - 1);
        self.next[entry] = self.heads[bucket];
        self.heads[bucket] = entry as u32;
    }

    /// Add the next entry under `hash` — into a table of twice the
    /// size once this one is full; returns the entry's number.
    fn push(&mut self, hash: u64) -> usize {
        let entry = self.hashes.len();
        self.hashes.push(hash);
        if entry < self.heads.len() {
            self.next.push(NONE);
            self.link(entry);
        } else {
            *self = KeyTable::new(self.seed, std::mem::take(&mut self.hashes));
        }
        entry
    }

    /// The entries whose hash is `hash`: the candidates a key with
    /// that hash is compared with.
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads[hash as usize & (self.heads.len() - 1)];
        std::iter::from_fn(move || {
            while at != NONE {
                let entry = at as usize;
                at = self.next[entry];
                if self.hashes[entry] == hash {
                    return Some(entry);
                }
            }
            None
        })
    }
}

/// The key hash of each of `rows` over the key columns `keys`, a column
/// at a time.
fn hash_rows<'a>(
    keys: impl IntoIterator<Item = &'a ColumnVec>,
    seed: KeySeed,
    rows: std::ops::Range<usize>,
) -> Vec<u64> {
    let mut hashes = vec![0; rows.len()];
    for col in keys {
        col.hash_keys(rows.clone(), seed, &mut hashes);
    }
    hashes
}

/// One join condition: its probe side's attribute, its key column on
/// each side, and the operator.
struct JoinCond {
    attr: AttrId,
    lc: usize,
    op: CmpOp,
    rc: usize,
}

/// One condition as [`probe_batch`] reads it: the probe side's key
/// column, the operator, the build side's key column.
type CondSides<'a> = (&'a ColumnVec, CmpOp, &'a ColumnVec);

fn join_stream<'p>(
    kind: JoinKind,
    on: &[(AttrId, CmpOp, AttrId)],
    residual: Option<&'p Expr>,
    mut left: BatchStream<'p>,
    right: BatchStream<'p>,
) -> Result<BatchStream<'p>, ExecError> {
    let lschema = left.schema.clone();
    let rschema = right.schema.clone();
    let conds: Vec<JoinCond> = on
        .iter()
        .map(|(l, op, r)| {
            Ok(JoinCond {
                attr: *l,
                lc: lschema
                    .col_index(*l)
                    .ok_or_else(|| ExecError::Unsupported(format!("join key {l} missing")))?,
                op: *op,
                rc: rschema
                    .col_index(*r)
                    .ok_or_else(|| ExecError::Unsupported(format!("join key {r} missing")))?,
            })
        })
        .collect::<Result<_, ExecError>>()?;

    let mut out_attrs = lschema.attrs().to_vec();
    if kind.keeps_right() {
        out_attrs.extend(rschema.attrs().iter().copied());
    }
    let out_schema = TableSchema::new(out_attrs);
    // What the residual reads of a candidate pair: the first column of
    // `left ++ right` carrying each attribute it names, as a lookup in
    // the pair's row finds it.
    let (named, mut seen) = (
        residual.map(Expr::attrs).unwrap_or_default(),
        AttrSet::new(),
    );
    let both = lschema.attrs().iter().chain(rschema.attrs()).copied();
    let reads: Vec<(usize, AttrId)> = (both.enumerate())
        .filter(|&(_, a)| named.contains(a) && seen.insert(a))
        .collect();

    let schema = out_schema.clone();
    let mut right = Some(right);
    let mut right_tab: Option<Table> = None;
    let mut rforms: Vec<Option<Form>> = Vec::new();
    let mut hash: Option<KeyTable> = None;
    Ok(BatchStream {
        schema: out_schema,
        next: Box::new(move || {
            // Build side: materialize the right child once, and take
            // the form of each of its key columns.
            if right_tab.is_none() {
                let right = right.take().expect("collected once");
                let rt = right.collect()?.into_table();
                rforms = conds.iter().map(|c| column_form(rt.column(c.rc))).collect();
                right_tab = Some(rt);
            }
            let rt = right_tab.as_ref().expect("materialized above");
            loop {
                let Some(lbatch) = left.pull()? else {
                    return Ok(None);
                };
                for (c, &rform) in conds.iter().zip(&rforms) {
                    one_form(c.attr, column_form(lbatch.column(c.lc)), rform)?;
                }
                let sides = (conds.iter()).map(|c| (lbatch.column(c.lc), c.op, rt.column(c.rc)));
                let (eq, other): (Vec<CondSides<'_>>, Vec<_>) =
                    sides.partition(|(_, op, _)| op.is_equality());
                // Hash build: deferred until some probe row actually
                // has all its equality keys non-NULL. The key table is
                // over the right side's equality key columns, hashed a
                // column at a time and linked in one pass — no key is
                // copied, the build table holds them. A row with a NULL
                // key is chained like any other and equals no key a
                // probe row asks for (SQL semantics: NULL join keys
                // never match).
                if hash.is_none() && !eq.is_empty() {
                    let needed =
                        (0..lbatch.len()).any(|r| eq.iter().all(|(l, _, _)| !l.is_null(r)));
                    if needed {
                        let (seed, keys) = (KeySeed::default(), eq.iter().map(|(_, _, r)| *r));
                        hash = Some(KeyTable::new(seed, hash_rows(keys, seed, 0..rt.len())));
                    }
                }
                let probe = Probe {
                    kind,
                    lbatch: &lbatch,
                    rt,
                    hash: hash.as_ref(),
                    eq: &eq,
                    other: &other,
                    residual,
                    reads: &reads,
                };
                let pairs = probe_batch(&probe)?;
                if pairs.is_empty() {
                    continue;
                }
                let lidx: Vec<usize> = pairs.iter().map(|p| p.0).collect();
                let mut cols: Vec<ColumnVec> =
                    lbatch.columns().iter().map(|c| c.gather(&lidx)).collect();
                if kind.keeps_right() {
                    let ridx: Vec<Option<usize>> = pairs.iter().map(|p| p.1).collect();
                    cols.extend(rt.columns().iter().map(|c| c.gather_padded(&ridx)));
                }
                return Ok(Some(Table::from_columns(schema.clone(), cols)));
            }
        }),
    })
}

/// What [`probe_batch`] reads: a probe batch and the materialized build
/// side, the equality conditions and the key table over their build
/// columns — absent while no probe row has needed it — the conditions
/// every candidate is then held to, and what the residual reads.
struct Probe<'a> {
    kind: JoinKind,
    lbatch: &'a Table,
    rt: &'a Table,
    hash: Option<&'a KeyTable>,
    eq: &'a [CondSides<'a>],
    other: &'a [CondSides<'a>],
    residual: Option<&'a Expr>,
    reads: &'a [(usize, AttrId)],
}

/// Probe one left batch against the materialized right side: the
/// matching `(left row, right row)` index pairs, which the join
/// gathers its output columns from. `None` on the right is a
/// `LeftOuter` row without a match (NULL padding); `Semi` and `Anti`
/// report the left row only. Pairs come in probe order, candidates in
/// build order.
///
/// A probe row's candidates are the build rows its conditions hold
/// for, up to a condition that fails. Without a residual they are its
/// matches, and the row is [`decide`]d at once. Under one, the batch's
/// candidate pairs are collected first and the residual is one mask
/// over all of them; each row is then decided on the pairs it holds on.
fn probe_batch(p: &Probe<'_>) -> Result<Vec<(usize, Option<usize>)>, ExecError> {
    // Under a residual, which candidate is a `Semi` / `Anti` row's
    // first match is known only once the mask is.
    let stops = matches!(p.kind, JoinKind::Semi | JoinKind::Anti);
    let undecided = stops && p.residual.is_some();
    let rows = 0..p.lbatch.len();
    let mut out = Vec::with_capacity(rows.len());
    // Per pair its build row and — under a residual — its probe row;
    // per probe row walked where its pairs end; per condition that
    // failed its probe row.
    let (mut lis, mut ris, mut ends, mut failures) = (vec![], vec![], vec![], vec![]);
    let lkeys = p.eq.iter().map(|(l, _, _)| *l);
    let hashes = (p.hash).map(|table| hash_rows(lkeys, table.seed, rows.clone()));
    for li in rows.clone() {
        // Without an equality every build row is a candidate;
        // with one, the rows the key table chains under this row's
        // hash that hold this row's key (a NULL key has none).
        let all = p.eq.is_empty().then_some(0..p.rt.len());
        let keyed = p.eq.iter().all(|(l, _, _)| !l.is_null(li));
        let same = |l: &ColumnVec, r: &ColumnVec, ri| l.cell_ref(li).key_eq(r.cell_ref(ri));
        let held = move |ri: &usize| p.eq.iter().all(|(l, _, r)| same(l, r, *ri));
        let chained = (p.hash.zip(hashes.as_ref()).filter(|_| keyed))
            .map(|(table, hashes)| table.chain(hashes[li]).filter(held));
        let (start, mut failed) = (ris.len(), None);
        for ri in (all.into_iter().flatten()).chain(chained.into_iter().flatten()) {
            // Non-equality join conditions, up to the first that
            // does not hold.
            let cmp = |(l, op, r): &CondSides<'_>| cmp_cells(l.cell_ref(li), *op, r.cell_ref(ri));
            match p.other.iter().map(cmp).find(|t| *t != Ok(Some(true))) {
                Some(Ok(_)) => continue,
                Some(Err(e)) => failed = Some(e),
                None => {
                    ris.push(ri);
                    if !stops || undecided {
                        continue;
                    }
                }
            }
            break;
        }
        if p.residual.is_none() {
            decide(p.kind, li, &ris[start..], failed.as_ref(), &mut out)?;
            ris.truncate(start);
            continue;
        }
        lis.resize(ris.len(), li);
        ends.push(ris.len());
        failures.extend(failed.map(|e| (li, e)));
        // A failure no match can come before ends the walk.
        if !undecided && failures.last().is_some_and(|(row, _)| *row == li) {
            break;
        }
    }
    let Some(residual) = p.residual else {
        return Ok(out);
    };

    let width = p.lbatch.columns().len();
    let cols = p.reads.iter().map(|&(c, _)| match c.checked_sub(width) {
        None => p.lbatch.column(c).gather(&lis),
        Some(rc) => p.rt.column(rc).gather(&ris),
    });
    let attrs = p.reads.iter().map(|&(_, a)| a).collect();
    let pairs = Table::from_columns(TableSchema::new(attrs), cols.collect());
    // The residual's truth on `rows` of the pairs — valid before the
    // first pair it fails on, which comes back with its error.
    let judge = |rows: std::ops::Range<usize>| {
        let (truth, failed) = mask_until_failure(residual, &pairs, None, rows.clone());
        (truth, failed.map(|(k, e)| (rows.start + k, e)))
    };
    let (mut truth, mut failed) = judge(0..ris.len());
    let (mut start, mut one_by_one, mut held) = (0, false, Vec::new());
    let mut failures = failures.iter().peekable();
    for (li, end) in rows.zip(ends) {
        // Behind a failing pair a match kept the walk from, the
        // batch is judged a probe row at a time: one evaluation more
        // per row, never one per failure — no peer's data buys
        // quadratic work.
        one_by_one |= failed.as_ref().is_some_and(|(f, _)| *f < start);
        if one_by_one {
            let (row_truth, row_failed) = judge(start..end);
            truth[start..end].copy_from_slice(&row_truth);
            failed = row_failed;
        }
        // The first failure the walk reaches: the residual's on a
        // pair, else a condition's after the row's pairs.
        let reached = failed.as_ref().map_or(end, |(f, _)| end.min(*f));
        let cond_failed = failures.next_if(|(row, _)| *row == li);
        let failure = failed.as_ref().filter(|_| reached < end).or(cond_failed);
        held.clear();
        held.extend(
            (start..reached)
                .filter(|&k| truth[k] == Some(true))
                .map(|k| ris[k]),
        );
        decide(p.kind, li, &held, failure.map(|(_, e)| e), &mut out)?;
        start = end;
    }
    Ok(out)
}

/// What probe row `li` adds to `out`, from the build rows it matches in
/// walk order — up to the first failure the walk reaches — and that
/// failure, which is the join's error unless `Semi` / `Anti` stopped at
/// a match before it.
fn decide(
    kind: JoinKind,
    li: usize,
    matches: &[usize],
    failure: Option<&EvalError>,
    out: &mut Vec<(usize, Option<usize>)>,
) -> Result<(), ExecError> {
    let (matched, stops) = (
        !matches.is_empty(),
        matches!(kind, JoinKind::Semi | JoinKind::Anti),
    );
    if let Some(e) = failure.filter(|_| !(stops && matched)) {
        return Err(e.clone().into());
    }
    if !stops {
        out.extend(matches.iter().map(|&ri| (li, Some(ri))));
    }
    // `LeftOuter` and `Anti` keep a row without a match, `Semi` one with.
    if kind != JoinKind::Inner && matched == (kind == JoinKind::Semi) {
        out.push((li, None));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// The distinct non-NULL cells one `COUNT(DISTINCT)` group has seen: a
/// key table over the cells it keeps.
#[derive(Default)]
pub(crate) struct Distinct {
    table: KeyTable,
    cells: ColumnVec,
}

impl Distinct {
    /// Count `cell` in, copying it only when it is new.
    fn insert(&mut self, cell: CellRef<'_>) {
        let hash = self.table.seed.cell(0, cell);
        let seen = |e| self.cells.cell_ref(e).key_eq(cell);
        if !self.table.chain(hash).any(seen) {
            self.table.push(hash);
            self.cells.push(cell.into());
        }
    }
}

pub(crate) enum AggAcc {
    Count(i64),
    CountDistinct(Box<Distinct>),
    /// Plaintext sum: integer and float accumulators, plus whether any
    /// float was seen and how many non-null terms were added.
    Sum {
        int: i64,
        num: f64,
        saw_num: bool,
        count: u64,
    },
    /// Homomorphic Paillier accumulator. The public key is resolved
    /// from the ring once, on the first cell, and reused for every
    /// addition (it carries the cached Montgomery context for `n²`).
    SumEnc {
        acc: Option<EncValue>,
        pk: Option<std::sync::Arc<PaillierPublic>>,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
}

impl AggAcc {
    pub(crate) fn new(func: AggFunc, encrypted: bool) -> AggAcc {
        match func {
            AggFunc::Count => AggAcc::Count(0),
            AggFunc::CountDistinct => AggAcc::CountDistinct(Default::default()),
            AggFunc::Sum | AggFunc::Avg => {
                if encrypted {
                    AggAcc::SumEnc {
                        acc: None,
                        pk: None,
                    }
                } else {
                    AggAcc::Sum {
                        int: 0,
                        num: 0.0,
                        saw_num: false,
                        count: 0,
                    }
                }
            }
            AggFunc::Min => AggAcc::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => AggAcc::MinMax {
                best: None,
                is_min: false,
            },
        }
    }

    /// Add one cell, read where it lies. What the typed folds of γ
    /// reach cell by cell — an integer, a numeric — has an entry of its
    /// own below; this one sorts any cell onto them.
    pub(crate) fn update(&mut self, v: CellRef<'_>, keys: &KeyRing) -> Result<(), ExecError> {
        match v {
            CellRef::Null => Ok(()),
            CellRef::Int(i) => self.add_int(i),
            CellRef::Num(f) => self.add_num(f),
            CellRef::Enc(EncScheme::Paillier, key_id, cell) => {
                self.add_paillier(key_id, cell, keys)
            }
            other => self.add_other(other),
        }
    }

    #[inline]
    fn add_int(&mut self, i: i64) -> Result<(), ExecError> {
        match self {
            AggAcc::Count(c) => *c += 1,
            AggAcc::Sum { int, count, .. } => {
                *int = int.checked_add(i).ok_or_else(|| {
                    EvalError::Overflow(format!("SUM of integers past {int} + {i}"))
                })?;
                *count += 1;
            }
            _ => return self.add_other(CellRef::Int(i)),
        }
        Ok(())
    }

    #[inline]
    fn add_num(&mut self, f: f64) -> Result<(), ExecError> {
        match self {
            AggAcc::Count(c) => *c += 1,
            AggAcc::Sum {
                num,
                saw_num,
                count,
                ..
            } => {
                *num += f;
                *saw_num = true;
                *count += 1;
            }
            _ => return self.add_other(CellRef::Num(f)),
        }
        Ok(())
    }

    /// A non-NULL Paillier cell under `key_id`, read where it lies.
    fn add_paillier(&mut self, key_id: u32, cell: &[u8], keys: &KeyRing) -> Result<(), ExecError> {
        let owned = || EncValue {
            scheme: EncScheme::Paillier,
            key_id,
            bytes: cell.into(),
        };
        let AggAcc::SumEnc { acc, pk } = self else {
            return self.add_other(CellRef::Enc(EncScheme::Paillier, key_id, cell));
        };
        if pk.is_none() {
            *pk = Some(keys.get_public(key_id).ok_or(ExecError::MissingKey {
                attr: AttrId(u32::MAX),
                key_id,
            })?);
        }
        let pk = pk.as_ref().expect("resolved above");
        *acc = Some(match acc.take() {
            None => owned(),
            Some(prev) => paillier_add_cell(&prev, key_id, cell, pk).map_err(crypto_error)?,
        });
        Ok(())
    }

    /// Every pairing of accumulator and non-NULL cell the entries above
    /// leave over. Only an accumulator that keeps the cell copies it.
    fn add_other(&mut self, v: CellRef<'_>) -> Result<(), ExecError> {
        match self {
            AggAcc::Count(c) => *c += 1,
            AggAcc::CountDistinct(set) => set.insert(v),
            AggAcc::Sum { .. } => {
                return Err(match Value::from(v) {
                    Value::Enc(_) => {
                        ExecError::Unsupported("mixed plaintext/ciphertext aggregation".into())
                    }
                    other => EvalError::TypeError(format!("SUM over {other:?}")).into(),
                })
            }
            AggAcc::SumEnc { .. } => {
                return Err(match Value::from(v) {
                    Value::Enc(_) => ExecError::Eval(EvalError::EncryptedOperation(
                        "SUM over non-Paillier ciphertext".into(),
                    )),
                    other => ExecError::Unsupported(format!(
                        "mixed plaintext/ciphertext aggregation over {other:?}"
                    )),
                })
            }
            AggAcc::MinMax { best, is_min } => {
                let replace = match best {
                    None => true,
                    Some(b) => {
                        let op = if *is_min { CmpOp::Lt } else { CmpOp::Gt };
                        cmp_cells(v, op, (&*b).into())? == Some(true)
                    }
                };
                if replace {
                    *best = Some(v.into());
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self, func: AggFunc) -> Result<Value, ExecError> {
        Ok(match self {
            AggAcc::Count(c) => Value::Int(c),
            AggAcc::CountDistinct(set) => Value::Int(set.cells.len() as i64),
            AggAcc::Sum {
                int,
                num,
                saw_num,
                count,
            } => {
                if count == 0 {
                    Value::Null
                } else {
                    match func {
                        AggFunc::Sum => {
                            if saw_num {
                                Value::Num(num + int as f64)
                            } else {
                                Value::Int(int)
                            }
                        }
                        AggFunc::Avg => Value::Num((num + int as f64) / count as f64),
                        _ => unreachable!("Sum accumulator only for SUM/AVG"),
                    }
                }
            }
            AggAcc::SumEnc { acc, .. } => match acc {
                None => Value::Null,
                Some(cell) => {
                    let kind = if func == AggFunc::Avg {
                        AggKind::Avg
                    } else {
                        AggKind::Sum
                    };
                    Value::Enc(paillier_finish(&cell, kind).map_err(crypto_error)?)
                }
            },
            AggAcc::MinMax { best, .. } => best.unwrap_or(Value::Null),
        })
    }
}

/// Pass 1 of γ over one batch: each row's group id. A row whose key no
/// group holds opens the next one — numbered in first-seen order — and
/// its key cells are the only ones ever copied, onto `group_keys`, once
/// the batch is through. Each key column picks its comparison once
/// ([`ColumnVec::key_eq_with`]): against the groups held before the
/// batch, and against the rows that opened the batch's own groups.
fn group_ids(
    table: &mut KeyTable,
    group_keys: &mut [ColumnVec],
    keys: &[&ColumnVec],
    hashes: &[u64],
) -> Vec<u32> {
    let held = table.hashes.len();
    let with_held: Vec<KeyEq> = (keys.iter().zip(&*group_keys))
        .map(|(k, g)| k.key_eq_with(g))
        .collect();
    let with_batch: Vec<KeyEq> = keys.iter().map(|k| k.key_eq_with(k)).collect();
    let mut openers: Vec<usize> = Vec::new();
    let ids = hashes.iter().enumerate().map(|(r, &hash)| {
        let same = |&g: &usize| match g.checked_sub(held) {
            None => with_held.iter().all(|c| c.eq(r, g)),
            Some(new) => with_batch.iter().all(|c| c.eq(r, openers[new])),
        };
        let group = table.chain(hash).find(same);
        group.unwrap_or_else(|| {
            openers.push(r);
            table.push(hash)
        }) as u32
    });
    let ids = ids.collect();
    for (col, key) in group_keys.iter_mut().zip(keys) {
        openers.iter().for_each(|&r| col.push(key.get(r)));
    }
    ids
}

/// Pass 2 of γ for one aggregate: fold its input column into the
/// accumulators `gid` names, row by row in row order — sums and
/// Paillier products come out bit for bit as a row-at-a-time scan's —
/// in a typed loop per representation. Fails with the first row an
/// accumulator refuses.
fn fold(
    accs: &mut [AggAcc],
    col: &ColumnVec,
    gid: &[u32],
    keys: &KeyRing,
) -> Result<(), (usize, ExecError)> {
    let mut rows = gid.iter().map(|&g| g as usize).enumerate();
    match col {
        ColumnVec::Int(v) => {
            (rows.zip(v)).try_for_each(|((r, g), &i)| accs[g].add_int(i).map_err(|e| (r, e)))
        }
        ColumnVec::Num(v) => {
            (rows.zip(v)).try_for_each(|((r, g), &f)| accs[g].add_num(f).map_err(|e| (r, e)))
        }
        _ => {
            rows.try_for_each(|(r, g)| (accs[g].update(col.cell_ref(r), keys)).map_err(|e| (r, e)))
        }
    }
}

/// Hash aggregation over the child stream, each batch in two column
/// passes: [`group_ids`] assigns every row its group, [`fold`] folds
/// each aggregate's input column by group id. One accumulator per
/// group and aggregate, one owned key per group — memory is bounded by
/// the number of groups, never the input size. Group ordering is
/// first-seen order, identical to a sequential row-at-a-time scan.
fn group_by_stream(
    keys: &[AttrId],
    aggs: &[AggExpr],
    mut child: BatchStream<'_>,
    out_schema: TableSchema,
    ctx: &ExecCtx<'_>,
) -> Result<Table, ExecError> {
    let key_idx: Vec<usize> = keys
        .iter()
        .map(|k| {
            child
                .schema
                .col_index(*k)
                .ok_or_else(|| ExecError::Unsupported(format!("group key {k} missing")))
        })
        .collect::<Result<_, _>>()?;

    let mut table = KeyTable::default();
    // Per key the groups' cells, per aggregate the groups' accumulators.
    let mut group_keys = vec![ColumnVec::new(); keys.len()];
    let mut accs: Vec<Vec<AggAcc>> = aggs.iter().map(|_| Vec::new()).collect();
    let mut groups = 0;

    while let Some(batch) = child.pull()? {
        // Every aggregate's input, once per batch. A row an input fails
        // on is refused when the scan reaches it — an accumulator may
        // refuse an earlier one first.
        let inputs: Vec<_> = (aggs.iter())
            .map(|ag| eval_column(&ag.input, &batch, None))
            .collect();
        let key_cols: Vec<&ColumnVec> = key_idx.iter().map(|&i| batch.column(i)).collect();
        let hashes = hash_rows(key_cols.iter().copied(), table.seed, 0..batch.len());
        let gid = group_ids(&mut table, &mut group_keys, &key_cols, &hashes);
        // The rows that opened a group, in order: each picks its
        // group's accumulators, plaintext or homomorphic, by a peek at
        // its own input cells.
        let mut opened = Vec::new();
        for (r, &g) in gid.iter().enumerate() {
            if g as usize == groups {
                groups += 1;
                opened.push(r);
                for ((ag, (input, _)), accs) in aggs.iter().zip(&inputs).zip(&mut accs) {
                    accs.push(AggAcc::new(ag.func, input.is_enc(r)));
                }
            }
        }
        // The error a row-major scan meets first: on the earliest
        // failing row — where a row that opens a group has every input
        // checked before any accumulator runs — the first failing
        // aggregate's.
        let mut failed: Vec<((usize, bool, usize), ExecError)> = Vec::new();
        for (k, ((input, refused), accs)) in inputs.iter().zip(&mut accs).enumerate() {
            let valid = refused.as_ref().map_or(batch.len(), |(row, _)| *row);
            if let Some((row, e)) = refused {
                let running = opened.binary_search(row).is_err();
                failed.push(((*row, running, k), e.clone().into()));
            }
            if let Err((row, e)) = fold(accs, input, &gid[..valid], ctx.keys) {
                failed.push(((row, true, k), e));
            }
        }
        if let Some((_, e)) = failed.into_iter().min_by_key(|(at, _)| *at) {
            return Err(e);
        }
    }

    // Scalar aggregation over an empty input: one row of defaults.
    if keys.is_empty() && groups == 0 {
        for (ag, accs) in aggs.iter().zip(&mut accs) {
            accs.push(AggAcc::new(ag.func, false));
        }
    }

    // The key columns as the groups were opened, then one column per
    // aggregate out of its accumulators.
    let mut cols = group_keys;
    for (ag, accs) in aggs.iter().zip(accs) {
        let cells = accs.into_iter().map(|acc| acc.finish(ag.func));
        cols.push(cells.collect::<Result<_, _>>()?);
    }
    Ok(Table::from_columns(out_schema, cols))
}

// ---------------------------------------------------------------------------
// Udf / sort
// ---------------------------------------------------------------------------

/// Compute the UDF's output/drop layout against the child schema:
/// (output column index, consumed column indices, surviving attrs).
pub(crate) fn udf_layout(
    inputs: &[AttrId],
    output: AttrId,
    attrs: &[AttrId],
) -> Result<(usize, Vec<usize>, Vec<AttrId>), ExecError> {
    let out_idx = attrs
        .iter()
        .position(|c| *c == output)
        .ok_or_else(|| ExecError::Unsupported(format!("udf output {output} missing")))?;
    let drop_idx: Vec<usize> = attrs
        .iter()
        .enumerate()
        .filter(|(_, c)| inputs.contains(c) && **c != output)
        .map(|(i, _)| i)
        .collect();
    let kept: Vec<AttrId> = attrs
        .iter()
        .enumerate()
        .filter(|(i, _)| !drop_idx.contains(i))
        .map(|(_, c)| *c)
        .collect();
    Ok((out_idx, drop_idx, kept))
}

fn udf_stream<'p>(
    child: BatchStream<'p>,
    out_idx: usize,
    drop_idx: Vec<usize>,
    body: &'p Expr,
    schema: TableSchema,
) -> BatchStream<'p> {
    map_stream(child, schema.clone(), move |batch| {
        // The body's column is the output column.
        let out_col = match eval_column(body, &batch, None) {
            (_, Some((_, e))) => return Err(e.into()),
            (col, None) => col.into_owned(),
        };
        let mut cols = batch.into_columns();
        cols[out_idx] = out_col;
        let cols: Vec<ColumnVec> = cols
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !drop_idx.contains(i))
            .map(|(_, c)| c)
            .collect();
        Ok(Some(Table::from_columns(schema.clone(), cols)))
    })
}

/// Materialize and sort the child stream: each key is evaluated once,
/// as a column; the row *permutation* is sorted by comparing key cells
/// where they lie (stable, so ties keep stream order), and the columns
/// are gathered once — rows are never transposed out of columnar form.
fn sort_stream(
    keys: &[(Expr, bool)],
    agg_base: Option<usize>,
    child: BatchStream<'_>,
) -> Result<Table, ExecError> {
    let table = child.collect()?.into_table();
    let keyed: Vec<_> = (keys.iter())
        .map(|(e, _)| eval_column(e, &table, agg_base))
        .collect();
    // Errors surface before sorting: the first failing row's, and on
    // that row the first failing key's.
    let failed = keyed.iter().filter_map(|(_, failed)| failed.as_ref());
    if let Some((_, e)) = failed.min_by_key(|(row, _)| *row) {
        return Err(e.clone().into());
    }
    // A total order (`CellRef::sort_cmp`: NULLs last, kinds apart, NaN
    // after the numbers); the stable sort keeps input order on ties,
    // matching the row engine.
    let mut perm: Vec<usize> = (0..table.len()).collect();
    perm.sort_by(|&a, &b| {
        for ((col, _), (_, asc)) in keyed.iter().zip(keys) {
            let ord = col.sort_cmp(a, b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let sorted: Vec<ColumnVec> = table.columns().iter().map(|c| c.gather(&perm)).collect();
    Ok(Table::from_columns(table.schema().clone(), sorted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::builder::plan_sql;
    use mpq_algebra::{Catalog, Date};

    fn hosp_rows() -> Vec<Vec<Value>> {
        let d = |s: &str| Value::Date(Date::parse(s).unwrap());
        vec![
            vec![
                Value::str("s1"),
                d("1970-01-01"),
                Value::str("stroke"),
                Value::str("t1"),
            ],
            vec![
                Value::str("s2"),
                d("1980-02-02"),
                Value::str("stroke"),
                Value::str("t1"),
            ],
            vec![
                Value::str("s3"),
                d("1990-03-03"),
                Value::str("flu"),
                Value::str("t2"),
            ],
            vec![
                Value::str("s4"),
                d("1960-04-04"),
                Value::str("stroke"),
                Value::str("t2"),
            ],
        ]
    }

    fn ins_rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::str("s1"), Value::Num(120.0)],
            vec![Value::str("s2"), Value::Num(220.0)],
            vec![Value::str("s3"), Value::Num(60.0)],
            vec![Value::str("s4"), Value::Num(90.0)],
        ]
    }

    fn setup() -> (Catalog, Database) {
        let cat = Catalog::paper_running_example();
        let mut db = Database::new();
        db.load(&cat, "Hosp", hosp_rows());
        db.load(&cat, "Ins", ins_rows());
        (cat, db)
    }

    fn run(cat: &Catalog, db: &Database, sql: &str) -> Table {
        let plan = plan_sql(cat, sql).unwrap();
        let keys = KeyRing::new();
        let schemes = SchemePlan::default();
        let key_of_attr = HashMap::new();
        let ctx = ExecCtx::new(cat, db, &keys, &schemes, &key_of_attr);
        execute(&plan, &ctx).unwrap()
    }

    #[test]
    fn selection_and_projection() {
        let (cat, db) = setup();
        let t = run(&cat, &db, "select S, T from Hosp where D='stroke'");
        assert_eq!(t.len(), 3);
        assert_eq!(t.attrs().len(), 2);
    }

    #[test]
    fn running_example_end_to_end() {
        let (cat, db) = setup();
        let t = run(
            &cat,
            &db,
            "select T, avg(P) from Hosp join Ins on S=C \
             where D='stroke' group by T having avg(P)>100",
        );
        // t1: avg(120, 220) = 170 > 100 ✓; t2: avg(90) = 90 ✗.
        assert_eq!(t.len(), 1);
        assert!(t.value(0, 0).sql_eq(&Value::str("t1")));
        assert!(t.value(1, 0).sql_eq(&Value::Num(170.0)));
    }

    #[test]
    fn group_by_count_and_order() {
        let (cat, db) = setup();
        let t = run(
            &cat,
            &db,
            "select D, count(*) from Hosp group by D order by count(*) desc limit 1",
        );
        assert_eq!(t.len(), 1);
        assert!(t.value(0, 0).sql_eq(&Value::str("stroke")));
        assert!(t.value(1, 0).sql_eq(&Value::Int(3)));
    }

    #[test]
    fn cartesian_product_count() {
        let (cat, db) = setup();
        let t = run(&cat, &db, "select T, P from Hosp, Ins");
        assert_eq!(t.len(), 16);
    }

    #[test]
    fn join_kinds() {
        let (cat, db) = setup();
        // Inner join matches all 4 (every S has a C).
        let t = run(&cat, &db, "select T, P from Hosp join Ins on S=C");
        assert_eq!(t.len(), 4);
    }

    /// Batch size must be invisible in results: the running example
    /// under 1-row batches matches the default batch size.
    #[test]
    fn tiny_batches_match_default() {
        let (cat, db) = setup();
        let sql = "select T, avg(P) from Hosp join Ins on S=C \
                   where D='stroke' group by T having avg(P)>100 order by T";
        let plan = plan_sql(&cat, sql).unwrap();
        let keys = KeyRing::new();
        let schemes = SchemePlan::default();
        let koa = HashMap::new();
        let base = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        let tiny = ExecCtx::builder(&cat, &db, &keys, &schemes, &koa)
            .batch_rows(1)
            .build();
        assert_eq!(
            execute(&plan, &base).unwrap(),
            execute(&plan, &tiny).unwrap()
        );
    }

    /// `scan_owned` cuts only a batch longer than `batch_rows`, moves
    /// a shorter one through as it is and skips an empty one; `collect`
    /// keeps what the stream emitted, and `into_table` appends it back:
    /// the round trip is the identity for every batch size and split,
    /// and an empty relation streams no batch at all (streams carry the
    /// schema separately).
    #[test]
    fn scan_cuts_long_batches_and_into_table_reassembles() {
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(i), Value::str(&format!("r{i}"))])
            .collect();
        let t = Table::from_rows(vec![AttrId(0), AttrId(1)], rows);
        let split = Batches {
            schema: t.schema().clone(),
            batches: vec![t.slice(0..2), t.slice(2..2), t.slice(2..10)],
        };
        for batch_rows in [1, 3, 10, 100] {
            let mut stream = scan_owned(t.clone().into(), batch_rows);
            let mut sizes = Vec::new();
            while let Some(batch) = stream.pull().unwrap() {
                sizes.push(batch.len());
            }
            assert!(sizes.iter().all(|&n| 1 <= n && n <= batch_rows));
            assert_eq!(sizes.iter().sum::<usize>(), 10);
            let whole = scan_owned(t.clone().into(), batch_rows).collect().unwrap();
            assert_eq!(whole.into_table(), t);
            let cut = scan_owned(split.clone(), batch_rows).collect().unwrap();
            let sizes: Vec<usize> = cut.batches.iter().map(Table::len).collect();
            let want = match batch_rows {
                1 => vec![1; 10],
                3 => vec![2, 3, 3, 2],
                _ => vec![2, 8],
            };
            assert_eq!(sizes, want, "batch_rows {batch_rows}");
            assert_eq!(cut.into_table(), t);
        }
        let mut empty = scan_owned(Table::new(vec![AttrId(0)]).into(), 4);
        assert!(empty.pull().unwrap().is_none());
    }

    /// Joins gather columns: dense inputs stay dense through an Inner
    /// join, a LeftOuter pads unmatched rows with NULLs (degrading the
    /// right columns only then), and rows come out in probe order ×
    /// build order whatever the batch size.
    #[test]
    fn join_output_keeps_typed_columns_and_pads_outer_rows() {
        let cat = Catalog::paper_running_example();
        let (s, c, p) = (
            cat.attr("S").unwrap(),
            cat.attr("C").unwrap(),
            cat.attr("P").unwrap(),
        );
        let d = Value::Date(Date(0));
        // 1,000 probe rows, several batches at every size but the last;
        // even keys below 600 match twice, odd keys never.
        let hosp: Vec<Vec<Value>> = (0..1000)
            .map(|i| vec![Value::Int(i), d.clone(), Value::str("flu"), Value::str("t")])
            .collect();
        let ins: Vec<Vec<Value>> = (0..600)
            .map(|i| vec![Value::Int(2 * (i % 300)), Value::Num(i as f64)])
            .collect();
        let mut db = Database::new();
        db.load(&cat, "Hosp", hosp);
        db.load(&cat, "Ins", ins.clone());
        let plan_of = |kind| {
            let mut plan = QueryPlan::new();
            let l = plan.add_base(cat.relation("Hosp").unwrap().rel, vec![s]);
            let r = plan.add_base(cat.relation("Ins").unwrap().rel, vec![c, p]);
            let on = vec![(s, CmpOp::Eq, c)];
            let residual = None;
            plan.add(Operator::Join { kind, on, residual }, vec![l, r]);
            plan
        };
        // Probe order × build order, as a nested loop writes it.
        let mut inner_rows = Vec::new();
        let mut outer_rows = Vec::new();
        for key in (0..1000).map(Value::Int) {
            let mut matched: Vec<Vec<Value>> = (ins.iter().filter(|r| r[0] == key))
                .map(|r| vec![key.clone(), r[0].clone(), r[1].clone()])
                .collect();
            inner_rows.extend(matched.iter().cloned());
            if matched.is_empty() {
                matched.push(vec![key, Value::Null, Value::Null]);
            }
            outer_rows.extend(matched);
        }
        let keys = KeyRing::new();
        let schemes = SchemePlan::default();
        let koa = HashMap::new();
        for batch_rows in [1, 7, 4096] {
            let ctx = ExecCtx::builder(&cat, &db, &keys, &schemes, &koa)
                .batch_rows(batch_rows)
                .build();
            let inner = execute(&plan_of(JoinKind::Inner), &ctx).unwrap();
            assert!(
                matches!(inner.column(0), ColumnVec::Int(_)),
                "S stays dense"
            );
            assert!(
                matches!(inner.column(1), ColumnVec::Int(_)),
                "C stays dense"
            );
            assert!(
                matches!(inner.column(2), ColumnVec::Num(_)),
                "P stays dense"
            );
            assert_eq!(inner.to_rows(), inner_rows);
            let outer = execute(&plan_of(JoinKind::LeftOuter), &ctx).unwrap();
            assert!(
                matches!(outer.column(0), ColumnVec::Int(_)),
                "the left is never padded"
            );
            assert!(
                !matches!(outer.column(1), ColumnVec::Int(_)),
                "pads degrade C"
            );
            assert_eq!(outer.to_rows(), outer_rows);
        }
    }

    /// Group ids over several batches under the seed that hashes every
    /// key to 0, so the comparators alone tell keys apart: typed string
    /// keys that part in their first eight bytes or only behind them,
    /// integer and date keys, a held string key column that turns into
    /// `Val` when a NULL group opens, and typed batches after it. Each
    /// row's group is the first row before it holding its key, by
    /// `key_eq`.
    #[test]
    fn typed_group_keys_under_all_equal_hashes_are_key_eq() {
        let seed = KeySeed::colliding();
        let words = [
            "",
            "ab",
            "ab\0",
            "ü",
            "u\u{308}",
            "abcdefgh",
            "abcdefghi",
            "abcdefghj",
        ];
        let word = |i: usize| Value::str(words[i % words.len()]);
        let batches: Vec<[ColumnVec; 3]> = (0..5)
            .map(|b| {
                let rows = 0..6 + 5 * b;
                let text = rows.clone().map(|i| match (b, i) {
                    (2, 3) => Value::Null,
                    _ => word(i * 3 + b),
                });
                let ints = rows.clone().map(|i| ((i + b) % 2) as i64);
                let days = rows.map(|i| Value::Date(Date((i % 2) as i32)));
                [
                    text.collect(),
                    ColumnVec::from_ints(ints.collect()),
                    days.collect(),
                ]
            })
            .collect();
        assert!(matches!(batches[2][0], ColumnVec::Val(_)));
        assert!(matches!(batches[3][0], ColumnVec::Str(_)));
        let mut table = KeyTable::new(seed, Vec::new());
        let mut group_keys = vec![ColumnVec::new(); 3];
        let mut seen: Vec<Vec<Value>> = Vec::new();
        let mut held_kinds = Vec::new();
        for batch in &batches {
            let keys: Vec<&ColumnVec> = batch.iter().collect();
            let hashes = hash_rows(keys.iter().copied(), seed, 0..batch[0].len());
            let gid = group_ids(&mut table, &mut group_keys, &keys, &hashes);
            for (r, &id) in gid.iter().enumerate() {
                let row: Vec<Value> = batch.iter().map(|k| k.get(r)).collect();
                let same = |held: &Vec<Value>| {
                    (held.iter().zip(&row)).all(|(a, b)| CellRef::from(a).key_eq(b.into()))
                };
                let g = seen.iter().position(same).unwrap_or_else(|| {
                    seen.push(row.clone());
                    seen.len() - 1
                });
                assert_eq!(id as usize, g, "row {r}: {row:?}");
            }
            held_kinds.push(matches!(group_keys[0], ColumnVec::Str(_)));
        }
        assert_eq!(held_kinds, [true, true, false, false, false]);
        let held: Vec<Vec<Value>> = (0..seen.len())
            .map(|g| group_keys.iter().map(|k| k.get(g)).collect())
            .collect();
        assert_eq!(held, seen);
    }

    /// The key table under the seed that hashes every key to 0: one
    /// chain holds everything, so comparing cells where they lie is
    /// all that carries γ's group ids and ⋈'s pairs — through a table
    /// that outgrows its buckets on the way.
    #[test]
    fn all_equal_hashes_leave_correctness_to_the_comparison() {
        let seed = KeySeed::colliding();
        let mixed = |i: i64| match i % 5 {
            0 => Value::Null,
            1 => Value::str(&format!("s{}", i % 40)),
            2 => Value::Num((i % 40) as f64),
            _ => Value::Int(i % 40),
        };
        let keys = [
            (0..300).map(mixed).collect::<ColumnVec>(),
            ColumnVec::from_ints((0..300).map(|i| i % 3).collect()),
        ];
        let key_cols: Vec<&ColumnVec> = keys.iter().collect();
        let same = |a: usize, b: usize| keys.iter().all(|k| k.cell_ref(a).key_eq(k.cell_ref(b)));

        // γ: a row's group is the first row holding its key, groups
        // numbered as they open.
        let hashes = hash_rows(key_cols.iter().copied(), seed, 0..300);
        assert!(hashes.iter().all(|&h| h == 0));
        let mut table = KeyTable::new(seed, Vec::new());
        let mut group_keys = vec![ColumnVec::new(); 2];
        let gid = group_ids(&mut table, &mut group_keys, &key_cols, &hashes);
        let mut firsts: Vec<usize> = Vec::new();
        for (r, &id) in gid.iter().enumerate() {
            let g = firsts.iter().position(|&first| same(first, r));
            let g = g.unwrap_or_else(|| {
                firsts.push(r);
                firsts.len() - 1
            });
            assert_eq!(id as usize, g, "row {r}");
        }
        assert!(firsts.len() > 64, "the table grew twice");
        for (held, key) in group_keys.iter().zip(&keys) {
            assert_eq!(*held, key.gather(&firsts));
        }

        // ⋈ on the first key column against itself: probe order × build
        // order, NULL keys matching nothing.
        let table_of =
            |col: &ColumnVec| Table::from_columns(vec![AttrId(0)].into(), vec![col.clone()]);
        let (lbatch, rt) = (table_of(&keys[0]), table_of(&keys[0]));
        let eq = [(&keys[0], CmpOp::Eq, &keys[0])];
        let built = KeyTable::new(seed, hash_rows([&keys[0]], seed, 0..300));
        let probe = Probe {
            kind: JoinKind::Inner,
            lbatch: &lbatch,
            rt: &rt,
            hash: Some(&built),
            eq: &eq,
            other: &[],
            residual: None,
            reads: &[],
        };
        let mut expected = Vec::new();
        for li in 0..300 {
            for ri in 0..300 {
                if !keys[0].is_null(li) && keys[0].cell_ref(li).key_eq(keys[0].cell_ref(ri)) {
                    expected.push((li, Some(ri)));
                }
            }
        }
        assert_eq!(probe_batch(&probe).unwrap(), expected);
    }

    #[test]
    fn semi_and_anti_join() {
        let (cat, db) = setup();
        let cat2 = cat.clone();
        let s = cat2.attr("S").unwrap();
        let c = cat2.attr("C").unwrap();
        let hosp = cat2.relation("Hosp").unwrap().rel;
        let ins = cat2.relation("Ins").unwrap().rel;
        let mut plan = QueryPlan::new();
        let l = plan.add_base(hosp, vec![s]);
        let r = plan.add_base(ins, vec![c]);
        plan.add(
            Operator::Join {
                kind: JoinKind::Semi,
                on: vec![(s, CmpOp::Eq, c)],
                residual: None,
            },
            vec![l, r],
        );
        let keys = KeyRing::new();
        let schemes = SchemePlan::default();
        let koa = HashMap::new();
        let ctx = ExecCtx::new(&cat2, &db, &keys, &schemes, &koa);
        let t = execute(&plan, &ctx).unwrap();
        assert_eq!(t.len(), 4, "all patients are insured");
        assert_eq!(t.attrs().len(), 1, "semi join keeps only the left schema");
    }

    #[test]
    fn left_outer_join_pads_nulls() {
        let (cat, mut db) = setup();
        // Remove s4 from Ins → s4 unmatched.
        db.load(
            &cat,
            "Ins",
            vec![
                vec![Value::str("s1"), Value::Num(120.0)],
                vec![Value::str("s2"), Value::Num(220.0)],
                vec![Value::str("s3"), Value::Num(60.0)],
            ],
        );
        let s = cat.attr("S").unwrap();
        let c = cat.attr("C").unwrap();
        let p = cat.attr("P").unwrap();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let ins = cat.relation("Ins").unwrap().rel;
        let mut plan = QueryPlan::new();
        let l = plan.add_base(hosp, vec![s]);
        let r = plan.add_base(ins, vec![c, p]);
        plan.add(
            Operator::Join {
                kind: JoinKind::LeftOuter,
                on: vec![(s, CmpOp::Eq, c)],
                residual: None,
            },
            vec![l, r],
        );
        let keys = KeyRing::new();
        let schemes = SchemePlan::default();
        let koa = HashMap::new();
        let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        let t = execute(&plan, &ctx).unwrap();
        assert_eq!(t.len(), 4);
        let unmatched = t
            .to_rows()
            .iter()
            .filter(|r| r[1].is_null() && r[2].is_null())
            .count();
        assert_eq!(unmatched, 1);
    }

    #[test]
    fn null_join_keys_never_match() {
        let (cat, mut db) = setup();
        db.load(&cat, "Ins", vec![vec![Value::Null, Value::Num(1.0)]]);
        let mut hosp_with_null = hosp_rows();
        hosp_with_null[0][0] = Value::Null;
        db.load(&cat, "Hosp", hosp_with_null);
        let t = run(&cat, &db, "select T, P from Hosp join Ins on S=C");
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn scalar_aggregate_over_empty_input() {
        let (cat, db) = setup();
        let t = run(
            &cat,
            &db,
            "select count(P), sum(P) from Ins where P > 100000",
        );
        assert_eq!(t.len(), 1);
        assert!(t.value(0, 0).sql_eq(&Value::Int(0)));
        assert!(t.value(1, 0).is_null());
    }

    /// An integer SUM past `i64::MAX` is a typed error, not a debug
    /// panic or a release wrap-around.
    #[test]
    fn integer_sum_overflow_is_an_error() {
        let (cat, mut db) = setup();
        let big = |n| vec![Value::str("c"), Value::Int(n)];
        db.load(&cat, "Ins", vec![big(i64::MAX), big(1)]);
        let plan = plan_sql(&cat, "select sum(P) from Ins").unwrap();
        let keys = KeyRing::new();
        let schemes = SchemePlan::default();
        let koa = HashMap::new();
        let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        assert!(matches!(
            execute(&plan, &ctx),
            Err(ExecError::Eval(EvalError::Overflow(_)))
        ));
        assert!(matches!(
            crate::rowref::execute_ref(&plan, &ctx),
            Err(ExecError::Eval(EvalError::Overflow(_)))
        ));
    }

    #[test]
    fn min_max_and_avg() {
        let (cat, db) = setup();
        let t = run(&cat, &db, "select min(P), max(P), avg(P) from Ins");
        assert!(t.value(0, 0).sql_eq(&Value::Num(60.0)));
        assert!(t.value(1, 0).sql_eq(&Value::Num(220.0)));
        assert!(t.value(2, 0).sql_eq(&Value::Num(122.5)));
    }

    #[test]
    fn udf_consumes_inputs() {
        let (cat, db) = setup();
        let b = cat.attr("B").unwrap();
        let s = cat.attr("S").unwrap();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let mut plan = QueryPlan::new();
        let base = plan.add_base(hosp, vec![s, b]);
        plan.add(
            Operator::Udf {
                name: "birth_year".into(),
                inputs: vec![b],
                output: b,
                body: Some(Expr::Extract {
                    field: mpq_algebra::expr::DateField::Year,
                    expr: Box::new(Expr::Col(b)),
                }),
            },
            vec![base],
        );
        let keys = KeyRing::new();
        let schemes = SchemePlan::default();
        let koa = HashMap::new();
        let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        let t = execute(&plan, &ctx).unwrap();
        assert_eq!(t.attrs().len(), 2);
        assert!(t.value(1, 0).sql_eq(&Value::Int(1970)));
    }

    #[test]
    fn encrypt_without_key_is_refused() {
        let (cat, db) = setup();
        let s = cat.attr("S").unwrap();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let mut plan = QueryPlan::new();
        let base = plan.add_base(hosp, vec![s]);
        plan.add(Operator::Encrypt { attrs: vec![s] }, vec![base]);
        let keys = KeyRing::new(); // holds nothing
        let schemes = SchemePlan::default();
        let mut koa = HashMap::new();
        koa.insert(s, 0u32);
        let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        assert!(matches!(
            execute(&plan, &ctx),
            Err(ExecError::MissingKey { .. })
        ));
    }

    /// `Encrypt(S)` below the join on one side only: the join compares
    /// `Enc(S)` against plaintext `C` — a plan extension never builds
    /// (the MPQ009 hazard).
    fn mixed_form_plan(cat: &Catalog) -> QueryPlan {
        let s = cat.attr("S").unwrap();
        let d = cat.attr("D").unwrap();
        let t = cat.attr("T").unwrap();
        let c = cat.attr("C").unwrap();
        let p = cat.attr("P").unwrap();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let ins = cat.relation("Ins").unwrap().rel;
        let mut plan = QueryPlan::new();
        let base_h = plan.add_base(hosp, vec![s, d, t]);
        let enc = plan.add(Operator::Encrypt { attrs: vec![s] }, vec![base_h]);
        let base_i = plan.add_base(ins, vec![c, p]);
        plan.add(
            Operator::Join {
                kind: mpq_algebra::JoinKind::Inner,
                on: vec![(s, mpq_algebra::CmpOp::Eq, c)],
                residual: None,
            },
            vec![enc, base_i],
        );
        plan
    }

    /// The plan extension's shape for the same join: `Encrypt(C)`
    /// spliced on the join's other edge, so both sides arrive in one
    /// form.
    fn spliced_form_plan(cat: &Catalog) -> QueryPlan {
        let mut plan = mixed_form_plan(cat);
        let ins = plan.node(plan.root()).children[1];
        let c = cat.attr("C").unwrap();
        plan.splice_above(ins, Operator::Encrypt { attrs: vec![c] });
        plan
    }

    /// `S` and `C` under one Deterministic key, as Def. 6.1 clusters a
    /// join pair.
    fn det_pair(cat: &Catalog) -> (KeyRing, SchemePlan, HashMap<AttrId, u32>) {
        let keys = KeyRing::new();
        let mut rng = StdRng::seed_from_u64(7);
        keys.insert(mpq_crypto::ClusterKey::generate(&mut rng, 0, 256));
        let (mut schemes, mut koa) = (SchemePlan::default(), HashMap::new());
        for a in ["S", "C"] {
            schemes.set(cat.attr(a).unwrap(), EncScheme::Deterministic);
            koa.insert(cat.attr(a).unwrap(), 0u32);
        }
        (keys, schemes, koa)
    }

    #[test]
    fn a_spliced_join_side_matches_in_one_form() {
        let (cat, db) = setup();
        let (keys, schemes, koa) = det_pair(&cat);
        let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        let t = execute(&spliced_form_plan(&cat), &ctx).unwrap();
        // Every Hosp row pairs with exactly one Ins row, both keys
        // ciphertext.
        assert_eq!(t.len(), 4);
        for row in &t.to_rows() {
            assert!(matches!(row[0], Value::Enc(_)), "S is encrypted");
            assert!(matches!(row[3], Value::Enc(_)), "C is encrypted");
        }
        assert_eq!(
            crate::rowref::execute_ref(&spliced_form_plan(&cat), &ctx),
            Ok(t)
        );
    }

    /// The spliced `Encrypt` belongs to the join's assignee: stepping
    /// it under a ring without the cluster key is a typed refusal,
    /// while the join itself needs no key once both sides are
    /// encrypted.
    #[test]
    fn a_join_assignee_without_the_key_cannot_run_the_spliced_encrypt() {
        let (cat, db) = setup();
        let plan = spliced_form_plan(&cat);
        let (keys, schemes, koa) = det_pair(&cat);
        let holder = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        let bare_ring = KeyRing::new();
        let stranger = ExecCtx::new(&cat, &db, &bare_ring, &schemes, &koa);
        let join = plan.root();
        let spliced = plan.node(join).children[1];
        let mut results = HashMap::new();
        for id in plan.postorder() {
            if id == spliced {
                assert!(matches!(
                    execute_step(&plan, id, &mut results.clone(), &stranger),
                    Err(ExecError::MissingKey { key_id: 0, .. })
                ));
            }
            let ctx = if id == join { &stranger } else { &holder };
            let t = execute_step(&plan, id, &mut results, ctx).unwrap();
            results.insert(id, t);
        }
        assert_eq!(results[&join].len(), 4);
    }

    /// Two key columns encrypted under different keys, or under
    /// different schemes, compare no pair: a typed refusal in both
    /// engines, never a silent empty join.
    #[test]
    fn a_join_over_two_forms_of_ciphertext_is_refused() {
        let mut cat = Catalog::new();
        let r = cat
            .add_relation("R", &[("a", mpq_algebra::DataType::Int)])
            .unwrap();
        let q = cat
            .add_relation("Q", &[("b", mpq_algebra::DataType::Int)])
            .unwrap();
        let (a, b) = (cat.attr("a").unwrap(), cat.attr("b").unwrap());
        let mut db = Database::new();
        let ints = || (1..=4).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>();
        db.load(&cat, "R", ints());
        db.load(&cat, "Q", ints());
        let mut plan = QueryPlan::new();
        let (base_r, base_q) = (plan.add_base(r, vec![a]), plan.add_base(q, vec![b]));
        let enc_a = plan.add(Operator::Encrypt { attrs: vec![a] }, vec![base_r]);
        let enc_b = plan.add(Operator::Encrypt { attrs: vec![b] }, vec![base_q]);
        let on = vec![(a, mpq_algebra::CmpOp::Eq, b)];
        let kind = mpq_algebra::JoinKind::Inner;
        plan.add(
            Operator::Join {
                kind,
                on,
                residual: None,
            },
            vec![enc_a, enc_b],
        );
        let keys = KeyRing::new();
        let mut rng = StdRng::seed_from_u64(7);
        for id in [0, 1] {
            keys.insert(mpq_crypto::ClusterKey::generate(&mut rng, id, 256));
        }
        let det = |b_scheme, b_key| {
            let mut schemes = SchemePlan::default();
            schemes.set(a, EncScheme::Deterministic);
            schemes.set(b, b_scheme);
            (schemes, HashMap::from([(a, 0u32), (b, b_key)]))
        };
        // Det under key 0 ⋈ Det under key 1; Det ⋈ OPE under one key.
        for (schemes, koa) in [det(EncScheme::Deterministic, 1), det(EncScheme::Ope, 0)] {
            let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
            assert_eq!(execute(&plan, &ctx), Err(ExecError::MixedForm { attr: a }));
            assert_eq!(
                crate::rowref::execute_ref(&plan, &ctx),
                Err(ExecError::MixedForm { attr: a })
            );
        }
    }

    /// A region stops at its boundary: a child that is neither a member
    /// nor supplied is a typed error, and the foreign node is never
    /// compiled under this context — the ring is empty, so compiling
    /// the Encrypt would have answered `MissingKey`, as the whole plan
    /// does.
    #[test]
    fn a_region_refuses_to_compile_across_its_boundary() {
        let (cat, db) = setup();
        let s = cat.attr("S").unwrap();
        let plan = mixed_form_plan(&cat);
        let mut schemes = SchemePlan::default();
        schemes.set(s, EncScheme::Deterministic);
        let mut koa = HashMap::new();
        koa.insert(s, 0u32);
        let ring = KeyRing::new();
        let ctx = ExecCtx::new(&cat, &db, &ring, &schemes, &koa);
        let join = plan.root();
        let (enc, ins) = (plan.node(join).children[0], plan.node(join).children[1]);
        // The consumer's region is the join over its own Ins leaf; the
        // Encrypt is the producer's, and its table never arrived.
        let mut inputs = HashMap::new();
        let consumer = |n: NodeId| n == join || n == ins;
        assert_eq!(
            execute_region(&plan, join, &consumer, &mut inputs, &ctx).map(Batches::into_table),
            Err(ExecError::MissingOperand {
                node: join,
                operand: enc
            })
        );
        assert!(matches!(
            execute(&plan, &ctx),
            Err(ExecError::MissingKey { key_id: 0, .. })
        ));
    }

    /// Footnote 2: `Select` over `Encrypt` with a rewritten
    /// (ciphertext) literal — the fused filter-before-encrypt order
    /// must produce byte-identical tables to the literal plan order,
    /// for every batch size.
    #[test]
    fn fused_filter_encrypt_is_bit_identical() {
        let (cat, db) = setup();
        let s = cat.attr("S").unwrap();
        let d = cat.attr("D").unwrap();
        let t_attr = cat.attr("T").unwrap();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let keys = KeyRing::new();
        let mut rng = StdRng::seed_from_u64(7);
        let key = mpq_crypto::ClusterKey::generate(&mut rng, 0, 256);
        keys.insert(key.clone());
        let mut schemes = SchemePlan::default();
        schemes.set(d, EncScheme::Deterministic);
        schemes.set(s, EncScheme::Random);
        let mut koa = HashMap::new();
        koa.insert(d, 0u32);
        koa.insert(s, 0u32);

        // The dispatched predicate carries the *encrypted* literal, as
        // rewrite_literals produces for a Select above an Encrypt.
        let enc_lit = mpq_crypto::schemes::encrypt_value(
            &mut rng,
            &Value::str("stroke"),
            EncScheme::Deterministic,
            &key,
        )
        .unwrap();
        let mut plan = QueryPlan::new();
        let base = plan.add_base(hosp, vec![s, d, t_attr]);
        let enc = plan.add(Operator::Encrypt { attrs: vec![s, d] }, vec![base]);
        let d_is_stroke = Expr::Cmp(
            Box::new(Expr::Col(d)),
            CmpOp::Eq,
            Box::new(Expr::Lit(enc_lit)),
        );
        plan.add(
            Operator::Select {
                pred: d_is_stroke.clone(),
            },
            vec![enc],
        );
        assert!(fused_encrypt_child(&plan, plan.root()).is_some());

        let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        // The fused filter decrypts the literal where the predicate
        // states the comparison as an atom, and enters nothing else: the
        // same comparison inside a CASE keeps its ciphertext.
        let enc_set: AttrSet = [s, d].into_iter().collect();
        let plain = decrypt_pred_literals(&d_is_stroke, &enc_set, &ctx).unwrap();
        assert_eq!(plain, Expr::col_eq(d, Value::str("stroke")));
        let case = Expr::Case {
            branches: vec![(d_is_stroke, Expr::Lit(Value::Bool(true)))],
            else_: None,
        };
        assert_eq!(decrypt_pred_literals(&case, &enc_set, &ctx).unwrap(), case);
        let fused = execute(&plan, &ctx).unwrap();
        // The literal plan order: the Encrypt runs as a region of its
        // own, and the Select reads its table like any operand.
        let select = plan.root();
        let mut inputs = HashMap::new();
        let whole = execute_region(&plan, enc, &|n| n != select, &mut inputs, &ctx).unwrap();
        let encrypted = whole.batches.iter().map(Table::len).sum::<usize>();
        assert_eq!(encrypted, 4, "every row was encrypted, not the three");
        inputs.insert(enc, whole);
        let unfused = execute_region(&plan, select, &|n| n == select, &mut inputs, &ctx).unwrap();
        let unfused = unfused.into_table();
        assert_eq!(fused.len(), 3, "three stroke rows survive");
        // Byte-identical: surviving ciphertexts keep their original
        // row offsets, so even the Random-scheme S cells match.
        assert_eq!(fused, unfused);

        // And under a batch size that splits the selection mid-table.
        let tiny = ExecCtx::builder(&cat, &db, &keys, &schemes, &koa)
            .batch_rows(2)
            .build();
        assert_eq!(execute(&plan, &tiny).unwrap(), unfused);

        // Fusion never looks through a region boundary: a Select whose
        // Encrypt belongs to somebody else waits for the ciphertext.
        assert_eq!(
            execute_region(&plan, select, &|n| n == select, &mut HashMap::new(), &tiny)
                .map(Batches::into_table),
            Err(ExecError::MissingOperand {
                node: select,
                operand: enc
            })
        );
    }

    /// `D IN ('stroke', NULL)` and its `NOT IN`: the NULL item stays
    /// NULL when the literals are rewritten, and equals nothing — over
    /// Deterministic ciphertext it used to fail every row it missed
    /// ("IN mixing ciphertext and plaintext") while the fused filter,
    /// on plaintext, did not. Now the plaintext plan, the fused plan and
    /// the unfused one keep the same rows: the stroke rows for `IN`, and
    /// none for `NOT IN` (a miss is unknown, a hit is FALSE).
    #[test]
    fn in_with_a_null_item_is_unknown_on_a_miss_encrypted_or_not() {
        let (cat, db) = setup();
        let (s, d, t) = (
            cat.attr("S").unwrap(),
            cat.attr("D").unwrap(),
            cat.attr("T").unwrap(),
        );
        let hosp = cat.relation("Hosp").unwrap().rel;
        let keys = KeyRing::new();
        let mut rng = StdRng::seed_from_u64(7);
        let key = mpq_crypto::ClusterKey::generate(&mut rng, 0, 256);
        keys.insert(key.clone());
        let mut schemes = SchemePlan::default();
        schemes.set(d, EncScheme::Deterministic);
        let koa: HashMap<AttrId, u32> = [(d, 0)].into_iter().collect();
        let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        let stroke = Value::str("stroke");
        let enc_stroke =
            mpq_crypto::schemes::encrypt_value(&mut rng, &stroke, EncScheme::Deterministic, &key)
                .unwrap();
        let plain_cols = |table: &Table| [0, 2].map(|c| table.column(c).clone());
        for (negated, rows) in [(false, 3), (true, 0)] {
            let in_list = |item: &Value| Operator::Select {
                pred: Expr::InList {
                    expr: Box::new(Expr::Col(d)),
                    list: vec![item.clone(), Value::Null],
                    negated,
                },
            };
            let mut plain = QueryPlan::new();
            let base = plain.add_base(hosp, vec![s, d, t]);
            plain.add(in_list(&stroke), vec![base]);
            let want = execute(&plain, &ctx).unwrap();
            assert_eq!(want.len(), rows, "negated: {negated}");

            let mut plan = QueryPlan::new();
            let base = plan.add_base(hosp, vec![s, d, t]);
            let enc = plan.add(Operator::Encrypt { attrs: vec![d] }, vec![base]);
            let select = plan.add(in_list(&enc_stroke), vec![enc]);
            assert!(fused_encrypt_child(&plan, select).is_some());
            let fused = execute(&plan, &ctx).unwrap();
            let mut inputs = HashMap::new();
            let whole = execute_region(&plan, enc, &|n| n != select, &mut inputs, &ctx).unwrap();
            inputs.insert(enc, whole);
            let unfused = execute_region(&plan, select, &|n| n == select, &mut inputs, &ctx);
            assert_eq!(
                unfused.map(Batches::into_table),
                Ok(fused.clone()),
                "negated: {negated}"
            );
            assert_eq!(plain_cols(&fused), plain_cols(&want), "negated: {negated}");
        }
    }

    /// SQL holds `-0.0 = 0.0`. A provider filtering OPE ciphertexts or
    /// grouping Det ones must answer as the plaintext plan does: P is
    /// encrypted below the operator (its literal alike) and decrypted
    /// above it, and a projection between keeps the filter from fusing
    /// into the encryption.
    #[test]
    fn encrypted_signed_zero_plans_match_plaintext() {
        let cat = Catalog::paper_running_example();
        let (c, p) = (cat.attr("C").unwrap(), cat.attr("P").unwrap());
        let ins = cat.relation("Ins").unwrap().rel;
        let mut db = Database::new();
        let rows = [0.0, -0.0, 1.5, -0.0, -2.0].iter().enumerate();
        db.load(
            &cat,
            "Ins",
            rows.map(|(i, &f)| vec![Value::str(&format!("r{i}")), Value::Num(f)])
                .collect(),
        );
        let keys = KeyRing::new();
        let key = mpq_crypto::ClusterKey::generate(&mut StdRng::seed_from_u64(7), 0, 256);
        keys.insert(key.clone());
        let koa = HashMap::from([(p, 0u32)]);
        // `Some((op, x))` is σ P op x, `None` is γ P; count(C).
        let run = |scheme: Option<EncScheme>, select: Option<(CmpOp, f64)>| {
            let lit = |f: f64| match scheme {
                Some(s) => {
                    let mut rng = StdRng::seed_from_u64(1);
                    mpq_crypto::schemes::encrypt_value(&mut rng, &Value::Num(f), s, &key).unwrap()
                }
                None => Value::Num(f),
            };
            let top = match select {
                Some((op, f)) => Operator::Select {
                    pred: Expr::cmp(Expr::Col(p), op, Expr::Lit(lit(f))),
                },
                None => Operator::GroupBy {
                    keys: vec![p],
                    aggs: vec![AggExpr::over_col(AggFunc::Count, c)],
                },
            };
            let mut plan = QueryPlan::new();
            let mut node = plan.add_base(ins, vec![c, p]);
            let mut schemes = SchemePlan::default();
            if let Some(s) = scheme {
                schemes.set(p, s);
                node = plan.add(Operator::Encrypt { attrs: vec![p] }, vec![node]);
            }
            node = plan.add(Operator::Project { attrs: vec![c, p] }, vec![node]);
            node = plan.add(top, vec![node]);
            if scheme.is_some() {
                plan.add(Operator::Decrypt { attrs: vec![p] }, vec![node]);
            }
            let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
            let mut rows = execute(&plan, &ctx).unwrap().to_rows();
            rows.sort_by(|a, b| {
                let cells = a.iter().zip(b);
                let equal = std::cmp::Ordering::Equal;
                cells.fold(equal, |o, (x, y)| o.then(x.sql_cmp(y).unwrap()))
            });
            rows
        };
        for (scheme, select, len) in [
            (EncScheme::Ope, Some((CmpOp::Eq, 0.0)), 3),
            (EncScheme::Ope, Some((CmpOp::Gt, -0.0)), 1),
            (EncScheme::Ope, Some((CmpOp::Le, -0.0)), 4),
            (EncScheme::Deterministic, Some((CmpOp::Eq, -0.0)), 3),
            (EncScheme::Deterministic, None, 3),
        ] {
            let (plain, encrypted) = (run(None, select), run(Some(scheme), select));
            assert_eq!(plain.len(), len, "{scheme:?}");
            assert_eq!(encrypted.len(), len, "{scheme:?}");
            for (a, b) in plain.iter().zip(&encrypted) {
                assert!(a.iter().zip(b).all(|(x, y)| x.sql_eq(y)), "{a:?} vs {b:?}");
            }
        }
    }

    /// Predicate shapes the fusion must refuse: anything touching an
    /// encrypted attribute that is not a plain column-vs-literal
    /// comparison.
    #[test]
    fn fusion_eligibility_is_conservative() {
        let cat = Catalog::paper_running_example();
        let s = cat.attr("S").unwrap();
        let d = cat.attr("D").unwrap();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let build = |pred: Expr, enc_attrs: Vec<AttrId>| {
            let mut plan = QueryPlan::new();
            let base = plan.add_base(hosp, vec![s, d]);
            let enc = plan.add(Operator::Encrypt { attrs: enc_attrs }, vec![base]);
            plan.add(Operator::Select { pred }, vec![enc]);
            plan
        };
        let fusible = |pred: Expr, enc_attrs: Vec<AttrId>| {
            let plan = build(pred, enc_attrs);
            fused_encrypt_child(&plan, plan.root()).is_some()
        };
        // LIKE over an encrypted attribute: not fusible.
        let like = Expr::Like {
            expr: Box::new(Expr::Col(d)),
            pattern: "st%".into(),
            negated: false,
        };
        assert!(!fusible(like.clone(), vec![d]));
        // Same LIKE over a *non*-encrypted attribute: fusible.
        assert!(fusible(like, vec![s]));
        // Column-vs-column comparison on an encrypted attribute: no.
        let colcol = Expr::Cmp(Box::new(Expr::Col(d)), CmpOp::Eq, Box::new(Expr::Col(s)));
        assert!(!fusible(colcol, vec![d]));
        // IN-list over an encrypted column: yes.
        let inlist = Expr::InList {
            expr: Box::new(Expr::Col(d)),
            list: vec![Value::str("flu")],
            negated: false,
        };
        assert!(fusible(inlist, vec![d]));
    }

    #[test]
    fn mixed_form_join_under_random_scheme_is_refused() {
        let (cat, db) = setup();
        let s = cat.attr("S").unwrap();
        let keys = KeyRing::new();
        let mut rng = StdRng::seed_from_u64(7);
        keys.insert(mpq_crypto::ClusterKey::generate(&mut rng, 0, 256));
        // Random ciphertexts against plaintext: even with the key in
        // hand the join must refuse, not match zero rows.
        let schemes = SchemePlan::default();
        let mut koa = HashMap::new();
        koa.insert(s, 0u32);
        let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        assert_eq!(
            execute(&mixed_form_plan(&cat), &ctx),
            Err(ExecError::MixedForm { attr: s })
        );
    }
}
