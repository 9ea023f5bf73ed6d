//! # mpq-exec
//!
//! A columnar, in-memory execution engine for `mpq-algebra` query
//! plans — including the extended plans produced by `mpq-core` with
//! on-the-fly encryption and decryption operators.
//!
//! There is one relation container, [`table::Table`]: a
//! [`batch::TableSchema`] plus one typed [`batch::ColumnVec`] per
//! column. Data flows through operators as *batches* — tables of at
//! most `batch_rows` rows; pipelined operators (scan, select, project,
//! encrypt/decrypt, udf, limit) hold one at a time, while pipeline
//! breakers (join build sides, group-by, sort) collect a whole one. A
//! region's result ([`execute_region`]) is [`table::Batches`], the
//! batches its root emitted, and a delivered operand streams its
//! batches as they are: [`table::Batches::into_table`] is the one place
//! batches are put back together.
//! Operators build their output by moving columns (slice, filter,
//! gather, append) and evaluate expressions a column at a time
//! ([`eval::eval_mask`], [`eval::eval_column`]), reading cells where
//! they lie; joins and group-bys hash key columns into a key table and
//! compare candidates in place, so a key cell is copied once per group
//! and never for a join; a join's residual is a mask over its candidate
//! pairs, and a product is a join without conditions. Rows survive
//! where something is row-shaped by nature: the loader, the [`rowref`]
//! oracle (which owns the row-at-a-time expression walk),
//! `Table::display`, result checkers and tests. A plan runs on the
//! thread that calls [`execute`], one batch at a time, each batch whole.
//! Ciphertext bytes are a pure function of `(seed, node, column, row)`
//! — Det and OPE of key and value alone, so a stored column's distinct
//! values are encrypted once per query — and batch size never changes
//! results.
//!
//! The engine evaluates expressions over both plaintext and encrypted
//! cells: equality works on deterministic ciphertexts (hash joins,
//! group-by, IN), ordering works on OPE ciphertexts (range predicates,
//! MIN/MAX, sort), and SUM/AVG accumulate Paillier ciphertexts
//! homomorphically. Operations a ciphertext cannot support surface as
//! [`eval::EvalError::EncryptedOperation`] — if that error ever escapes a
//! plan produced by the authorization pipeline, the capability policy
//! (`mpq_core::capability`) and the executed plan disagree, which the
//! integration tests treat as a bug.
//!
//! Modules:
//!
//! * [`batch`] — the column types: schemas and typed column vectors;
//! * [`table`] — the relation container and the in-memory database;
//! * [`eval`] — expression evaluation: the cell rules and the column
//!   evaluator the operators run;
//! * [`scheme`] — per-attribute encryption scheme assignment ("the
//!   scheme providing highest protection, while supporting the
//!   operations to be executed", §6) and encrypted-literal rewriting of
//!   dispatched predicates;
//! * [`engine`] — the streaming operator implementations;
//! * [`rowref`] — a deliberately naive serial row-at-a-time reference
//!   engine with its own row walk over the cell rules: the oracle the
//!   differential tests hold the streaming engine to, and `mpq-fuzz`'s
//!   plaintext ground truth.

pub mod batch;
pub mod engine;
pub mod eval;
pub mod rowref;
pub mod scheme;
pub mod table;

pub use batch::{ColumnVec, TableSchema, DEFAULT_BATCH_ROWS};
pub use engine::{
    effective_children, execute, execute_region, execute_step, fused_encrypt_child, ExecCtx,
    ExecCtxBuilder, ExecError,
};
pub use scheme::{
    assign_schemes, assign_schemes_with, rewrite_literals, rewrite_literals_with, SchemePlan,
};
pub use table::{Batches, Database, Table};

/// Kept for callers that pin the engine to one worker thread: the
/// engine runs every batch on the calling thread, so one is the only
/// count there is.
#[doc(hidden)]
pub struct WorkerPool;

impl WorkerPool {
    /// `true` exactly when `workers` is 1.
    pub fn init_global(workers: usize) -> bool {
        workers == 1
    }
}
