//! # mpq-algebra
//!
//! Relational-algebra substrate for the multi-provider query
//! authorization model (De Capitani di Vimercati et al., VLDB 2017).
//!
//! This crate provides everything the authorization layer (`mpq-core`)
//! and the execution engine (`mpq-exec`) share:
//!
//! * interned identifiers for relations, attributes and subjects
//!   ([`ids`]), plus cheap attribute bitsets ([`attrset`]);
//! * a [`catalog`] describing base relations, their attributes, types
//!   and per-column statistics;
//! * typed runtime [`value`]s and scalar/aggregate [`expr`]essions;
//! * the logical query-[`plan`] tree with exactly the operator algebra
//!   of the paper (projection, selection, cartesian product, join,
//!   group-by, user-defined function, encryption, decryption) plus the
//!   profile-neutral `Sort`/`Limit` needed for TPC-H;
//! * a SQL front-end ([`sql`]) for the paper's
//!   `select … from … where … group by … having` query class;
//! * a plan [`builder`] applying the paper's assumption that
//!   projections are pushed down;
//! * a PostgreSQL-style cardinality [`stats`] estimator standing in for
//!   the optimizer estimates the paper's tool consumed.
//!
//! The design goal is that a *plan node* is the unit the authorization
//! model reasons about: `mpq-core` attaches relation profiles to nodes,
//! computes candidate sets per node, and splices `Encrypt`/`Decrypt`
//! operators into the tree.

pub mod attrset;
pub mod builder;
pub mod catalog;
pub mod error;
pub mod expr;
pub mod ids;
pub mod plan;
pub mod sql;
pub mod stats;
pub mod value;

pub use attrset::AttrSet;
pub use catalog::{Catalog, ColumnDef, RelationDef};
pub use error::{AlgebraError, Result};
pub use expr::{AggExpr, AggFunc, ArithOp, CmpOp, Expr};
pub use ids::{AttrId, NodeId, RelId, SubjectId};
pub use plan::{AggScope, JoinKind, Operator, PlanNode, QueryPlan};
pub use value::{DataType, Date, Value};
