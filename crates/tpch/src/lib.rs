//! # mpq-tpch
//!
//! TPC-H substrate for the paper's evaluation (§7): "we implemented it
//! … and performed a series of experiments using TPC-H (1 GB
//! configuration), as it is the reference benchmark for testing
//! solutions through complex queries."
//!
//! This crate provides:
//!
//! * [`schema`] — the 8 TPC-H relations (61 columns), plus *alias
//!   relations* (`nation2`, `lineitem2`, …) used by queries that scan a
//!   table more than once (the attribute namespace is global, so a
//!   second scan needs distinct attribute ids — PostgreSQL plans
//!   likewise scan such tables twice);
//! * [`gen`] — a deterministic dbgen-style data generator,
//!   scale-factor parameterized, reproducing the value distributions
//!   the 22 queries select on (dates, segments, brands, containers,
//!   comment patterns, …);
//! * [`queries`] — **all 22** queries as SQL text, written
//!   decorrelated in the shapes PostgreSQL plans them in (scalar
//!   subqueries as derived tables, EXISTS/IN as semi-/anti-joins) and
//!   planned by `mpq_algebra::builder::plan_sql`, the front end a
//!   client's query goes through.
//!
//! It models no statistics: the stand-in for the PostgreSQL optimizer
//! estimates the paper's tool consumed is measured from generated data
//! by `mpq_planner::collect_stats`.

pub mod gen;
pub mod queries;
pub mod schema;

pub use gen::generate;
pub use queries::{query_plan, QUERY_COUNT};
pub use schema::tpch_catalog;
