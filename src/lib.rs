//! # mpq — Multi-Provider Query authorization
//!
//! Facade crate re-exporting the full workspace implementing
//! *"An Authorization Model for Multi-Provider Queries"*
//! (De Capitani di Vimercati, Foresti, Jajodia, Livraga, Paraboschi,
//! Samarati — PVLDB 2017).
//!
//! ```
//! use mpq::core::fixtures::RunningExample;
//! use mpq::core::candidates::candidates;
//! use mpq::core::capability::CapabilityPolicy;
//!
//! let ex = RunningExample::new();
//! let cands = candidates(
//!     &ex.plan, &ex.catalog, &ex.policy, &ex.subjects,
//!     &CapabilityPolicy::default(), true,
//! );
//! // Fig. 6: only U and Y can run the final `avg(P) > 100` selection.
//! assert_eq!(ex.subjects.render(cands.of(ex.node("having"))), "UY");
//! ```
//!
//! See the crate-level docs of each member for the paper mapping:
//! [`algebra`] (plans/SQL/statistics), [`core`] (profiles,
//! authorizations, candidates, minimal extension, keys, dispatch),
//! [`crypto`] (the four encryption schemes + envelopes), [`exec`]
//! (plaintext/encrypted execution), [`tpch`] (the §7 workload),
//! [`planner`] (economic optimization), and [`dist`] (the distributed
//! runtime: one party core under two drivers — one walk over the
//! Fig. 8 regions in a [`dist::Session`], in-proc or over loopback TCP,
//! and process per subject under a [`dist::Coordinator`]). The repository-level
//! `ARCHITECTURE.md` maps the crates, the life of a query, and every
//! paper definition to its module and test.

pub use mpq_algebra as algebra;
pub use mpq_core as core;
pub use mpq_crypto as crypto;
pub use mpq_dist as dist;
pub use mpq_exec as exec;
pub use mpq_planner as planner;
pub use mpq_tpch as tpch;
