//! # mpq-fuzz
//!
//! Seeded policy/workload fuzzer for the authorization pipeline: a
//! generator of random worlds (catalog, subjects, authorization
//! policy, data, query plan, Λ assignment) plus a four-way
//! differential harness running every generated scenario through the
//! static verifier, the runtime over TCP, the runtime in-proc,
//! and the row oracle's plaintext reference — asserting agreement and
//! accumulating a [`mpq_core::verify::VerifyCoverage`] vector over
//! Def. 4.1 condition outcomes, Def. 6.1 cluster shapes, scheme
//! choices, and mixed-form join cases. The vector is the one the
//! verifier's passes record as they decide (`VerifyReport::coverage`):
//! nothing re-walks a plan to count it.

pub mod gen;
pub mod harness;

pub use gen::{Mutation, World, WorldConfig};
pub use harness::{extend_world, join_side_encrypts, run_scenario, Outcome, ScenarioResult};
