//! # mpq-planner
//!
//! The economic side of the paper (§7): "the cost `C_q` of executing a
//! query `q` is computed as `C_q = Σ_{n∈N} C_cpu^n + C_io^n +
//! C_net_io^n` … in line with the price lists of cloud providers, which
//! charge users based on their use of cpu time, local i/o, and network
//! i/o."
//!
//! * [`pricing`] — per-subject price lists and link bandwidths
//!   (user CPU = 10×, data authority = 3× the provider price, as in the
//!   paper's experiments), plus per-scheme encryption costs and
//!   ciphertext expansion factors;
//! * [`scenario`] — the three authorization scenarios of the
//!   evaluation: **UA** (only the user accesses other parties' base
//!   relations), **UAPenc** (providers get encrypted visibility over
//!   everything), **UAPmix** (providers additionally get plaintext
//!   visibility over half the attributes);
//! * [`stats`] — measured statistics: sampling collection over live
//!   `mpq-exec` data (row counts, distinct values, min/max, equi-depth
//!   histograms), population scaling, the estimation entry point the
//!   cost model consumes, and executed-vs-estimated validation;
//! * [`cost`] — costing of (extended) plans against cardinality
//!   estimates: CPU, I/O, network, and wall-clock time;
//! * [`optimize`](mod@optimize) — the dynamic-programming assignment search over the
//!   candidate sets Λ, combined with minimal-extension construction and
//!   exact re-costing (the paper combines steps 2 and 3 of §6 the same
//!   way), plus an exhaustive search for validation and the
//!   maximize-/minimize-visibility ablation strategies of §5.

pub mod cost;
pub mod optimize;
pub mod pricing;
pub mod scenario;
pub mod stats;

pub use cost::CostBreakdown;
pub use optimize::{finish, optimize, Optimized, Strategy};
pub use pricing::{PriceBook, SubjectPrices};
pub use scenario::{build_scenario, build_scenario_with_fill, Scenario, ScenarioEnv};
pub use stats::{collect_stats, estimates_for, SampleConfig};
