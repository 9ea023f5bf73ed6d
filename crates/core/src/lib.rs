//! # mpq-core
//!
//! The authorization model of *"An Authorization Model for
//! Multi-Provider Queries"* (De Capitani di Vimercati, Foresti, Jajodia,
//! Livraga, Paraboschi, Samarati — PVLDB 2017), implemented over the
//! `mpq-algebra` plan representation.
//!
//! The crate follows the paper section by section:
//!
//! * [`subjects`] — users, data authorities and cloud providers (§2);
//! * [`authz`] — authorizations `[P,E] → S` with plaintext / encrypted /
//!   no visibility, the `any` default subject, and per-subject overall
//!   views `P_S` / `E_S` (§2, §4 and Fig. 4);
//! * [`profile`] — relation profiles
//!   `[R^vp, R^ve, R^ip, R^ie, R^≃]` and their propagation through
//!   every operator (§3, Fig. 2, Theorem 3.1);
//! * [`capability`] — what runs on ciphertext: the one operation →
//!   capability table behind `A_p` (§5), the per-attribute scheme
//!   choice (§6) and the optimizer's encryption pricing;
//! * [`candidates`](mod@candidates) — minimum required views (Def. 5.2) and the
//!   candidate assignment function Λ (Def. 5.3, Theorems 5.1–5.2);
//! * [`extend`] — minimally extended authorized query plans
//!   (Def. 5.4, Theorem 5.3);
//! * [`keys`] — query-plan keys clustered by the root profile's
//!   equivalence classes (Def. 6.1);
//! * [`dispatch`] — sub-query generation and signed/encrypted request
//!   envelopes (§6, Fig. 8);
//! * [`verify`] — the static multi-pass verifier: typed `MPQ0xx`
//!   diagnostics proving an extended plan authorized, leak-free,
//!   key-complete and scheme/type-sound before execution;
//! * [`fixtures`] — the paper's running example (Hosp ⋈ Ins), reused by
//!   tests, examples and benchmarks.

pub mod authz;
pub mod candidates;
pub mod capability;
pub mod dispatch;
pub mod extend;
pub mod fixtures;
pub mod keys;
pub mod profile;
pub mod subjects;
pub mod verify;

pub use authz::{Authorization, Policy, SubjectView};
pub use candidates::{candidates, CandidateSet, Candidates};
pub use capability::CapabilityPolicy;
pub use extend::{minimally_extend, Assignment, ExtendedPlan};
pub use keys::{plan_keys, KeyPlan};
pub use profile::{profile_plan, EqClasses, Profile};
pub use subjects::{SubjectKind, Subjects};
pub use verify::{verify_extended, verify_with_policy, Code, Diagnostic, VerifyReport};
