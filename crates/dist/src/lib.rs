//! # mpq-dist
//!
//! The distributed-execution runtime: the runnable counterpart of the
//! paper's §6 dispatch story — "each subject executes its assigned
//! sub-query and forwards encrypted results".
//!
//! **One core, two drivers.** The §6 rule — a Fig. 8 region (a
//! maximal connected group of nodes with one assignee: what one signed
//! sub-query covers) runs at its subject, as one pipeline, once the
//! tables it reads from other regions have arrived; whatever crosses a
//! subject edge is audited against the receiver's view and
//! byte-accounted; the signed request is the licence to compute — is
//! stated once, as the pure per-subject state machine in the
//! crate-private `party` module. Nothing is materialized where the
//! paper puts no edge. Two thin drivers step it, and under both every
//! table crossing a subject edge leaves through its producer's `Wire`
//! and lands in its consumer's `Mailbox` ([`runtime`]):
//!
//! | driver | entry point | benchmark metric |
//! |---|---|---|
//! | **one walk per session** — the regions producers first on the calling thread, each subject's mailbox pulled until its next region is ready | [`Session::execute`] (in-proc mailbox channels) | `pass_ms_p50`, `seq_pass_ms_p50` (the same walk) |
//! | | [`Session::execute`] with [`TransportKind::Tcp`] (loopback sockets and hubs) | `tcp_pass_ms_p50` |
//! | **process per subject** — the blocking `drive` inside each [`Server`] and for the [`Coordinator`]'s own share ([`remote`]) | [`Coordinator::execute`] | — (`scripts/server_smoke.sh`) |
//!
//! **One wire under both planes.** Fig. 8 has one kind of edge — a
//! subject sends a signed sub-query or a result table to another — and
//! so does this crate ([`transport`]): one subject-keyed link cache
//! (lazy dial, a plane-supplied introduction, eviction on a failed
//! write), one reading of the fault layer's four wire operations, one
//! bounded retry loop, under the data plane and the coordinator's
//! control plane alike. A party's mailbox carries data only and owns
//! the epoch filter (`Mailbox::next`); and one `settle` picks the
//! error a coordinator's failed query reports ([`runtime`]).
//!
//! Whoever schedules, a query follows the §6 protocol. The first three
//! steps are the querying user's side, one shared preparation (see
//! [`session`]) that a [`Session`] and a [`Coordinator`] both call:
//!
//! 1. **re-verify the assignment at runtime** — every subject must be
//!    authorized (Def. 4.1) for the profile of every relation it
//!    touches, independently of what the static analysis promised
//!    (Theorems 5.1–5.3 get a second, behavioral check here);
//! 2. **provision key rings** — [`ClusterKey`](mpq_crypto::keyring::ClusterKey)
//!    material per Def. 6.1 cluster, handed to exactly the holders;
//!    every computing subject additionally receives the *public*
//!    Paillier halves, enabling homomorphic aggregation without
//!    decryption capability. A [`Session`] provisions *incrementally*
//!    through a per-session cache (only clusters it has never seen are
//!    generated and shipped); [`Session::reset_provisioning`] before a
//!    query makes it the standalone, protocol-faithful one;
//! 3. **dispatch signed requests** — the sub-queries of
//!    `mpq_core::dispatch` travel as `[[q_S, keys]_priU]_pubS`
//!    envelopes ([`SignedEnvelope`](mpq_crypto::rsa::SignedEnvelope)),
//!    batched per subject-pair edge, opened and verified by each
//!    recipient before it computes anything;
//! 4. **execute** — the party core steps every region at its subject,
//!    over real XTEA/OPE/Paillier ciphertexts; every table crossing a
//!    subject boundary is byte-accounted and [cell-audited](audit) by
//!    the *receiving* party;
//! 5. return a [`Report`] with the final (plaintext, for the user)
//!    result and the bytes-on-the-wire per subject-pair edge.
//!
//! The drivers and transports produce bit-identical results and
//! per-edge byte counts — a property the differential tests lean on,
//! and one that tests *drivers and wires*, not copies of the
//! semantics.
//!
//! A subject receiving data its view does not permit — or attempting
//! encryption/decryption with a key it does not hold — aborts the
//! query with a [`SimError`] (the session survives; see
//! [`runtime`] for how an aborted query drains).

pub mod audit;
pub(crate) mod codec;
pub mod error;
pub mod fault;
pub(crate) mod party;
pub mod remote;
pub mod runtime;
pub mod session;
pub mod transport;

pub use audit::audit_transfer;
pub use error::SimError;
pub use fault::{FaultAction, FaultPlan, RetryPolicy};
pub use remote::{Coordinator, Server, ServerConfig};
pub use session::{Session, SessionConfig, SessionStats};
pub use transport::{EdgeRecovery, TransportError, TransportKind};

use mpq_algebra::SubjectId;
use mpq_core::subjects::Subjects;
use mpq_exec::Table;
use std::collections::HashMap;

/// Paillier modulus size for generated cluster keys. Small
/// enough to keep runs fast, large enough for the fixed-point encodings
/// the execution layer produces.
pub(crate) const PAILLIER_BITS: usize = 256;

/// RSA modulus size for request envelopes (demo-grade, like the rest of
/// `mpq-crypto`).
pub(crate) const RSA_BITS: usize = 512;

/// The outcome of a distributed run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The final result, as delivered to the querying user.
    pub result: Table,
    /// Bytes on the wire per directed subject-pair edge: request
    /// envelopes (user → executor) and result tables (producer →
    /// consumer, plus root → user).
    pub transfers: HashMap<(SubjectId, SubjectId), usize>,
    /// The request-envelope share of [`Report::transfers`] (user →
    /// executor dispatch bytes), kept separate so data-flow transfers
    /// can be compared against the §7 cost model, which prices plan
    /// edges, not protocol dispatch.
    pub request_bytes: HashMap<(SubjectId, SubjectId), usize>,
    /// Number of signed sub-query requests dispatched.
    pub requests: usize,
}

impl Report {
    /// Put a report together from the dispatch share (envelope bytes,
    /// request count) and what each clean party contributed.
    pub(crate) fn assemble(
        request_bytes: HashMap<(SubjectId, SubjectId), usize>,
        requests: usize,
        outs: impl IntoIterator<Item = party::PartyOut>,
    ) -> Result<Report, SimError> {
        let mut transfers = request_bytes.clone();
        let mut result = None;
        for out in outs {
            for (edge, bytes) in out.transfers {
                *transfers.entry(edge).or_default() += bytes;
            }
            result = result.or(out.result);
        }
        Ok(Report {
            result: result.ok_or(TransportError::Frame {
                detail: "no result delivered to the user".to_string(),
            })?,
            transfers,
            request_bytes,
            requests,
        })
    }

    /// Total bytes moved across all edges.
    pub fn total_bytes(&self) -> usize {
        self.transfers.values().sum()
    }

    /// Bytes of result tables per directed edge — [`Report::transfers`]
    /// with the request-envelope share subtracted. Unlike envelope
    /// bytes (whose hybrid-encryption session keys are drawn fresh per
    /// query), data-flow bytes are a deterministic function of the key
    /// material and the execution seed, which makes them the
    /// ciphertext-sensitive quantity the differential tests compare.
    pub fn data_bytes(&self) -> HashMap<(SubjectId, SubjectId), usize> {
        let mut out = self.transfers.clone();
        for (edge, bytes) in &self.request_bytes {
            match out.get_mut(edge) {
                Some(total) if *total > *bytes => *total -= bytes,
                _ => {
                    out.remove(edge);
                }
            }
        }
        out
    }

    /// Render the transfer map as sorted `from → to: bytes` lines.
    pub fn render_transfers(&self, subjects: &Subjects) -> String {
        let mut edges: Vec<_> = self.transfers.iter().collect();
        edges.sort_by_key(|((f, t), _)| (f.index(), t.index()));
        let mut out = String::new();
        for ((from, to), bytes) in edges {
            out.push_str(&format!(
                "  {} → {}: {bytes} bytes\n",
                subjects.name(*from),
                subjects.name(*to)
            ));
        }
        out
    }
}
