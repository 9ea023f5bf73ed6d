//! Runtime failures — every way a distributed run can be refused.

use mpq_algebra::{AttrId, NodeId, RelId, SubjectId};
use mpq_core::authz::AuthzViolation;
use mpq_exec::ExecError;

/// Why a distributed execution was aborted.
///
/// The first three variants are the *runtime* enforcement
/// of the paper's authorization model: they fire when an assignment
/// that slipped past (or bypassed) the static analysis of
/// `mpq_core::candidates` / `mpq_core::extend` would hand a subject
/// data its view does not permit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A subject's overall view does not authorize a relation it would
    /// compute on (Def. 4.1, re-checked per node before execution).
    Unauthorized {
        /// Node whose execution was refused.
        node: NodeId,
        /// Subject assigned to it.
        subject: SubjectId,
        /// The violated condition.
        violation: AuthzViolation,
    },
    /// A transferred table carried a plaintext cell for an attribute
    /// the receiving subject may only see encrypted (or not at all) —
    /// the cell-level counterpart of [`SimError::Unauthorized`].
    LeakedPlaintext {
        /// Attribute whose cell arrived in the wrong form.
        attr: AttrId,
        /// Receiving subject.
        subject: SubjectId,
    },
    /// A transferred table carried a column the receiving subject has
    /// no visibility over in any form.
    InvisibleAttribute {
        /// The invisible attribute.
        attr: AttrId,
        /// Receiving subject.
        subject: SubjectId,
    },
    /// A node of the extended plan has no assigned subject.
    Unassigned(NodeId),
    /// A base relation referenced by the plan has no data authority.
    NoAuthority(RelId),
    /// A leaf was assigned to a subject other than the data authority
    /// storing its relation — base relations never leave their
    /// authority.
    NotTheAuthority {
        /// The leaf node.
        node: NodeId,
        /// The subject wrongly assigned to it.
        subject: SubjectId,
        /// The authority that actually stores the relation.
        authority: SubjectId,
    },
    /// A signed request envelope failed to open or verify at its
    /// recipient (tampering, wrong recipient, wrong signer).
    Envelope {
        /// Intended recipient.
        to: SubjectId,
    },
    /// No per-attribute encryption scheme satisfies the plan
    /// (conflicting ciphertext capabilities).
    Scheme(String),
    /// Encrypted-literal rewriting failed (dispatcher lacks a key).
    Rewrite(String),
    /// A subject's local execution failed — including
    /// [`ExecError::MissingKey`] when a subject attempts encryption or
    /// decryption with a key Def. 6.1 never distributed to it.
    Exec(ExecError),
    /// The static pre-flight verifier (`mpq_core::verify`) rejected the
    /// plan before any key material was generated; the report carries
    /// every coded diagnostic. Sessions opened with
    /// `SessionConfig::without_preflight` skip this layer and rely on the
    /// dynamic checks above.
    Verify(mpq_core::verify::VerifyReport),
    /// The wire failed mid-query: a peer became unreachable, a frame
    /// was malformed, or an expected message never arrived within the
    /// configured timeout. The epoch is aborted cleanly (peers receive
    /// a best-effort `Abort`) and the session/coordinator stays usable.
    Transport(crate::transport::TransportError),
}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

impl From<crate::transport::TransportError> for SimError {
    fn from(e: crate::transport::TransportError) -> Self {
        SimError::Transport(e)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Unauthorized {
                node,
                subject,
                violation,
            } => write!(
                f,
                "subject {subject} is not authorized to execute node {node}: {violation}"
            ),
            SimError::LeakedPlaintext { attr, subject } => write!(
                f,
                "refusing transfer: plaintext cell of attribute {attr} would reach subject \
                 {subject}, whose view permits it only encrypted"
            ),
            SimError::InvisibleAttribute { attr, subject } => write!(
                f,
                "refusing transfer: attribute {attr} is not visible to subject {subject} in any form"
            ),
            SimError::Unassigned(n) => write!(f, "node {n} has no assigned subject"),
            SimError::NoAuthority(r) => {
                write!(f, "base relation {r} has no declared data authority")
            }
            SimError::NotTheAuthority {
                node,
                subject,
                authority,
            } => write!(
                f,
                "leaf {node} is assigned to {subject}, but its relation is stored by \
                 authority {authority}"
            ),
            SimError::Envelope { to } => {
                write!(f, "request envelope for subject {to} failed to open/verify")
            }
            SimError::Scheme(m) => write!(f, "scheme assignment failed: {m}"),
            SimError::Rewrite(m) => write!(f, "literal rewriting failed: {m}"),
            SimError::Exec(e) => write!(f, "subject-local execution failed: {e}"),
            SimError::Verify(r) => write!(f, "static pre-flight verification failed:\n{r}"),
            SimError::Transport(e) => write!(f, "transport failure aborted the query: {e}"),
        }
    }
}

impl std::error::Error for SimError {}
