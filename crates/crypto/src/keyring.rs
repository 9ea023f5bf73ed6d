//! Cluster keys and per-subject key rings.
//!
//! Definition 6.1 clusters encrypted attributes by the root profile's
//! equivalence classes and assigns one key per cluster. A
//! [`ClusterKey`] carries the material for *all four* schemes derived
//! from one 128-bit master secret (deterministic/randomized/OPE
//! sub-keys via SipHash key derivation, plus a Paillier keypair), so
//! the optimizer can pick the scheme per operation, as the paper
//! prescribes ("each attribute can be encrypted with a different
//! encryption scheme … the only constraint is that attributes that
//! belong to the same set in the equivalence set of the root's profile
//! need to be encrypted with the same key").
//!
//! A [`KeyRing`] is the set of cluster keys a subject holds; the
//! distributed runtime hands each subject exactly the keys Def. 6.1
//! distributes to it and enforces that decryption without the key
//! fails.

use crate::paillier::{PaillierKeypair, PaillierPublic};
use crate::siphash::derive_subkey;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Key material for one attribute cluster.
///
/// Scheme sub-keys are derived from the master secret once, at
/// generation time — encrypting a column no longer re-runs the SipHash
/// derivation per cell, and clones share the Paillier keypair (and its
/// cached Montgomery context) through an `Arc`.
#[derive(Clone)]
pub struct ClusterKey {
    /// Key id (matches `mpq_core::keys::PlanKey::id` and the `key_id`
    /// field of encrypted cells).
    pub id: u32,
    /// Deterministic-scheme sub-key.
    det: [u8; 16],
    /// Randomized-scheme sub-key.
    rnd: [u8; 16],
    /// OPE sub-key.
    ope: [u8; 16],
    /// Paillier keypair for additively homomorphic aggregation.
    paillier: Arc<PaillierKeypair>,
}

impl std::fmt::Debug for ClusterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "ClusterKey(id={})", self.id)
    }
}

impl ClusterKey {
    /// Generate fresh material. `paillier_bits` sizes the homomorphic
    /// modulus (256 is plenty for tests; 512+ for benchmarks).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, id: u32, paillier_bits: usize) -> ClusterKey {
        let mut master = [0u8; 16];
        rng.fill(&mut master);
        ClusterKey {
            id,
            det: derive_subkey(&master, "det"),
            rnd: derive_subkey(&master, "rnd"),
            ope: derive_subkey(&master, "ope"),
            paillier: Arc::new(PaillierKeypair::generate(rng, paillier_bits)),
        }
    }

    /// Deterministic-scheme sub-key.
    pub fn det_key(&self) -> [u8; 16] {
        self.det
    }

    /// Randomized-scheme sub-key.
    pub fn rnd_key(&self) -> [u8; 16] {
        self.rnd
    }

    /// OPE sub-key.
    pub fn ope_key(&self) -> [u8; 16] {
        self.ope
    }

    /// Full Paillier keypair (decryption capability).
    pub fn paillier(&self) -> &PaillierKeypair {
        &self.paillier
    }

    /// Public Paillier half (enough to encrypt and aggregate).
    pub fn paillier_public(&self) -> PaillierPublic {
        self.paillier.public.clone()
    }

    /// Serialize the full key material for Def. 6.1 provisioning over a
    /// wire: id, the three derived sub-keys, and the Paillier keypair.
    /// Secret material — must only travel inside a sealed
    /// [`SignedEnvelope`](crate::rsa::SignedEnvelope).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 48);
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&self.det);
        out.extend_from_slice(&self.rnd);
        out.extend_from_slice(&self.ope);
        out.extend_from_slice(&self.paillier.to_bytes());
        out
    }

    /// Reconstruct a key from [`ClusterKey::to_bytes`] output (`None`
    /// on malformed input).
    pub fn from_bytes(bytes: &[u8]) -> Option<ClusterKey> {
        if bytes.len() < 4 + 48 {
            return None;
        }
        let id = u32::from_be_bytes(bytes[0..4].try_into().ok()?);
        let sub = |at: usize| -> Option<[u8; 16]> { bytes[at..at + 16].try_into().ok() };
        Some(ClusterKey {
            id,
            det: sub(4)?,
            rnd: sub(20)?,
            ope: sub(36)?,
            paillier: Arc::new(PaillierKeypair::from_bytes(&bytes[52..])?),
        })
    }
}

/// The keys one subject holds, indexed by key id.
///
/// Full [`ClusterKey`]s grant encryption and decryption; *public*
/// Paillier halves (which any subject may hold — they enable only
/// homomorphic aggregation, not decryption) are tracked separately so
/// a provider like the paper's `X` can compute `avg(P^k)` without ever
/// being able to read `P`.
#[derive(Default)]
pub struct KeyRing {
    keys: RwLock<HashMap<u32, ClusterKey>>,
    publics: RwLock<HashMap<u32, Arc<PaillierPublic>>>,
}

impl KeyRing {
    /// Empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grant a full key to this ring.
    pub fn insert(&self, key: ClusterKey) {
        self.publics
            .write()
            .expect("keyring lock poisoned")
            .insert(key.id, Arc::new(key.paillier_public()));
        self.keys
            .write()
            .expect("keyring lock poisoned")
            .insert(key.id, key);
    }

    /// Grant only the public (aggregation) half of a key.
    pub fn insert_public(&self, id: u32, public: PaillierPublic) {
        self.publics
            .write()
            .expect("keyring lock poisoned")
            .insert(id, Arc::new(public));
    }

    /// Fetch a full key by id.
    pub fn get(&self, id: u32) -> Option<ClusterKey> {
        self.keys
            .read()
            .expect("keyring lock poisoned")
            .get(&id)
            .cloned()
    }

    /// Fetch the public Paillier half of a key. The returned handle is
    /// shared: its cached Montgomery context is built once per ring
    /// entry, not per caller.
    pub fn get_public(&self, id: u32) -> Option<Arc<PaillierPublic>> {
        self.publics
            .read()
            .expect("keyring lock poisoned")
            .get(&id)
            .cloned()
    }

    /// `true` if the ring holds the full key `id`.
    pub fn holds(&self, id: u32) -> bool {
        self.keys
            .read()
            .expect("keyring lock poisoned")
            .contains_key(&id)
    }

    /// Drop the full key `id`, keeping its public (aggregation) half if
    /// it was ever granted. Returns `true` if a key was removed.
    pub fn revoke(&self, id: u32) -> bool {
        self.keys
            .write()
            .expect("keyring lock poisoned")
            .remove(&id)
            .is_some()
    }
}

impl Clone for KeyRing {
    fn clone(&self) -> Self {
        KeyRing {
            keys: RwLock::new(self.keys.read().expect("keyring lock poisoned").clone()),
            publics: RwLock::new(self.publics.read().expect("keyring lock poisoned").clone()),
        }
    }
}

impl std::fmt::Debug for KeyRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids: Vec<u32> = self
            .keys
            .read()
            .expect("keyring lock poisoned")
            .keys()
            .copied()
            .collect();
        write!(f, "KeyRing{ids:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn subkeys_are_distinct_and_stable() {
        let mut rng = StdRng::seed_from_u64(5);
        let k = ClusterKey::generate(&mut rng, 0, 256);
        assert_ne!(k.det_key(), k.rnd_key());
        assert_ne!(k.det_key(), k.ope_key());
        assert_eq!(k.det_key(), k.det_key());
    }

    #[test]
    fn ring_membership() {
        let mut rng = StdRng::seed_from_u64(6);
        let ring = KeyRing::new();
        assert!(!ring.holds(3));
        let k = ClusterKey::generate(&mut rng, 3, 256);
        ring.insert(k);
        assert!(ring.holds(3));
        assert!(!ring.holds(4));
        assert_eq!(ring.get(3).unwrap().id, 3);
        assert!(ring.get(4).is_none());
    }

    #[test]
    fn debug_never_leaks_material() {
        let mut rng = StdRng::seed_from_u64(7);
        let k = ClusterKey::generate(&mut rng, 9, 256);
        let dbg = format!("{k:?}");
        assert_eq!(dbg, "ClusterKey(id=9)");
    }
}
