//! Cluster keys and per-subject key rings.
//!
//! Definition 6.1 clusters encrypted attributes by the root profile's
//! equivalence classes and assigns one key per cluster. A
//! [`ClusterKey`] carries the material for *all four* schemes derived
//! from one 128-bit master secret (deterministic/randomized/OPE
//! sub-keys via SipHash key derivation, and a Paillier keypair whose
//! prime search is seeded from a fourth sub-key), so the optimizer can
//! pick the scheme per operation, as the paper prescribes ("each
//! attribute can be encrypted with a different encryption scheme … the
//! only constraint is that attributes that belong to the same set in
//! the equivalence set of the root's profile need to be encrypted with
//! the same key"). The Paillier keypair is by far the dearest part —
//! two prime searches — and only a cluster some query sums under
//! Paillier needs it, so it is built on first use: a function of the
//! master, hence the same wherever and whenever it is built.
//!
//! A [`KeyRing`] is the set of cluster keys a subject holds; the
//! distributed runtime hands each subject exactly the keys Def. 6.1
//! distributes to it and enforces that decryption without the key
//! fails.

use crate::paillier::{self, PaillierKeypair, PaillierPublic};
use crate::siphash::{derive_subkey, siphash24};
use rand::{Rng, RngCore};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Length of [`ClusterKey::to_bytes`]: id, master, Paillier modulus
/// bits.
const WIRE_LEN: usize = 4 + 16 + 4;

/// Key material for one attribute cluster.
///
/// Scheme sub-keys are derived from the master secret once, when the
/// key is made — encrypting a column never re-runs the SipHash
/// derivation per cell. The Paillier keypair is derived from the master
/// the first time anything asks for it, and every clone shares that one
/// build (and its cached Montgomery contexts) through an `Arc`.
#[derive(Clone)]
pub struct ClusterKey {
    /// Key id (matches `mpq_core::keys::PlanKey::id` and the `key_id`
    /// field of encrypted cells).
    pub id: u32,
    /// The master secret every other field is a function of.
    master: [u8; 16],
    /// Deterministic-scheme sub-key.
    det: [u8; 16],
    /// Randomized-scheme sub-key.
    rnd: [u8; 16],
    /// OPE sub-key.
    ope: [u8; 16],
    /// Size of the Paillier modulus.
    paillier_bits: usize,
    /// The Paillier keypair for additively homomorphic aggregation, and
    /// its public half as the rings hand it out; built on first use.
    paillier: Arc<OnceLock<(PaillierKeypair, Arc<PaillierPublic>)>>,
}

impl std::fmt::Debug for ClusterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "ClusterKey(id={})", self.id)
    }
}

impl ClusterKey {
    /// Fresh material: draws the 16-byte master from `rng`, nothing
    /// more. `paillier_bits` sizes the homomorphic modulus (256 is
    /// plenty for tests; 512+ for benchmarks).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, id: u32, paillier_bits: usize) -> ClusterKey {
        assert!(
            paillier::modulus_bits_ok(paillier_bits),
            "no Paillier modulus of {paillier_bits} bits"
        );
        let mut master = [0u8; 16];
        rng.fill(&mut master);
        ClusterKey::from_master(id, master, paillier_bits)
    }

    fn from_master(id: u32, master: [u8; 16], paillier_bits: usize) -> ClusterKey {
        ClusterKey {
            id,
            master,
            det: derive_subkey(&master, "det"),
            rnd: derive_subkey(&master, "rnd"),
            ope: derive_subkey(&master, "ope"),
            paillier_bits,
            paillier: Arc::default(),
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

    /// The Paillier keypair and its shared public half, built on the
    /// first call: two prime searches over a stream keyed by all 128
    /// bits of a sub-key of the master.
    fn homomorphic(&self) -> &(PaillierKeypair, Arc<PaillierPublic>) {
        self.paillier.get_or_init(|| {
            let mut stream = KeyStream {
                key: derive_subkey(&self.master, "paillier"),
                counter: 0,
            };
            let keypair = PaillierKeypair::generate(&mut stream, self.paillier_bits);
            let public = Arc::new(keypair.public.clone());
            (keypair, public)
        })
    }

    /// Full Paillier keypair (decryption capability), built on first
    /// use.
    pub fn paillier(&self) -> &PaillierKeypair {
        &self.homomorphic().0
    }

    /// Public Paillier half (enough to encrypt and aggregate).
    pub fn paillier_public(&self) -> PaillierPublic {
        self.paillier().public.clone()
    }

    /// `true` once this key or a clone of it has built the Paillier
    /// keypair.
    pub fn paillier_built(&self) -> bool {
        self.paillier.get().is_some()
    }

    /// Serialize the key for Def. 6.1 provisioning over a wire: id, the
    /// master secret and the Paillier modulus size — everything else is
    /// derived from them on the receiving side, the keypair only if it
    /// is ever needed there. Secret material — must only travel inside
    /// a sealed [`SignedEnvelope`](crate::rsa::SignedEnvelope).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WIRE_LEN);
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&self.master);
        out.extend_from_slice(&(self.paillier_bits as u32).to_be_bytes());
        out
    }

    /// Reconstruct a key from [`ClusterKey::to_bytes`] output: `None`
    /// on malformed input and on a modulus size no Paillier key can
    /// have.
    pub fn from_bytes(bytes: &[u8]) -> Option<ClusterKey> {
        if bytes.len() != WIRE_LEN {
            return None;
        }
        let id = u32::from_be_bytes(bytes[0..4].try_into().ok()?);
        let master = bytes[4..20].try_into().ok()?;
        let bits = u32::from_be_bytes(bytes[20..].try_into().ok()?) as usize;
        paillier::modulus_bits_ok(bits).then(|| ClusterKey::from_master(id, master, bits))
    }
}

/// The stream a cluster's Paillier primes are drawn from: SipHash-2-4
/// of a counter under a 128-bit sub-key of the master, so the keypair
/// keeps the master's entropy.
struct KeyStream {
    key: [u8; 16],
    counter: u64,
}

impl RngCore for KeyStream {
    fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        siphash24(&self.key, &self.counter.to_le_bytes())
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

    /// Grant a full key to this ring. The key carries its own public
    /// half, which replaces any granted alone under the same id.
    pub fn insert(&self, key: ClusterKey) {
        self.publics
            .write()
            .expect("keyring lock poisoned")
            .remove(&key.id);
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

    /// Fetch the public Paillier half of a key: a full key's own (built
    /// on first use), else one granted alone. The returned handle is
    /// shared: its cached Montgomery context is built once per key, not
    /// per caller.
    pub fn get_public(&self, id: u32) -> Option<Arc<PaillierPublic>> {
        if let Some(key) = self.get(id) {
            return Some(Arc::clone(&key.homomorphic().1));
        }
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

    /// Drop the full key `id`, keeping a public (aggregation) half
    /// granted alone. Returns `true` if a key was removed.
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
impl ClusterKey {
    /// Key 0 of an all-zero master whose Paillier keypair is `keypair`:
    /// for tests of what a cluster key makes of a ciphertext under any
    /// keypair.
    pub(crate) fn with_paillier(keypair: PaillierKeypair) -> ClusterKey {
        let key = ClusterKey::from_master(0, [0; 16], 256);
        let public = Arc::new(keypair.public.clone());
        let _ = key.paillier.set((keypair, public));
        key
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

    /// The keypair is a function of the master alone: built lazily by a
    /// key, by its clone, or by a copy decoded from the wire, it is the
    /// one a prime search over the master's `paillier` stream makes up
    /// front — and a key that is never asked for it never builds it.
    #[test]
    fn the_paillier_keypair_is_built_once_from_the_master() {
        let k = ClusterKey::generate(&mut StdRng::seed_from_u64(8), 2, 256);
        let (clone, wired) = (k.clone(), ClusterKey::from_bytes(&k.to_bytes()).unwrap());
        let _ = (k.det_key(), k.rnd_key(), k.ope_key());
        assert!(!k.paillier_built() && !wired.paillier_built());
        let mut stream = KeyStream {
            key: derive_subkey(&k.master, "paillier"),
            counter: 0,
        };
        let eager = PaillierKeypair::generate(&mut stream, 256);
        assert_eq!(k.paillier().to_bytes(), eager.to_bytes());
        assert!(clone.paillier_built(), "a clone shares the build");
        assert!(std::ptr::eq(clone.paillier(), k.paillier()));
        assert!(!wired.paillier_built(), "a decoded copy builds its own");
        assert_eq!(wired.paillier().to_bytes(), eager.to_bytes());
    }

    /// A held key answers for its public half, in place of one granted
    /// alone before it.
    #[test]
    fn a_held_key_is_its_own_public_half() {
        let ring = KeyRing::new();
        let k = ClusterKey::generate(&mut StdRng::seed_from_u64(9), 4, 256);
        let other = ClusterKey::generate(&mut StdRng::seed_from_u64(10), 4, 256);
        ring.insert_public(4, other.paillier_public());
        ring.insert(k.clone());
        assert_eq!(*ring.get_public(4).unwrap(), k.paillier_public());
        assert!(ring.revoke(4));
        assert!(ring.get_public(4).is_none());
    }

    #[test]
    fn a_modulus_size_no_key_can_have_does_not_decode() {
        let k = ClusterKey::generate(&mut StdRng::seed_from_u64(11), 1, 256);
        let bytes = k.to_bytes();
        assert_eq!(bytes.len(), WIRE_LEN);
        for bits in [0u32, 127, 4097, u32::MAX] {
            let mut bad = bytes.clone();
            bad[20..].copy_from_slice(&bits.to_be_bytes());
            assert!(ClusterKey::from_bytes(&bad).is_none(), "{bits} bits");
        }
        assert!(ClusterKey::from_bytes(&bytes[..WIRE_LEN - 1]).is_none());
    }

    #[test]
    fn debug_never_leaks_material() {
        let mut rng = StdRng::seed_from_u64(7);
        let k = ClusterKey::generate(&mut rng, 9, 256);
        let dbg = format!("{k:?}");
        assert_eq!(dbg, "ClusterKey(id=9)");
    }
}
