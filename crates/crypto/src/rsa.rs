//! Textbook RSA signatures and hybrid envelopes for query dispatch.
//!
//! §6: "The communication to each subject will be signed with the
//! private key of the user and encrypted with the subject's public key.
//! Having a sub-query signed allows the recipient to verify its
//! authenticity and integrity. Encrypting a sub-query with the public
//! key of the recipient supports confidentiality."
//!
//! [`SignedEnvelope::seal`] implements `[[payload]_priSender]_pubRecipient`
//! as sign-then-encrypt: an RSA signature over the SHA-256 digest,
//! then hybrid encryption (a fresh XTEA session key, itself
//! RSA-encrypted). Demo-grade padding — see the crate-level disclaimer.
//!
//! Each envelope costs two private operations, the sender's signature
//! and the recipient's unwrapping of the session key. Both run on the
//! factors of the keypair's modulus: two half-width exponentiations,
//! under `d mod (p−1)` and `d mod (q−1)` on the fixed-width engine, then
//! Garner's recombination — the integer `block^d mod n` itself, so
//! signatures and envelopes are those of the one full-width power.
//! Public keys that arrive from a peer are bounded where they enter
//! ([`RsaPublic::from_parts`]).

use crate::bignum::{BigUint, Montgomery};
use crate::sha256::sha256;
use crate::xtea;
use rand::Rng;
use std::cmp::Ordering;
use std::sync::OnceLock;

/// RSA public key.
///
/// Carries a lazily built [`Montgomery`] context for `n`, so every
/// operation under one key — its holder's included — pays the
/// reduction setup once.
#[derive(Clone, Debug)]
pub struct RsaPublic {
    /// Modulus.
    pub n: BigUint,
    /// Public exponent (65537).
    pub e: BigUint,
    /// Montgomery context for `n`, built on first use; `None` inside
    /// for a modulus that has none (even — [`RsaPublic::from_parts`]
    /// refuses those, and `verify` is total without relying on it).
    mont: OnceLock<Option<Montgomery>>,
}

impl PartialEq for RsaPublic {
    fn eq(&self, other: &Self) -> bool {
        // The Montgomery cache is derived state, not identity.
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublic {}

/// RSA keypair. The private exponent `d = e⁻¹ mod φ(n)` is kept only as
/// its residues modulo `p − 1` and `q − 1`, beside the factors' own
/// Montgomery contexts and Garner's coefficient, so [`RsaKeypair::sign`]
/// and [`SignedEnvelope::open`] run their private operation on the
/// factors: two half-width exponentiations instead of one full-width
/// one, with the same result.
#[derive(Clone)]
pub struct RsaKeypair {
    /// Public half.
    pub public: RsaPublic,
    /// Montgomery context for `p`, the larger prime factor of `n`.
    mont_p: Montgomery,
    /// Montgomery context for `q`, the smaller one.
    mont_q: Montgomery,
    /// `q`.
    q: BigUint,
    /// `d mod (p − 1)`.
    d_p: BigUint,
    /// `d mod (q − 1)`.
    d_q: BigUint,
    /// `q⁻¹ mod p` (Garner's coefficient).
    q_inv: BigUint,
}

impl std::fmt::Debug for RsaKeypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material: the public half only.
        f.debug_struct("RsaKeypair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl RsaKeypair {
    /// Generate an `bits`-bit keypair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> RsaKeypair {
        assert!(bits >= 384, "modulus must exceed digest + padding size");
        let e = BigUint::from_u64(65_537);
        let one = BigUint::one();
        loop {
            let p = BigUint::gen_prime(rng, bits / 2);
            let q = BigUint::gen_prime(rng, bits / 2);
            let (p, q) = match p.cmp(&q) {
                Ordering::Equal => continue,
                Ordering::Greater => (p, q),
                Ordering::Less => (q, p),
            };
            // `e` is a unit mod φ(n) = (p−1)(q−1) exactly when it is one
            // mod both factors, and then `d mod (p−1)` is `e⁻¹ mod (p−1)`.
            let (Some(d_p), Some(d_q)) = (e.modinv(&p.sub(&one)), e.modinv(&q.sub(&one))) else {
                continue;
            };
            return RsaKeypair {
                public: RsaPublic::new(p.mul(&q), e),
                q_inv: q.modinv(&p).expect("distinct primes are coprime"),
                mont_p: Montgomery::new(&p).expect("an odd prime"),
                mont_q: Montgomery::new(&q).expect("an odd prime"),
                q,
                d_p,
                d_q,
            };
        }
    }

    /// Sign `message`: RSA private operation over its SHA-256 digest.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        self.private_op(&BigUint::from_bytes_be(&sha256(message)))
            .to_bytes_be()
    }

    /// RSA private operation `block^d mod n` on a block `< n`, by CRT:
    /// `s_p = block^d_p mod p` and `s_q = block^d_q mod q`, then
    /// Garner's `s_q + q·((s_p − s_q)·q⁻¹ mod p)`. By Fermat
    /// this is `block^d mod n` for every block, units or not.
    fn private_op(&self, block: &BigUint) -> BigUint {
        let [s_p, s_q] = Montgomery::pow_each([
            (&self.mont_p, block, &self.d_p),
            (&self.mont_q, block, &self.d_q),
        ]);
        self.mont_p.garner(&s_q, &self.q, &s_p, &self.q_inv)
    }
}

/// Bytes [`SignedEnvelope::seal`] wraps under the recipient's key: the
/// XTEA session key.
const SESSION_KEY_LEN: usize = 16;

/// Widest modulus [`RsaPublic::from_parts`] accepts. Sessions use 512
/// bits; a public operation costs time quadratic or worse in the
/// modulus, so an unbounded one lets a peer hold a server's serve loop,
/// or a session's walk on its caller's thread, for as long as it likes
/// (one `verify` under a 64 KiB modulus: 6.7 s).
const MAX_MODULUS_BITS: usize = 4096;

/// Bytes `encrypt_block` adds around a block: the `0x02` marker, at
/// least eight random bytes, the `0x00` separator, and one byte of
/// headroom so the padded block stays below the modulus.
const PAD_OVERHEAD: usize = 11;

impl RsaPublic {
    /// Public key from parts that arrived from a peer. `None` for
    /// parts no usable key has — an even modulus, one too narrow to
    /// wrap a session key or wider than 4,096 bits, an even
    /// or trivial exponent or one `≥ n` — so sealing an envelope to a
    /// key that decoded cannot panic, nor verifying under it stall.
    pub fn from_parts(n: BigUint, e: BigUint) -> Option<RsaPublic> {
        let width = n.bits().div_ceil(8);
        let sound = (SESSION_KEY_LEN + PAD_OVERHEAD..=MAX_MODULUS_BITS / 8).contains(&width);
        (sound && !n.is_even() && !e.is_even() && !e.is_one() && e < n)
            .then(|| RsaPublic::new(n, e))
    }

    /// Public key from parts known to be sound (generated here).
    fn new(n: BigUint, e: BigUint) -> RsaPublic {
        RsaPublic {
            n,
            e,
            mont: OnceLock::new(),
        }
    }

    /// `block^exp mod n` on the cached context: under `e = 65537` the
    /// sliding window builds no table, 16 squarings and one product.
    fn pow(&self, block: &BigUint, exp: &BigUint) -> BigUint {
        match self.mont.get_or_init(|| Montgomery::new(&self.n)) {
            Some(ctx) => ctx.pow(block, exp),
            None => block.modpow(exp, &self.n),
        }
    }

    /// Verify a signature produced by [`RsaKeypair::sign`].
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        let sig = BigUint::from_bytes_be(signature);
        if sig >= self.n {
            return false;
        }
        self.pow(&sig, &self.e) == BigUint::from_bytes_be(&sha256(message))
    }

    /// RSA public encryption of a short block (the session key), with
    /// random non-zero padding: `0x02 ‖ random ‖ 0x00 ‖ block`.
    fn encrypt_block<R: Rng + ?Sized>(&self, rng: &mut R, block: &[u8]) -> Vec<u8> {
        let modulus_len = self.n.to_bytes_be().len();
        assert!(
            block.len() + PAD_OVERHEAD <= modulus_len,
            "block too large for modulus"
        );
        let mut padded = Vec::with_capacity(modulus_len - 1);
        padded.push(0x02);
        for _ in 0..(modulus_len - 2 - block.len() - 1) {
            padded.push(rng.gen_range(1..=u8::MAX));
        }
        padded.push(0x00);
        padded.extend_from_slice(block);
        self.pow(&BigUint::from_bytes_be(&padded), &self.e)
            .to_bytes_be()
    }
}

fn unpad(padded: &[u8]) -> Option<Vec<u8>> {
    if padded.first() != Some(&0x02) {
        return None;
    }
    let zero = padded.iter().skip(1).position(|&b| b == 0)? + 1;
    Some(padded[zero + 1..].to_vec())
}

/// A sub-query envelope: signed by the sender, encrypted for the
/// recipient (`[[payload]_priS]_pubR`).
#[derive(Clone, Debug)]
pub struct SignedEnvelope {
    /// RSA-encrypted XTEA session key.
    pub wrapped_key: Vec<u8>,
    /// XTEA-CTR encrypted `payload`.
    pub body: Vec<u8>,
    /// RSA signature over the plaintext payload.
    pub signature: Vec<u8>,
}

impl SignedEnvelope {
    /// Sign `payload` with `sender` and encrypt it for `recipient`.
    pub fn seal<R: Rng + ?Sized>(
        rng: &mut R,
        payload: &[u8],
        sender: &RsaKeypair,
        recipient: &RsaPublic,
    ) -> SignedEnvelope {
        let signature = sender.sign(payload);
        let mut session_key = [0u8; SESSION_KEY_LEN];
        rng.fill(&mut session_key);
        let nonce: u64 = rng.gen();
        let body = xtea::rnd_encrypt(&session_key, nonce, payload);
        let wrapped_key = recipient.encrypt_block(rng, &session_key);
        SignedEnvelope {
            wrapped_key,
            body,
            signature,
        }
    }

    /// Decrypt with `recipient` and verify the signature against
    /// `sender`. Returns the payload, or `None` when decryption or
    /// verification fails (tampering, wrong recipient, wrong sender).
    pub fn open(&self, recipient: &RsaKeypair, sender: &RsaPublic) -> Option<Vec<u8>> {
        let wrapped = BigUint::from_bytes_be(&self.wrapped_key);
        if wrapped >= recipient.public.n {
            return None;
        }
        let padded = recipient.private_op(&wrapped).to_bytes_be();
        let session_key: [u8; SESSION_KEY_LEN] = unpad(&padded)?.try_into().ok()?;
        let payload = xtea::rnd_decrypt(&session_key, &self.body)?;
        if sender.verify(&payload, &self.signature) {
            Some(payload)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> (RsaKeypair, RsaKeypair, StdRng) {
        let mut rng = StdRng::seed_from_u64(1234);
        let user = RsaKeypair::generate(&mut rng, 512);
        let provider = RsaKeypair::generate(&mut rng, 512);
        (user, provider, rng)
    }

    #[test]
    fn sign_verify() {
        let (user, _, _) = keys();
        let msg = b"select T, avg(P) from ...";
        let sig = user.sign(msg);
        assert!(user.public.verify(msg, &sig));
        assert!(!user.public.verify(b"select *", &sig));
    }

    #[test]
    fn envelope_roundtrip() {
        let (user, provider, mut rng) = keys();
        let payload = b"[[qY,(P,kP)]priU]pubY payload".to_vec();
        let env = SignedEnvelope::seal(&mut rng, &payload, &user, &provider.public);
        let opened = env.open(&provider, &user.public).unwrap();
        assert_eq!(opened, payload);
    }

    #[test]
    fn tampered_body_rejected() {
        let (user, provider, mut rng) = keys();
        let payload = b"authentic request".to_vec();
        let mut env = SignedEnvelope::seal(&mut rng, &payload, &user, &provider.public);
        // Flip a bit in the encrypted body: signature check must fail.
        let last = env.body.len() - 1;
        env.body[last] ^= 1;
        assert!(env.open(&provider, &user.public).is_none());
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let (user, provider, mut rng) = keys();
        let eavesdropper = RsaKeypair::generate(&mut rng, 512);
        let env = SignedEnvelope::seal(&mut rng, b"secret", &user, &provider.public);
        assert!(env.open(&eavesdropper, &user.public).is_none());
    }

    #[test]
    fn wrong_sender_fails_verification() {
        let (user, provider, mut rng) = keys();
        let impostor = RsaKeypair::generate(&mut rng, 512);
        let env = SignedEnvelope::seal(&mut rng, b"request", &impostor, &provider.public);
        // Recipient expects the envelope to be signed by `user`.
        assert!(env.open(&provider, &user.public).is_none());
    }

    #[test]
    fn verification_is_total_on_a_peer_supplied_modulus() {
        let (user, _, _) = keys();
        let sig = user.sign(b"m");
        for n in [0u64, 1, 2, 1 << 40] {
            let forged = RsaPublic::new(BigUint::from_u64(n), user.public.e.clone());
            assert!(!forged.verify(b"m", &sig));
            assert!(!forged.verify(b"m", &[1]));
        }
    }

    #[test]
    fn peer_supplied_parts_are_validated_where_they_enter() {
        let (user, provider, mut rng) = keys();
        let RsaPublic { n, e, .. } = user.public.clone();
        let back = RsaPublic::from_parts(n.clone(), e.clone()).expect("a generated key is sound");
        assert_eq!(back, user.public);
        // The narrowest modulus that still wraps a session key seals.
        let mut narrow = vec![0xFF; SESSION_KEY_LEN + PAD_OVERHEAD];
        let ok = RsaPublic::from_parts(BigUint::from_bytes_be(&narrow), e.clone())
            .expect("27 bytes suffice");
        SignedEnvelope::seal(&mut rng, b"q", &provider, &ok);
        // One byte narrower — and the 8-byte modulus a hostile HelloAck
        // would carry — used to reach the assert in `encrypt_block`.
        narrow.pop();
        assert!(RsaPublic::from_parts(BigUint::from_bytes_be(&narrow), e.clone()).is_none());
        assert!(RsaPublic::from_parts(BigUint::from_bytes_be(&[0xFF; 8]), e.clone()).is_none());
        assert!(RsaPublic::from_parts(n.sub(&BigUint::one()), e).is_none());
        for bad_e in [0u64, 1, 65_536] {
            assert!(RsaPublic::from_parts(n.clone(), BigUint::from_u64(bad_e)).is_none());
        }
        // A modulus or exponent as wide as a frame allows, one bit past
        // the cap, and an exponent ≥ n. Each used to decode, and a key
        // that decodes is used — `open` verifies under it — so each is
        // timed through one `verify`, as a server's serve loop would run it.
        let e = &user.public.e;
        let widest = BigUint::one().shl(MAX_MODULUS_BITS).sub(&BigUint::one());
        assert!(RsaPublic::from_parts(widest.clone(), e.clone()).is_some());
        let huge = BigUint::from_bytes_be(&[0xFF; 64 << 10]);
        for (n, e) in [
            (huge.clone(), e.clone()),
            (n.clone(), huge),
            (widest.shl(1).add(&BigUint::one()), e.clone()),
            (n.clone(), n.add(&BigUint::from_u64(2))),
        ] {
            let start = std::time::Instant::now();
            let key = RsaPublic::from_parts(n, e);
            if let Some(key) = &key {
                key.verify(b"q", &[1]);
            }
            assert!(start.elapsed() < std::time::Duration::from_millis(10));
            assert!(key.is_none());
        }
    }

    #[test]
    fn debug_prints_the_public_half_only() {
        let (user, _, _) = keys();
        let dbg = format!("{user:?}");
        assert!(dbg.contains(&format!("{:?}", user.public.n)));
        let p = user.mont_p.modulus();
        for secret in [&p, &user.q, &user.d_p, &user.d_q, &user.q_inv] {
            assert!(!dbg.contains(&format!("{secret:?}")));
        }
    }

    /// Signatures and opened session keys, pinned bit for bit: 256
    /// messages under three seeded 512-bit keys and one 384-bit key,
    /// each signed, sealed to its own key and opened again. The digest
    /// was recorded on the `block^d mod n` private operation the CRT
    /// one replaced; a faster private operation may not move one byte.
    #[test]
    fn rsa_signatures_are_pinned() {
        let digests: Vec<String> = [(512usize, 1u64), (512, 2), (512, 3), (384, 4)]
            .iter()
            .map(|&(bits, seed)| {
                let key = RsaKeypair::generate(&mut StdRng::seed_from_u64(seed), bits);
                let mut bytes = Vec::new();
                for i in 0..256u64 {
                    let msg = (i * 0x9E37_79B9).to_be_bytes().repeat(1 + i as usize % 5);
                    let signature = key.sign(&msg);
                    let mut rng = StdRng::seed_from_u64(i);
                    let env = SignedEnvelope::seal(&mut rng, &msg, &key, &key.public);
                    assert_eq!(env.open(&key, &key.public), Some(msg));
                    let wrapped = BigUint::from_bytes_be(&env.wrapped_key);
                    let session_key = unpad(&key.private_op(&wrapped).to_bytes_be()).unwrap();
                    for part in [signature, session_key] {
                        bytes.extend_from_slice(&(part.len() as u16).to_be_bytes());
                        bytes.extend_from_slice(&part);
                    }
                }
                crate::sha256::sha256_hex(&bytes)
            })
            .collect();
        assert_eq!(
            digests,
            [
                "ea9893379e9be63b7b4896575b5780bc461a3a4b22b803f2b71e2fc2b977921e",
                "4c60f9c841a21687f45c78929fea442cfd00d120aeadeb672baf03f4e3236f40",
                "a43bbb0f111a32704aa4e9ab587d4579b2e541c330d5c7c66e3583854cf56cf0",
                "9759b5bd5626868c81d9080480f407a9b024726c9acfb7076916bb8ea665c47c",
            ]
        );
    }

    /// The private operation on the blocks with no unit structure to
    /// lean on — 0, 1, `n − 1`, multiples of either factor — and on
    /// random ones is `block^d mod n`, with `d = e⁻¹ mod φ(n)`.
    #[test]
    fn private_op_is_the_textbook_power() {
        let mut rng = StdRng::seed_from_u64(77);
        for bits in [384, 512, 640] {
            let key = RsaKeypair::generate(&mut rng, bits);
            let (n, one) = (&key.public.n, BigUint::one());
            let p = key.mont_p.modulus();
            let phi = p.sub(&one).mul(&key.q.sub(&one));
            let d = key.public.e.modinv(&phi).expect("e is a unit mod φ");
            let mut blocks = vec![
                BigUint::zero(),
                one.clone(),
                n.sub(&one),
                p.clone(),
                key.q.clone(),
            ];
            blocks.push(p.mul(&BigUint::from_u64(3)));
            blocks.extend((0..50).map(|_| BigUint::random_below(&mut rng, n)));
            for block in &blocks {
                assert_eq!(key.private_op(block), block.modpow(&d, n), "{bits} bits");
            }
        }
    }

    #[test]
    fn signature_is_deterministic_per_message() {
        let (user, _, _) = keys();
        assert_eq!(user.sign(b"m"), user.sign(b"m"));
        assert_ne!(user.sign(b"m"), user.sign(b"n"));
    }
}
