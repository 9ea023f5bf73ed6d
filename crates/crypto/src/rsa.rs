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

use crate::bignum::{BigUint, Montgomery};
use crate::sha256::sha256;
use crate::xtea;
use rand::Rng;
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

/// RSA keypair.
#[derive(Clone)]
pub struct RsaKeypair {
    /// Public half.
    pub public: RsaPublic,
    d: BigUint,
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
        loop {
            let p = BigUint::gen_prime(rng, bits / 2);
            let q = BigUint::gen_prime(rng, bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let one = BigUint::one();
            let phi = p.sub(&one).mul(&q.sub(&one));
            if let Some(d) = e.modinv(&phi) {
                return RsaKeypair {
                    public: RsaPublic::new(n, e),
                    d,
                };
            }
        }
    }

    /// Sign `message`: RSA private operation over its SHA-256 digest.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        self.private_op(&BigUint::from_bytes_be(&sha256(message)))
            .to_bytes_be()
    }

    /// RSA private operation on a raw integer block.
    fn private_op(&self, block: &BigUint) -> BigUint {
        self.public.pow(block, &self.d)
    }
}

/// Bytes [`SignedEnvelope::seal`] wraps under the recipient's key: the
/// XTEA session key.
const SESSION_KEY_LEN: usize = 16;

/// Bytes `encrypt_block` adds around a block: the `0x02` marker, at
/// least eight random bytes, the `0x00` separator, and one byte of
/// headroom so the padded block stays below the modulus.
const PAD_OVERHEAD: usize = 11;

impl RsaPublic {
    /// Public key from parts that arrived from a peer. `None` for
    /// parts no usable key has — an even modulus, one too narrow to
    /// wrap a session key, an even or trivial exponent — so sealing an
    /// envelope to a key that decoded cannot panic.
    pub fn from_parts(n: BigUint, e: BigUint) -> Option<RsaPublic> {
        let wide_enough = n.to_bytes_be().len() >= SESSION_KEY_LEN + PAD_OVERHEAD;
        (wide_enough && !n.is_even() && !e.is_even() && !e.is_one()).then(|| RsaPublic::new(n, e))
    }

    /// Public key from parts known to be sound (generated here).
    fn new(n: BigUint, e: BigUint) -> RsaPublic {
        RsaPublic {
            n,
            e,
            mont: OnceLock::new(),
        }
    }

    /// `block^exp mod n` on the cached context.
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
    }

    #[test]
    fn debug_prints_the_public_half_only() {
        let (user, _, _) = keys();
        let dbg = format!("{user:?}");
        assert!(dbg.contains(&format!("{:?}", user.public.n)));
        assert!(!dbg.contains(&format!("{:?}", user.d)));
    }

    #[test]
    fn signature_is_deterministic_per_message() {
        let (user, _, _) = keys();
        assert_eq!(user.sign(b"m"), user.sign(b"m"));
        assert_ne!(user.sign(b"m"), user.sign(b"n"));
    }
}
