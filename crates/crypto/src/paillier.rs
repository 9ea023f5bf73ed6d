//! The Paillier cryptosystem: additively homomorphic encryption.
//!
//! Enables SUM/AVG over encrypted values (§7 lists Paillier among the
//! four schemes the tool models). With `g = n + 1`, encryption is
//! `c = (1 + m·n) · rⁿ mod n²` and decryption
//! `m = L(c^λ mod n²) · µ mod n` with `L(x) = (x-1)/n`.
//!
//! Two subjects encrypt (Def. 6.1): whoever holds only the public half
//! runs the textbook routine, [`PaillierPublic::encrypt`] — one
//! `|n|`-bit exponentiation over `n²`. Whoever holds the cluster key
//! knows `p` and `q` and runs [`PaillierKeypair::encrypt`]: two
//! half-length exponentiations over the half-width moduli `p²` and
//! `q²` on the fixed-width engine (`Montgomery::pow_each`),
//! recombined by CRT, drawing the randomiser from exactly the same
//! distribution (the argument is on that method). Decryption runs on
//! the factors too ([`PaillierKeypair::decrypt`]): `c^(p−1)` over `p²`
//! and `c^(q−1)` over `q²`, `L` per factor, then
//! Garner — the textbook plaintext for every ciphertext that is a unit
//! mod `n²`, and a refusal for the non-units only a forger sends.
//! A public modulus that arrives from a peer is bounded where it
//! enters ([`PaillierPublic::from_modulus`]).
//!
//! Signed 64-bit integers are encoded with a `2^63` offset; the
//! aggregation layer tracks how many ciphertexts were added so the
//! offsets can be removed after decryption (see
//! `PaillierKeypair::decode_sum`).

use crate::bignum::{BigUint, Montgomery};
use rand::Rng;
use std::sync::OnceLock;

/// Offset added to signed values so they embed into the non-negative
/// plaintext space.
const ENCODE_OFFSET: i128 = 1 << 63;

/// Public half of a Paillier keypair: enough to encrypt and to add
/// ciphertexts.
///
/// Carries a lazily built, shared [`Montgomery`] context for `n²` so
/// repeated encryptions/additions under one key pay the reduction
/// setup once — the context rides along in the `Arc`'d keypair that
/// [`crate::keyring::ClusterKey`] clones share.
#[derive(Debug)]
pub struct PaillierPublic {
    /// Modulus `n = p·q`.
    pub n: BigUint,
    /// `n²` (cached).
    pub n2: BigUint,
    /// Montgomery context for `n²`, built on first use.
    mont2: OnceLock<Montgomery>,
}

impl Clone for PaillierPublic {
    fn clone(&self) -> Self {
        let mont2 = OnceLock::new();
        if let Some(ctx) = self.mont2.get() {
            let _ = mont2.set(ctx.clone());
        }
        PaillierPublic {
            n: self.n.clone(),
            n2: self.n2.clone(),
            mont2,
        }
    }
}

impl PartialEq for PaillierPublic {
    fn eq(&self, other: &Self) -> bool {
        // The Montgomery cache is derived state, not identity.
        self.n == other.n
    }
}

impl Eq for PaillierPublic {}

/// A Paillier ciphertext (value in `[0, n²)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaillierCiphertext(pub BigUint);

/// Full keypair.
#[derive(Clone)]
pub struct PaillierKeypair {
    /// Public part.
    pub public: PaillierPublic,
    /// The smaller prime factor of `n`.
    p: BigUint,
    /// The larger prime factor of `n`.
    q: BigUint,
    /// Per-factor state, built on first use: keys that never encrypt or
    /// decrypt a Paillier cell never pay for it.
    crt: OnceLock<HolderCrt>,
}

/// What [`PaillierKeypair::encrypt`] and [`PaillierKeypair::decrypt`]
/// precompute per key.
#[derive(Clone)]
struct HolderCrt {
    /// Montgomery contexts for `q` (Garner over the factors), `p²` and
    /// `q²`.
    mont_q: Montgomery,
    mont_p2: Montgomery,
    mont_q2: Montgomery,
    /// `p²`.
    p2: BigUint,
    /// `p⁻² mod q²` (Garner's coefficient over the squares).
    p2_inv: BigUint,
    /// `p⁻¹ mod q` (Garner's coefficient over the factors).
    p_inv: BigUint,
    /// `h_p = L_p((1+n)^(p−1) mod p²)⁻¹ mod p`, and `h_q` likewise.
    h_p: BigUint,
    h_q: BigUint,
}

impl std::fmt::Debug for PaillierKeypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material: the public half only.
        f.debug_struct("PaillierKeypair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// Smallest prime factor a keypair may have, in bits:
/// [`PaillierPublic::encode_signed`] plaintexts are 64 bits wide and
/// sums of them must stay below `n`.
const MIN_FACTOR_BITS: usize = 64;

/// Widest modulus [`PaillierPublic::from_modulus`] accepts. Sessions use
/// 256 bits; an addition costs time quadratic in the modulus, so an
/// unbounded one lets a peer hold a server's serve loop, or a session's
/// walk on its caller's thread, for as long as it likes (one `add`
/// under a 64 KiB modulus: 3.6 s).
const MAX_MODULUS_BITS: usize = 4096;

/// `true` for a modulus size [`PaillierKeypair::generate`] can make and
/// [`PaillierPublic::from_modulus`] accepts.
pub(crate) fn modulus_bits_ok(bits: usize) -> bool {
    (2 * MIN_FACTOR_BITS..=MAX_MODULUS_BITS).contains(&bits)
}

impl PaillierPublic {
    /// Build a public key from `n` (computes and caches `n²`). `None`
    /// for an `n` no Paillier key can have — even, zero or one — or
    /// one wider than 4,096 bits, which is what keeps
    /// [`PaillierPublic::add`] total and bounded on a modulus that
    /// arrived from a peer.
    pub fn from_modulus(n: BigUint) -> Option<PaillierPublic> {
        if n.is_even() || n.is_one() || n.bits() > MAX_MODULUS_BITS {
            return None;
        }
        let n2 = n.mul(&n);
        Some(PaillierPublic {
            n,
            n2,
            mont2: OnceLock::new(),
        })
    }

    /// The shared Montgomery context for `n²` (built on first use).
    pub(crate) fn mont2(&self) -> &Montgomery {
        self.mont2
            .get_or_init(|| Montgomery::new(&self.n2).expect("n² is odd and > 1"))
    }

    /// Encrypt a non-negative plaintext `m < n` knowing only `n` — the
    /// textbook definition, and the oracle the holder's
    /// [`PaillierKeypair::encrypt`] is tested against.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, m: &BigUint) -> PaillierCiphertext {
        assert!(m < &self.n, "plaintext out of range");
        // r coprime with n (overwhelmingly likely; retry otherwise).
        let r = loop {
            let r = BigUint::random_below(rng, &self.n);
            if !r.is_zero() && r.gcd(&self.n).is_one() {
                break r;
            }
        };
        self.blind(m, &self.mont2().pow(&r, &self.n))
    }

    /// `c = (1 + m·n) · x mod n²` for a randomiser `x = rⁿ`; `m < n`
    /// makes `1 + m·n < n²` already.
    fn blind(&self, m: &BigUint, x: &BigUint) -> PaillierCiphertext {
        let gm = BigUint::one().add(&m.mul(&self.n));
        PaillierCiphertext(self.mont2().mulmod(&gm, x))
    }

    /// A ciphertext from the big-endian bytes a peer sent: `None`
    /// unless it is below `n²`, as every encryption and sum is. The
    /// length decides first, so a forged body of any size costs no more
    /// to refuse than one as wide as `n²` — reducing it would cost
    /// time quadratic in its length.
    pub(crate) fn ciphertext(&self, bytes: &[u8]) -> Option<PaillierCiphertext> {
        let bytes = &bytes[bytes.iter().take_while(|&&b| b == 0).count()..];
        if bytes.len() > self.n2.bits().div_ceil(8) {
            return None;
        }
        let c = BigUint::from_bytes_be(bytes);
        (c < self.n2).then_some(PaillierCiphertext(c))
    }

    /// Homomorphic addition: `Dec(add(c1,c2)) = m1 + m2 (mod n)`.
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(self.mont2().mulmod(&a.0, &b.0))
    }

    /// Encode a signed value for encryption.
    pub fn encode_signed(&self, v: i64) -> BigUint {
        let shifted = (v as i128) + ENCODE_OFFSET;
        BigUint::from_u128(shifted as u128)
    }
}

impl PaillierKeypair {
    /// Generate a keypair with an `bits`-bit modulus.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> PaillierKeypair {
        assert!(modulus_bits_ok(bits), "no Paillier modulus of {bits} bits");
        let (p, q) = loop {
            let p = BigUint::gen_prime(rng, bits / 2);
            let q = BigUint::gen_prime(rng, bits / 2);
            if p != q {
                break (p, q);
            }
        };
        Self::from_factors(p, q).expect("distinct equal-length primes make a key")
    }

    /// Derive the keypair from its factors. `None` unless both are odd,
    /// distinct, at least [`MIN_FACTOR_BITS`] bits long and
    /// `gcd(pq, (p-1)(q-1)) = 1` — the condition Paillier's scheme
    /// assumes, under which [`PaillierKeypair::encrypt`] is exact.
    fn from_factors(p: BigUint, q: BigUint) -> Option<PaillierKeypair> {
        let (p, q) = if p < q { (p, q) } else { (q, p) };
        if p.is_even() || q.is_even() || p == q || p.bits() < MIN_FACTOR_BITS {
            return None;
        }
        let n = p.mul(&q);
        let one = BigUint::one();
        if !n.gcd(&p.sub(&one).mul(&q.sub(&one))).is_one() {
            return None;
        }
        Some(PaillierKeypair {
            public: PaillierPublic::from_modulus(n)?,
            p,
            q,
            crt: OnceLock::new(),
        })
    }

    fn crt(&self) -> &HolderCrt {
        self.crt.get_or_init(|| {
            let (p, q) = (&self.p, &self.q);
            let (p2, q2) = (p.mul(p), q.mul(q));
            let p_inv = p.modinv(q).expect("p ≠ q are coprime");
            let q_inv = q.modinv(p).expect("p ≠ q are coprime");
            HolderCrt {
                mont_q: Montgomery::new(q).expect("q is odd and > 1"),
                mont_p2: Montgomery::new(&p2).expect("p² is odd and > 1"),
                mont_q2: Montgomery::new(&q2).expect("q² is odd and > 1"),
                p2_inv: p2.modinv(&q2).expect("p ≠ q are coprime"),
                // (1+n)^(p−1) ≡ 1 + (p−1)·n (mod p²), whose L_p is
                // (p−1)·q ≡ −q (mod p): h_p = −q⁻¹ mod p, h_q = −p⁻¹ mod q.
                h_p: p.sub(&q_inv),
                h_q: q.sub(&p_inv),
                p_inv,
                p2,
            }
        })
    }

    /// Encrypt a non-negative plaintext `m < n` as a key holder: the
    /// same ciphertext distribution as [`PaillierPublic::encrypt`] from
    /// two half-length exponentiations over half-width moduli.
    ///
    /// The textbook randomiser is `rⁿ mod n²` for `r` uniform in `Z_n*`.
    /// By CRT `r mod p` and `r mod q` are independent and uniform in
    /// `[1,p)` and `[1,q)`, and `rⁿ mod p²` depends only on `r mod p`:
    /// `rⁿ = (r^p)^q` and `ω(s) = s^p mod p²` is the Teichmüller lift of
    /// `s = r mod p`, a bijection from `[1,p)` onto the subgroup of
    /// order `p-1` in `(Z/p²)*`. `gcd(q, p-1) = 1` (checked at
    /// construction) makes `x ↦ x^q` a permutation of that subgroup, so
    /// `ω(s)^q` for uniform `s` is distributed exactly as `ω(s)` itself.
    /// Hence: draw `s_p ∈ [1,p)` and `s_q ∈ [1,q)`, compute `s_p^p mod
    /// p²` and `s_q^q mod q²`, and Garner-combine them into the
    /// randomiser mod `n²` — no subgroup or short-exponent assumption,
    /// no table, no `gcd`. Each half runs under its own context, on the
    /// 4-limb engine at the 256-bit modulus sessions use; the blind
    /// `(1 + m·n)·x mod n²` is one `mulmod` on the 8-limb one.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, m: &BigUint) -> PaillierCiphertext {
        let pk = &self.public;
        assert!(m < &pk.n, "plaintext out of range");
        let crt = self.crt();
        let [a, b] = Montgomery::pow_each([
            (&crt.mont_p2, &random_unit(rng, &self.p), &self.p),
            (&crt.mont_q2, &random_unit(rng, &self.q), &self.q),
        ]);
        // x ≡ a (mod p²), x ≡ b (mod q²), where p < q keeps a < q².
        let x = crt.mont_q2.garner(&a, &crt.p2, &b, &crt.p2_inv);
        pk.blind(m, &x)
    }

    /// Decrypt to the non-negative plaintext.
    ///
    /// # Panics
    /// When `c` is no unit mod `n²` — a multiple of `p` or `q`, `0`
    /// included — which no encryption or sum of them is;
    /// `PaillierKeypair::decode_sum` is the total entry for
    /// ciphertexts a peer supplied.
    pub fn decrypt(&self, c: &PaillierCiphertext) -> BigUint {
        self.try_decrypt(c).expect("a ciphertext is a unit mod n²")
    }

    /// The textbook `L(c^λ mod n²)·µ mod n`, computed on the factors:
    /// `x_p = c^(p−1) mod p²` and `x_q` over `q²`,
    /// `m_p = L_p(x_p)·h_p mod p` and `m_q` likewise, then Garner. Both
    /// give the same plaintext for every unit `c`; `None` for any other
    /// `c`, which is where `x_p ≢ 1 (mod p)` or `x_q ≢ 1 (mod q)`.
    fn try_decrypt(&self, c: &PaillierCiphertext) -> Option<BigUint> {
        let (crt, one) = (self.crt(), BigUint::one());
        let [x_p, x_q] = Montgomery::pow_each([
            (&crt.mont_p2, &c.0, &self.p.sub(&one)),
            (&crt.mont_q2, &c.0, &self.q.sub(&one)),
        ]);
        let m_p = l_over(&x_p, &self.p)?.mulmod(&crt.h_p, &self.p);
        let m_q = l_over(&x_q, &self.q)?.mulmod(&crt.h_q, &self.q);
        Some(crt.mont_q.garner(&m_p, &self.p, &m_q, &crt.p_inv))
    }

    /// Decrypt a sum of `count` encoded signed values, removing the
    /// per-term offsets. `None` when the plaintext cannot be such a
    /// sum: arbitrary bytes in place of a ciphertext decrypt to
    /// something as wide as the modulus.
    pub(crate) fn decode_sum(&self, c: &PaillierCiphertext, count: u64) -> Option<i128> {
        let total = i128::try_from(self.try_decrypt(c)?.try_to_u128()?).ok()?;
        // Any `u64` count of 2⁶³ offsets stays below 2¹²⁷.
        Some(total - i128::from(count) * ENCODE_OFFSET)
    }

    /// Serialize the keypair (its factors `p`, `q`) for Def. 6.1 key
    /// provisioning over a wire. The bytes are secret material — they
    /// must only ever travel inside a sealed
    /// [`SignedEnvelope`](crate::rsa::SignedEnvelope).
    pub fn to_bytes(&self) -> Vec<u8> {
        frame_factors(&self.p, &self.q)
    }

    /// Reconstruct a keypair from [`PaillierKeypair::to_bytes`] output:
    /// `None` on malformed input and on factors that are even, equal,
    /// too small or not coprime to `(p-1)(q-1)`. Everything but the
    /// factors is re-derived locally.
    pub fn from_bytes(bytes: &[u8]) -> Option<PaillierKeypair> {
        let mut at = 0usize;
        let mut next = || -> Option<BigUint> {
            let len = u32::from_be_bytes(bytes.get(at..at + 4)?.try_into().ok()?) as usize;
            at += 4;
            let b = bytes.get(at..at.checked_add(len)?)?;
            at += len;
            Some(BigUint::from_bytes_be(b))
        };
        let p = next()?;
        let q = next()?;
        if at != bytes.len() {
            return None;
        }
        Self::from_factors(p, q)
    }
}

/// `len(p) ‖ p ‖ len(q) ‖ q`, lengths as big-endian `u32`.
fn frame_factors(p: &BigUint, q: &BigUint) -> Vec<u8> {
    let mut out = Vec::new();
    for part in [p, q] {
        let b = part.to_bytes_be();
        out.extend_from_slice(&(b.len() as u32).to_be_bytes());
        out.extend_from_slice(&b);
    }
    out
}

/// Paillier's `L` over one factor: `(x − 1)/p` for `x ≡ 1 (mod p)`,
/// `None` for any other `x`.
fn l_over(x: &BigUint, p: &BigUint) -> Option<BigUint> {
    if x.is_zero() {
        return None;
    }
    let (l, r) = x.sub(&BigUint::one()).divmod(p);
    r.is_zero().then_some(l)
}

/// Uniform in `[1, bound)`.
fn random_unit<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
    loop {
        let s = BigUint::random_below(rng, bound);
        if !s.is_zero() {
            return s;
        }
    }
}

#[cfg(test)]
impl PaillierPublic {
    /// Neutral element (encryption of 0 with r = 1; fine for use as an
    /// accumulator seed, not as a fresh ciphertext).
    fn neutral(&self) -> PaillierCiphertext {
        PaillierCiphertext(BigUint::one())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> (PaillierKeypair, StdRng) {
        let mut rng = StdRng::seed_from_u64(99);
        let kp = PaillierKeypair::generate(&mut rng, 256);
        (kp, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (kp, mut rng) = keypair();
        for m in [0u64, 1, 42, 1_000_000, u64::MAX] {
            let mb = BigUint::from_u64(m);
            let c = kp.public.encrypt(&mut rng, &mb);
            assert_eq!(kp.decrypt(&c), mb, "m = {m}");
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let (kp, mut rng) = keypair();
        let m = BigUint::from_u64(7);
        let c1 = kp.public.encrypt(&mut rng, &m);
        let c2 = kp.public.encrypt(&mut rng, &m);
        assert_ne!(c1, c2, "same plaintext, fresh randomness");
        assert_eq!(kp.decrypt(&c1), kp.decrypt(&c2));
    }

    #[test]
    fn additive_homomorphism() {
        let (kp, mut rng) = keypair();
        let a = kp.public.encrypt(&mut rng, &BigUint::from_u64(1234));
        let b = kp.public.encrypt(&mut rng, &BigUint::from_u64(8766));
        let sum = kp.public.add(&a, &b);
        assert_eq!(kp.decrypt(&sum).to_u128(), 10_000);
    }

    #[test]
    fn signed_sum_with_offsets() {
        let (kp, mut rng) = keypair();
        let values: [i64; 4] = [100, -250, 75, -10];
        let mut acc = kp.public.neutral();
        for v in values {
            let enc = kp.public.encrypt(&mut rng, &kp.public.encode_signed(v));
            acc = kp.public.add(&acc, &enc);
        }
        let sum = kp.decode_sum(&acc, values.len() as u64);
        assert_eq!(sum, Some(-85));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The holder's ciphertexts are Paillier ciphertexts of `m`
        /// with an n-th-residue randomiser, interchangeable with the
        /// public routine's — at key sizes whose CRT moduli fill their
        /// engine's width (2, 4 limbs) and whose moduli the engine
        /// zero-extends (3 limbs to 4, 5 to 8).
        #[test]
        fn holder_encrypt_is_textbook_paillier(
            seed in proptest::prelude::any::<u64>(),
            v in proptest::prelude::any::<i64>(),
            size in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let kp = PaillierKeypair::generate(&mut rng, [128, 192, 256, 320][size]);
            let pk = &kp.public;
            let n_minus_1 = pk.n.sub(&BigUint::one());
            let mut other = pk.neutral();
            let mut other_sum = BigUint::zero();
            for m in [
                BigUint::zero(),
                n_minus_1,
                pk.encode_signed(i64::MIN),
                pk.encode_signed(i64::MAX),
                pk.encode_signed(v),
            ] {
                let c = kp.encrypt(&mut rng, &m);
                proptest::prop_assert!(c.0 < pk.n2);
                proptest::prop_assert_eq!(kp.decrypt(&c), m.clone());
                // c·(1+mn)⁻¹ is the randomiser: an n-th residue.
                let gm = BigUint::one().add(&m.mul(&pk.n));
                let x = c.0.mulmod(&gm.modinv(&pk.n2).expect("1+mn is a unit"), &pk.n2);
                proptest::prop_assert!(x.modpow(&textbook_key(&kp).0, &pk.n2).is_one());
                // Holder and public ciphertexts add to the right sum.
                let sum = pk.add(&c, &other);
                proptest::prop_assert_eq!(kp.decrypt(&sum), m.add(&other_sum).rem(&pk.n));
                other_sum = BigUint::from_u64(rng.gen());
                other = pk.encrypt(&mut rng, &other_sum);
            }
        }
    }

    /// The holder's ciphertexts, pinned bit for bit: 256 cells per key,
    /// each drawn from a `StdRng::seed_from_u64(row)` row as the engine
    /// seeds them, at 2-, 4- and 5-limb `p²`/`q²` and with unequal
    /// factors (64-bit `p`, 192-bit `q`). A faster kernel may not move
    /// one byte; re-pin only for a change meant to move ciphertexts.
    #[test]
    fn holder_ciphertexts_are_pinned() {
        let mut keys: Vec<PaillierKeypair> = [128usize, 256, 320]
            .iter()
            .map(|&bits| PaillierKeypair::generate(&mut StdRng::seed_from_u64(bits as u64), bits))
            .collect();
        let mut rng = StdRng::seed_from_u64(64_192);
        keys.push(loop {
            let (p, q) = (
                BigUint::gen_prime(&mut rng, 64),
                BigUint::gen_prime(&mut rng, 192),
            );
            if let Some(kp) = PaillierKeypair::from_bytes(&frame_factors(&p, &q)) {
                break kp;
            }
        });
        let digests: Vec<String> = keys
            .iter()
            .map(|kp| {
                let mut bytes = Vec::new();
                for row in 0..256u64 {
                    let m = kp.public.encode_signed((row as i64 - 128) * 1_000_003);
                    let c = kp
                        .encrypt(&mut StdRng::seed_from_u64(row), &m)
                        .0
                        .to_bytes_be();
                    bytes.extend_from_slice(&(c.len() as u16).to_be_bytes());
                    bytes.extend_from_slice(&c);
                }
                crate::sha256::sha256_hex(&bytes)
            })
            .collect();
        assert_eq!(
            digests,
            [
                "868a38fc293a57a1ae987dffcb2563a1c8cd03ac387ca1cc7c3c364b3a872980",
                "c504e1ab11768622ecf9a2fbe99246bf9abfc428959025d94cf5eebf1a44ed45",
                "e3b25b2c455f60360fedd3819bff1de4e6192da2720c46ed7fc336498ecb2ee1",
                "00fd0afce5462ecb7546ea72a36020837e6bcdd006b873a9d07a6628cfc36d5c",
            ]
        );
    }

    #[test]
    fn from_bytes_roundtrips_and_rejects_factors_no_key_has() {
        let (kp, mut rng) = keypair();
        let back = PaillierKeypair::from_bytes(&kp.to_bytes()).expect("own bytes decode");
        assert_eq!(back.public, kp.public);
        let m = BigUint::from_u64(31_337);
        assert_eq!(back.decrypt(&kp.encrypt(&mut rng, &m)), m);
        assert_eq!(kp.decrypt(&back.encrypt(&mut rng, &m)), m);

        let (p, q) = (&kp.p, &kp.q);
        let one = BigUint::one();
        // 2q+1 need not be prime: gcd(q·(2q+1), (q−1)·2q) = q is the point.
        let q_divides_p_minus_1 = q.shl(1).add(&one);
        for (bad, why) in [
            (frame_factors(&p.add(&one), q), "even factor"),
            (frame_factors(p, &BigUint::zero()), "zero factor"),
            (frame_factors(p, &one), "unit factor"),
            (frame_factors(p, p), "equal factors"),
            (
                frame_factors(&BigUint::from_u64(7), &BigUint::from_u64(11)),
                "tiny factors",
            ),
            (
                frame_factors(&q_divides_p_minus_1, q),
                "gcd(pq, (p-1)(q-1)) ≠ 1",
            ),
        ] {
            assert!(PaillierKeypair::from_bytes(&bad).is_none(), "{why}");
        }
        let good = kp.to_bytes();
        assert!(PaillierKeypair::from_bytes(&good[..good.len() - 1]).is_none());
        assert!(PaillierKeypair::from_bytes(&[good.clone(), vec![0]].concat()).is_none());
        assert!(PaillierKeypair::from_bytes(&[0xff, 0xff, 0xff, 0xff, 1]).is_none());
    }

    #[test]
    fn public_key_from_a_peer_modulus_is_total() {
        for bad in [0u64, 1, 2, 1 << 40] {
            assert!(PaillierPublic::from_modulus(BigUint::from_u64(bad)).is_none());
        }
        // Any odd n > 1 aggregates without panicking, key or not.
        let pk = PaillierPublic::from_modulus(BigUint::from_u64(9)).expect("odd");
        let c = PaillierCiphertext(BigUint::from_u64(1 << 50));
        assert!(pk.add(&c, &c).0 < pk.n2);
        // Up to the cap. A modulus as wide as a frame allows, or one bit
        // past the cap, used to be granted, and a granted key is used:
        // each is timed through one `add`, as a server's serve loop would
        // run it.
        let widest = BigUint::one().shl(MAX_MODULUS_BITS).sub(&BigUint::one());
        assert!(PaillierPublic::from_modulus(widest.clone()).is_some());
        let huge = BigUint::from_bytes_be(&[0xFF; 64 << 10]);
        for n in [huge, widest.shl(1).add(&BigUint::one())] {
            let start = std::time::Instant::now();
            let pk = PaillierPublic::from_modulus(n);
            if let Some(pk) = &pk {
                pk.add(&c, &c);
            }
            assert!(start.elapsed() < std::time::Duration::from_millis(10));
            assert!(pk.is_none());
        }
    }

    /// `(λ, µ)` of the textbook routine: `λ = lcm(p−1, q−1)` and, with
    /// `g = n + 1`, `µ = λ⁻¹ mod n`.
    fn textbook_key(kp: &PaillierKeypair) -> (BigUint, BigUint) {
        let one = BigUint::one();
        let (p1, q1) = (kp.p.sub(&one), kp.q.sub(&one));
        let lambda = p1.mul(&q1).divmod(&p1.gcd(&q1)).0;
        let mu = lambda.modinv(&kp.public.n).expect("gcd(n, φ) = 1");
        (lambda, mu)
    }

    /// The textbook decryption `L(c^λ mod n²)·µ mod n`, `L(x) = (x−1)/n`,
    /// for a unit `c`: the oracle the CRT decryption is held to.
    fn textbook_decrypt(
        kp: &PaillierKeypair,
        (lambda, mu): &(BigUint, BigUint),
        c: &BigUint,
    ) -> BigUint {
        let n = &kp.public.n;
        let x = c.modpow(lambda, &kp.public.n2);
        x.sub(&BigUint::one()).divmod(n).0.mulmod(mu, n)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// The holder's CRT decryption is the textbook one on every
        /// unit — holder and public cells, running sums of up to 64 of
        /// them, `1` and `n² − 1`, random residues — at key sizes of
        /// 128 to 320 bits, whose `n²` the one fixed-width engine runs
        /// at widths of 4, 8 and 16 limbs, and with unequal factors
        /// (64-bit `p`, 192-bit `q`). A non-unit (`0`, `n`, a multiple
        /// of `p` or `q`) is refused: `None` from `try_decrypt`,
        /// `BadCiphertext` from `decrypt_value`, where the textbook
        /// routine decrypted it to an arbitrary number.
        #[test]
        fn holder_decrypt_is_textbook_paillier(
            seed in proptest::prelude::any::<u64>(),
            size in 0usize..5,
            terms in 1usize..=64,
        ) {
            use crate::schemes::{decrypt_value, AggKind, EncryptError};
            use mpq_algebra::value::{EncScheme, EncValue, Value};

            let mut rng = StdRng::seed_from_u64(seed);
            let kp = match size {
                4 => loop {
                    let (p, q) = (BigUint::gen_prime(&mut rng, 64), BigUint::gen_prime(&mut rng, 192));
                    if let Some(kp) = PaillierKeypair::from_bytes(&frame_factors(&p, &q)) {
                        break kp;
                    }
                },
                _ => PaillierKeypair::generate(&mut rng, [128, 192, 256, 320][size]),
            };
            let (pk, textbook, one) = (&kp.public, textbook_key(&kp), BigUint::one());
            let mut units = vec![one.clone(), pk.n2.sub(&one), BigUint::random_below(&mut rng, &pk.n2)];
            let mut sum = pk.neutral();
            for _ in 0..terms {
                let m = pk.encode_signed(rng.gen());
                let c = if rng.gen() { kp.encrypt(&mut rng, &m) } else { pk.encrypt(&mut rng, &m) };
                sum = pk.add(&sum, &c);
                units.extend([c.0, sum.0.clone()]);
            }
            for c in units.iter().filter(|c| c.gcd(&pk.n).is_one()) {
                let want = textbook_decrypt(&kp, &textbook, c);
                proptest::prop_assert_eq!(kp.try_decrypt(&PaillierCiphertext(c.clone())), Some(want));
            }
            let own = PaillierKeypair::from_bytes(&kp.to_bytes()).expect("the key's own bytes");
            let key = crate::keyring::ClusterKey::with_paillier(own);
            let k = BigUint::random_below(&mut rng, &pk.n);
            for c in [BigUint::zero(), pk.n.clone(), kp.p.clone(), kp.p.mul(&k), kp.q.mul(&k)] {
                proptest::prop_assert_eq!(kp.try_decrypt(&PaillierCiphertext(c.clone())), None);
                let mut cell = vec![1, AggKind::Single as u8];
                cell.extend_from_slice(&1u64.to_be_bytes());
                cell.extend_from_slice(&c.to_bytes_be());
                let cell = EncValue { scheme: EncScheme::Paillier, key_id: 0, bytes: cell.into() };
                proptest::prop_assert_eq!(decrypt_value(&Value::Enc(cell), &key), Err(EncryptError::BadCiphertext));
            }
        }
    }

    #[test]
    fn debug_prints_the_public_half_only() {
        let (kp, _) = keypair();
        let dbg = format!("{kp:?}");
        assert!(dbg.contains(&format!("{:?}", kp.public.n)));
        let crt = kp.crt();
        for secret in [&kp.p, &kp.q, &crt.p_inv, &crt.h_p, &crt.h_q, &crt.p2_inv] {
            assert!(!dbg.contains(&format!("{secret:?}")));
        }
    }

    #[test]
    fn neutral_is_additive_identity() {
        let (kp, mut rng) = keypair();
        let c = kp.public.encrypt(&mut rng, &BigUint::from_u64(5));
        let with_neutral = kp.public.add(&c, &kp.public.neutral());
        assert_eq!(kp.decrypt(&with_neutral).to_u128(), 5);
    }
}
