//! Arbitrary-precision unsigned integers.
//!
//! A minimal bignum sufficient for Paillier and RSA: little-endian
//! `u64` limbs, schoolbook multiplication, word-level division (Knuth's
//! Algorithm D: one quotient limb per step, with a single-limb fast
//! path), binary GCD, extended Euclid over that division for modular
//! inverses, Miller–Rabin primality testing, and modular
//! exponentiation. For odd moduli — every RSA/Paillier modulus —
//! [`BigUint::modpow`] runs on a [`Montgomery`] context, which avoids
//! the per-step division that made the original square-and-multiply the
//! single hottest loop in the whole system. Under every context runs one
//! fixed-width engine over `[u64; N]` stack values, `N` fixed per
//! modulus: a CIOS product, an SOS square (each cross product once, then
//! one reduction) and a left-to-right sliding window over odd powers
//! whose width follows the exponent's length. Every private-key
//! operation — RSA signing and opening, Paillier encryption and
//! decryption by the key holder — is two half-width exponentiations on
//! it, one per prime factor, recombined by `Montgomery::garner`, and
//! every Miller–Rabin round of a prime search is one power and its
//! squarings on it. Callers exponentiating repeatedly under one modulus
//! should build the [`Montgomery`] context once and reuse it; the
//! microbenchmarks in `crates/crypto/benches` track the per-operation
//! cost that feeds the §7 economic model.

use rand::Rng;
use std::cmp::Ordering;

/// Little-endian, normalized (no trailing zero limbs) unsigned bignum.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: vec![] }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From a primitive.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// From a u128.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// To u128 (truncating is a bug: panics if the value doesn't fit).
    pub fn to_u128(&self) -> u128 {
        self.try_to_u128().expect("BigUint does not fit in u128")
    }

    /// To u128, when the value fits.
    pub fn try_to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 2 {
            return None;
        }
        let lo = self.limbs.first().copied().unwrap_or(0) as u128;
        let hi = self.limbs.get(1).copied().unwrap_or(0) as u128;
        Some((hi << 64) | lo)
    }

    /// Big-endian bytes (no leading zeros; empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.split_off(first_nonzero)
    }

    /// From big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = [0u8; 8];
            limb[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(limb));
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `true` iff zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// `true` iff even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Bit length (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Test bit `i` (little-endian numbering).
    pub fn bit(&self, i: usize) -> bool {
        self.limbs
            .get(i / 64)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (big, small) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(big.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..big.limbs.len() {
            let a = big.limbs[i];
            let b = small.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`. Panics on underflow (callers compare first).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift left by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Shift right by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            for i in limb_shift..self.limbs.len() {
                let mut l = self.limbs[i] >> bit_shift;
                if i + 1 < self.limbs.len() {
                    l |= self.limbs[i + 1] << (64 - bit_shift);
                }
                out.push(l);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// `(self / other, self % other)`: limb-wise short division for
    /// single-limb divisors (small primes, `u64` moduli), Knuth's
    /// Algorithm D (TAOCP vol. 2, §4.3.1) over `u64` limbs otherwise —
    /// one quotient limb per step, from a two-limb estimate.
    pub fn divmod(&self, other: &BigUint) -> (BigUint, BigUint) {
        assert!(!other.is_zero(), "division by zero");
        if self < other {
            return (BigUint::zero(), self.clone());
        }
        if other.limbs.len() == 1 {
            let d = other.limbs[0] as u128;
            let mut q = vec![0u64; self.limbs.len()];
            let mut r: u128 = 0;
            for i in (0..self.limbs.len()).rev() {
                let cur = (r << 64) | self.limbs[i] as u128;
                q[i] = (cur / d) as u64;
                r = cur % d;
            }
            let mut quotient = BigUint { limbs: q };
            quotient.normalize();
            return (quotient, BigUint::from_u128(r));
        }
        // D1: shift both so the divisor's top bit is set; the dividend
        // gains a limb, so every window below is `n + 1` limbs wide.
        let n = other.limbs.len();
        let shift = other.limbs[n - 1].leading_zeros() as usize;
        let v = other.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0);
        let (v1, v2) = (v[n - 1] as u128, v[n - 2] as u128);
        let mut q = vec![0u64; self.limbs.len() - n + 1];
        for j in (0..q.len()).rev() {
            // D3: estimate from the window's top two limbs; the test on
            // the third makes the estimate exact or one too large.
            let top = (u[j + n] as u128) << 64 | u[j + n - 1] as u128;
            let (mut qhat, mut rhat) = (top / v1, top % v1);
            while qhat >> 64 != 0 || qhat * v2 > (rhat << 64 | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v1;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // D4: u[j..=j+n] -= qhat·v.
            let (mut carry, mut borrow) = (0u128, false);
            for i in 0..=n {
                let p = qhat * *v.get(i).unwrap_or(&0) as u128 + carry;
                carry = p >> 64;
                let (d, b1) = u[j + i].overflowing_sub(p as u64);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                (u[j + i], borrow) = (d, b1 | b2);
            }
            // D6: the estimate was one too large — add v back once.
            if borrow {
                qhat -= 1;
                let mut carry = false;
                for i in 0..n {
                    let (s, c1) = u[j + i].overflowing_add(v[i]);
                    let (s, c2) = s.overflowing_add(carry as u64);
                    (u[j + i], carry) = (s, c1 | c2);
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }
        // D8: the remainder is the low `n` limbs, shifted back.
        (from_limbs(&q), from_limbs(&u[..n]).shr(shift))
    }

    /// `self % m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.divmod(m).1
    }

    /// `(self * other) % m`.
    pub fn mulmod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// `self^exp % m`: Montgomery sliding-window exponentiation for odd
    /// moduli of up to 8,192 bits, square-and-multiply with per-step
    /// division otherwise.
    ///
    /// Callers looping over one modulus should build a [`Montgomery`]
    /// context once and call [`Montgomery::pow`] directly — this entry
    /// point pays the context setup (one division for `R² mod m`) on
    /// every call.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero());
        if m.is_one() {
            return BigUint::zero();
        }
        if let Some(ctx) = Montgomery::new(m) {
            return ctx.pow(self, exp);
        }
        let mut base = self.rem(m);
        let mut result = BigUint::one();
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mulmod(&base, m);
            }
            base = base.mulmod(&base, m);
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                break;
            }
        }
        a.shl(shift)
    }

    /// Modular inverse `self⁻¹ mod m`, if it exists.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        // Extended Euclid over non-negative values, tracking signs.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        // Coefficients of `self` modulo m: (sign, magnitude).
        let mut t0 = (false, BigUint::zero());
        let mut t1 = (false, BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.divmod(&r1);
            // t2 = t0 - q * t1 (signed arithmetic on (sign, mag)).
            let qt1 = q.mul(&t1.1);
            let t2 = signed_sub(t0.clone(), (t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        // Map t0 into [0, m).
        let (neg, mag) = t0;
        let mag = mag.rem(m);
        Some(if neg && !mag.is_zero() {
            m.sub(&mag)
        } else {
            mag
        })
    }

    /// Uniform random value in `[0, bound)`.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero());
        let bits = bound.bits();
        loop {
            let mut limbs = vec![0u64; bits.div_ceil(64)];
            for l in &mut limbs {
                *l = rng.gen();
            }
            // Mask the top limb to the right bit count.
            let extra = limbs.len() * 64 - bits;
            if extra > 0 {
                let last = limbs.len() - 1;
                limbs[last] &= u64::MAX >> extra;
            }
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test (`rounds` witnesses),
    /// after trial division by the primes up to 37: one single-limb
    /// remainder by their product, then one `u64` remainder per prime. A
    /// candidate trial division settles draws no witness.
    ///
    /// # Panics
    /// On a value wider than 8,192 bits, which has no [`Montgomery`]
    /// context.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rng: &mut R, rounds: usize) -> bool {
        const SMALL_PRIMES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        // 37# = 2·3·…·37 < 2⁶³.
        const PRIMORIAL: u128 = 7_420_738_134_810;
        if self.is_zero() || self.is_one() {
            return false;
        }
        if let [v] = self.limbs[..] {
            if SMALL_PRIMES.contains(&v) {
                return true;
            }
        }
        let rem = (self.limbs.iter().rev()).fold(0, |r, &l| (r << 64 | l as u128) % PRIMORIAL);
        if SMALL_PRIMES.iter().any(|&p| rem as u64 % p == 0) {
            return false;
        }
        let ctx = Montgomery::new(self).expect("odd, > 37 and at most 8,192 bits");
        let two = BigUint::from_u64(2);
        (0..rounds).all(|_| {
            let a = loop {
                let a = BigUint::random_below(rng, self);
                if a >= two {
                    break a;
                }
            };
            ctx.miller_rabin(&a)
        })
    }

    /// Generate a random probable prime of exactly `bits` bits.
    pub fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits >= 8, "prime size too small");
        loop {
            let mut limbs = vec![0u64; bits.div_ceil(64)];
            for l in &mut limbs {
                *l = rng.gen();
            }
            let extra = limbs.len() * 64 - bits;
            let last = limbs.len() - 1;
            limbs[last] &= u64::MAX >> extra;
            limbs[last] |= 1 << ((bits - 1) % 64); // exact bit length
            limbs[0] |= 1; // odd
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if candidate.is_probable_prime(rng, 20) {
                return candidate;
            }
        }
    }
}

/// Montgomery arithmetic over a fixed odd modulus.
///
/// Construction fixes the width `N` of the engine that runs every
/// operation under the modulus — the smallest of 1, 2, 4, …, 128 limbs
/// that holds it (128 limbs is the square of a 4,096-bit peer modulus;
/// wider moduli have no context) — and costs one word-level division
/// (`R² mod m`, with `R = 2^(64N)`). A narrower modulus is
/// zero-extended: that changes `R`, never a result. After that nothing
/// divides: a product is one CIOS pass, a square one SOS pass (each
/// cross product once, then one reduction), and [`Montgomery::pow`]
/// runs left to right over sliding windows of the exponent, one
/// squaring per bit plus one product per window over a table of odd
/// powers whose size follows the exponent's length (none for
/// `e = 65537`: 16 squarings and one product). Every value is a
/// `[u64; N]` on the stack, so an operation allocates nothing but its
/// result. This is the engine under every RSA envelope, Paillier cell,
/// and prime-generation Miller–Rabin round.
#[derive(Clone, Debug)]
pub struct Montgomery {
    /// Modulus limbs (little-endian), zero-extended to the width `N`.
    m: Vec<u64>,
    /// `-m⁻¹ mod 2⁶⁴`.
    m0_inv: u64,
    /// `R mod m` (`1` in Montgomery form), `N` limbs.
    r1: Vec<u64>,
    /// `R² mod m`, `N` limbs.
    r2: Vec<u64>,
}

/// `$ctx.$f::<N>(…)` at the width `N` of `$ctx`'s engine: the one
/// dispatch, once per operation.
macro_rules! at_width {
    ($ctx:expr, $f:ident($($arg:expr),*)) => {
        match $ctx.m.len() {
            1 => $ctx.$f::<1>($($arg),*),
            2 => $ctx.$f::<2>($($arg),*),
            4 => $ctx.$f::<4>($($arg),*),
            8 => $ctx.$f::<8>($($arg),*),
            16 => $ctx.$f::<16>($($arg),*),
            32 => $ctx.$f::<32>($($arg),*),
            64 => $ctx.$f::<64>($($arg),*),
            _ => $ctx.$f::<128>($($arg),*),
        }
    };
}

impl Montgomery {
    /// Context for an odd modulus `> 1` of at most 8,192 bits; `None`
    /// for even, zero, one, or wider.
    pub fn new(m: &BigUint) -> Option<Montgomery> {
        let width = m.limbs.len().next_power_of_two();
        if m.is_zero() || m.is_one() || m.is_even() || width > 128 {
            return None;
        }
        let mut limbs = m.limbs.clone();
        limbs.resize(width, 0);
        // Newton's iteration doubles correct low bits each round:
        // m0 is its own inverse mod 2³ for odd m0, so 5 rounds reach 2⁶⁴.
        let m0 = limbs[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let mut r2 = BigUint::one().shl(2 * width * 64).rem(m).limbs;
        r2.resize(width, 0);
        let mut ctx = Montgomery {
            m: limbs,
            m0_inv: inv.wrapping_neg(),
            // Set from R² below.
            r1: vec![0; width],
            r2,
        };
        ctx.r1 = at_width!(ctx, r_mod_m());
        Some(ctx)
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> BigUint {
        from_limbs(&self.m)
    }

    /// `R mod m = 1·R²·R⁻¹`.
    fn r_mod_m<const N: usize>(&self) -> Vec<u64> {
        let e = Engine::<N>::of(self);
        e.mul(&unit(), &fixed(&self.r2)).to_vec()
    }

    /// `a` in `N` limbs, reduced by a division only if it is wider. An
    /// `N`-limb value `≥ m` is left as it is: the product needs `a·b <
    /// m·R`, not `a < m`, so the common case is a copy.
    fn load<const N: usize>(&self, a: &BigUint) -> [u64; N] {
        let reduced;
        let limbs = if a.limbs.len() > N {
            reduced = a.rem(&self.modulus());
            &reduced.limbs
        } else {
            &a.limbs
        };
        let mut x = [0u64; N];
        x[..limbs.len()].copy_from_slice(limbs);
        x
    }

    /// `a` in Montgomery form, `a·R mod m`: `R² mod m < m` keeps the
    /// product's bound for any loaded `a`.
    fn enter<const N: usize>(&self, e: &Engine<N>, a: &BigUint) -> [u64; N] {
        e.mul(&self.load(a), &fixed(&self.r2))
    }

    /// `(a · b) mod m` — one domain entry plus one product, no
    /// division.
    pub fn mulmod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        at_width!(self, mulmod_at(a, b))
    }

    fn mulmod_at<const N: usize>(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let e = Engine::<N>::of(self);
        // x·b·R⁻¹ = a·b: the second operand enters as it is.
        from_limbs(&e.mul(&self.enter(&e, a), &self.load(b)))
    }

    /// Garner's recombination over this context's modulus `m`: the
    /// `x < k·m` with `x ≡ a (mod k)` and `x ≡ b (mod m)`, i.e.
    /// `a + k·((b − a)·k⁻¹ mod m)`, for `a, b < m` and `k_inv = k⁻¹ mod
    /// m`. The CRT step of every private-key operation on the factors.
    pub(crate) fn garner(&self, a: &BigUint, k: &BigUint, b: &BigUint, k_inv: &BigUint) -> BigUint {
        let diff = if b >= a {
            b.sub(a)
        } else {
            b.add(&self.modulus()).sub(a)
        };
        a.add(&k.mul(&self.mulmod(&diff, k_inv)))
    }

    /// `base^exp mod m` over sliding windows.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        at_width!(self, pow_at(base, exp))
    }

    fn pow_at<const N: usize>(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let e = Engine::<N>::of(self);
        let x = e.pow(&self.enter(&e, base), exp.bits(), |i| exp.bit(i));
        // Out of the Montgomery domain: a product with `1`.
        from_limbs(&e.mul(&x, &unit()))
    }

    /// `base^exp mod m` for each `(context, base, exp)` job: exactly one
    /// [`Montgomery::pow`] per job.
    pub(crate) fn pow_each<const K: usize>(
        jobs: [(&Montgomery, &BigUint, &BigUint); K],
    ) -> [BigUint; K] {
        jobs.map(|(ctx, base, exp)| ctx.pow(base, exp))
    }

    /// One Miller–Rabin round over this context's modulus
    /// `m = d·2ʳ + 1` (`d` odd) for a witness `a` in `[2, m − 1)`:
    /// `true` unless `a` proves `m` composite, i.e. when `a^d ≡ ±1` or
    /// `a^(d·2ⁱ) ≡ −1` for some `0 < i < r`.
    /// The power and the squarings stay in the Montgomery domain, where
    /// `±1` are `R mod m` and `m − R mod m`.
    pub fn miller_rabin(&self, a: &BigUint) -> bool {
        at_width!(self, miller_rabin_at(a))
    }

    fn miller_rabin_at<const N: usize>(&self, a: &BigUint) -> bool {
        let e = Engine::<N>::of(self);
        let mut minus_one = e.m;
        sub_assign(&mut minus_one, &e.one);
        // m is odd: m − 1 is m with bit 0 cleared, and d its bits above
        // the r trailing zeros.
        let mut m1 = e.m;
        m1[0] ^= 1;
        let z = m1.iter().position(|&l| l != 0).expect("m > 1");
        let top = m1.iter().rposition(|&l| l != 0).expect("m > 1");
        let r = 64 * z + m1[z].trailing_zeros() as usize;
        let bits = 64 * top + 64 - m1[top].leading_zeros() as usize - r;
        let bit = |i: usize| (m1[(i + r) / 64] >> ((i + r) % 64)) & 1 == 1;
        let mut x = e.pow(&self.enter(&e, a), bits, bit);
        if x == e.one || x == minus_one {
            return true;
        }
        for _ in 1..r {
            x = e.sqr(&x);
            if x == minus_one {
                return true;
            }
        }
        false
    }
}

/// The fixed-width engine under every [`Montgomery`] operation: the
/// modulus zero-extended to `N` limbs, `−m⁻¹ mod 2⁶⁴` and `R mod m`,
/// copied onto the stack once per operation.
struct Engine<const N: usize> {
    m: [u64; N],
    m0_inv: u64,
    one: [u64; N],
}

impl<const N: usize> Engine<N> {
    fn of(ctx: &Montgomery) -> Self {
        Engine {
            m: fixed(&ctx.m),
            m0_inv: ctx.m0_inv,
            one: fixed(&ctx.r1),
        }
    }

    /// `a·b·R⁻¹ mod m` for `a·b < m·R` (one operand `< m` suffices): the
    /// CIOS product, its two carry limbs beside the array.
    #[inline(always)]
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let (m, mut t, mut hi) = (&self.m, [0u64; N], 0u64);
        for &ai in a {
            // t += ai · b
            let mut carry = 0u64;
            for j in 0..N {
                let cur = t[j] as u128 + (ai as u128) * (b[j] as u128) + carry as u128;
                t[j] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let (hi0, top) = hi.overflowing_add(carry);
            // t = (t + u·m) / 2⁶⁴ with u chosen so the low limb cancels.
            let u = t[0].wrapping_mul(self.m0_inv);
            let cur = t[0] as u128 + (u as u128) * (m[0] as u128);
            let mut carry = (cur >> 64) as u64;
            for j in 1..N {
                let cur = t[j] as u128 + (u as u128) * (m[j] as u128) + carry as u128;
                t[j - 1] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let (last, c) = hi0.overflowing_add(carry);
            t[N - 1] = last;
            hi = top as u64 + c as u64;
        }
        self.reduce(t, hi)
    }

    /// `a²·R⁻¹ mod m` for `a < m`: the SOS square. Each cross product
    /// `aᵢ·aⱼ` is computed once and doubled, the squares `aᵢ²` added,
    /// then one reduction — the residue [`Engine::mul`]`(a, a)` returns.
    #[inline(always)]
    fn sqr(&self, a: &[u64; N]) -> [u64; N] {
        let m = &self.m;
        let mut w = [[0u64; N]; 2];
        let w = w.as_flattened_mut();
        for i in 0..N {
            let mut carry = 0u64;
            for j in i + 1..N {
                let cur = w[i + j] as u128 + (a[i] as u128) * (a[j] as u128) + carry as u128;
                w[i + j] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            w[i + N] = carry;
        }
        // w = 2·w + Σ aᵢ²·2^(128i); the cross sum is < 2^(128N − 1).
        let (mut shifted, mut carry) = (0u64, 0u64);
        for i in 0..N {
            let sq = (a[i] as u128) * (a[i] as u128);
            let (lo, hi) = (w[2 * i], w[2 * i + 1]);
            let cur = ((lo << 1 | shifted) as u128) + (sq as u64 as u128) + carry as u128;
            w[2 * i] = cur as u64;
            let cur = ((hi << 1 | lo >> 63) as u128) + (sq >> 64) + (cur >> 64);
            w[2 * i + 1] = cur as u64;
            carry = (cur >> 64) as u64;
            shifted = hi >> 63;
        }
        // w += uᵢ·m·2^(64i), uᵢ chosen so limb i cancels; `top` is limb 2N.
        let mut top = 0u64;
        for i in 0..N {
            let u = w[i].wrapping_mul(self.m0_inv);
            let mut carry = 0u64;
            for j in 0..N {
                let cur = w[i + j] as u128 + (u as u128) * (m[j] as u128) + carry as u128;
                w[i + j] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let cur = w[i + N] as u128 + carry as u128 + top as u128;
            w[i + N] = cur as u64;
            top = (cur >> 64) as u64;
        }
        self.reduce(fixed(&w[N..]), top)
    }

    /// `t + 2^(64N)·hi`, known to be `< 2m`, brought into `[0, m)`.
    fn reduce(&self, mut t: [u64; N], hi: u64) -> [u64; N] {
        if hi > 0 || cmp_limbs(&t, &self.m) != Ordering::Less {
            sub_assign(&mut t, &self.m);
        }
        t
    }

    /// `base^e` in Montgomery form for `base < m` in that form, the
    /// exponent's `bits` read by `bit`: left to right over sliding
    /// windows of up to `w` bits that end in a one, each a run of
    /// squarings and one product with an odd power of `base` from the
    /// table — `w` from the exponent's length, where a larger table
    /// stops paying for itself: 1 up to 23 bits (no table), 3 up to 79,
    /// 4 up to 239, 5 beyond.
    fn pow(&self, base: &[u64; N], bits: usize, bit: impl Fn(usize) -> bool) -> [u64; N] {
        let w = match bits {
            0..=23 => 1,
            24..=79 => 3,
            80..=239 => 4,
            _ => 5,
        };
        // odd[k] = base^(2k + 1).
        let mut odd = [*base; 16];
        if w > 1 {
            let sq = self.sqr(base);
            for k in 1..1 << (w - 1) {
                odd[k] = self.mul(&odd[k - 1], &sq);
            }
        }
        let (mut acc, mut i) = (self.one, bits);
        while i > 0 {
            if !bit(i - 1) {
                acc = self.sqr(&acc);
                i -= 1;
                continue;
            }
            // The window is bits [j, i): at most w of them, ending in a one.
            let mut j = i.saturating_sub(w);
            while !bit(j) {
                j += 1;
            }
            let win = (j..i).rev().fold(0, |v, k| v << 1 | bit(k) as usize);
            if i == bits {
                // The top window: acc is 1, squaring it is skipped.
                acc = odd[win >> 1];
            } else {
                for _ in j..i {
                    acc = self.sqr(&acc);
                }
                acc = self.mul(&acc, &odd[win >> 1]);
            }
            i = j;
        }
        acc
    }
}

/// The first `N` limbs of `limbs`, as the engine's array.
fn fixed<const N: usize>(limbs: &[u64]) -> [u64; N] {
    limbs[..N].try_into().expect("N limbs")
}

/// `1` in `N` limbs.
fn unit<const N: usize>() -> [u64; N] {
    let mut one = [0u64; N];
    one[0] = 1;
    one
}

/// `a -= b` over equal-length limb slices, dropping the final borrow
/// (callers know `a + 2^(64n)·carry ≥ b`).
fn sub_assign(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *x = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
}

/// Normalized bignum from a limb slice.
fn from_limbs(limbs: &[u64]) -> BigUint {
    let mut n = BigUint {
        limbs: limbs.to_vec(),
    };
    n.normalize();
    n
}

/// Compare two equal-length limb slices (little-endian).
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// `a - b` on (sign, magnitude) pairs.
fn signed_sub(a: (bool, BigUint), b: (bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - (-b) = a + b ; (-a) - b = -(a + b)
        (false, true) => (false, a.1.add(&b.1)),
        (true, false) => (true, a.1.add(&b.1)),
        // same signs: subtract magnitudes.
        (sa, _) => {
            if a.1 >= b.1 {
                (sa, a.1.sub(&b.1))
            } else {
                (!sa, b.1.sub(&a.1))
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    /// The binary long division `divmod` ran for multi-limb divisors
    /// before Algorithm D — kept verbatim as the oracle: the word-level
    /// loop may change how fast a quotient is found, never its value.
    mod reference {
        use super::BigUint;

        impl BigUint {
            pub(super) fn divmod_binary(&self, other: &BigUint) -> (BigUint, BigUint) {
                assert!(!other.is_zero(), "division by zero");
                if self < other {
                    return (BigUint::zero(), self.clone());
                }
                let shift = self.bits() - other.bits();
                let mut quotient = BigUint::zero();
                let mut rem = self.clone();
                let mut divisor = other.shl(shift);
                for i in (0..=shift).rev() {
                    if rem >= divisor {
                        rem = rem.sub(&divisor);
                        quotient = quotient.set_bit(i);
                    }
                    divisor = divisor.shr(1);
                }
                (quotient, rem)
            }

            pub(super) fn set_bit(mut self, i: usize) -> BigUint {
                let limb = i / 64;
                if limb >= self.limbs.len() {
                    self.limbs.resize(limb + 1, 0);
                }
                self.limbs[limb] |= 1 << (i % 64);
                self
            }
        }
    }

    /// `divmod` against the frozen binary loop, plus the identity
    /// `q·v + r = u` and `r < v` on its own.
    fn assert_divides_as_the_binary_loop(u: &BigUint, v: &BigUint) {
        let (q, r) = u.divmod(v);
        assert_eq!((q.clone(), r.clone()), u.divmod_binary(v), "{u:?} / {v:?}");
        assert_eq!(q.mul(v).add(&r), *u);
        assert!(r < *v);
    }

    /// A bignum of exactly `len` limbs, each drawn from the shapes
    /// Algorithm D is sensitive to: all ones, a lone top bit, zero, one,
    /// random.
    fn patterned(rng: &mut StdRng, len: usize) -> BigUint {
        let mut limbs: Vec<u64> = (0..len)
            .map(|_| match rng.gen_range(0..6) {
                0 => u64::MAX,
                1 => 1 << 63,
                2 => 0,
                3 => 1,
                _ => rng.gen(),
            })
            .collect();
        if limbs[len - 1] == 0 {
            limbs[len - 1] = 1 << 63;
        }
        from_limbs(&limbs)
    }

    /// Operands whose two-limb estimate is too large, caught by the
    /// test on the third limb: once (`2¹²⁸ / (2⁶⁴ + 1)`), and twice — one
    /// more than the add-back step can repair.
    #[test]
    fn division_corrects_the_estimate_from_the_third_limb() {
        for (u, v) in [
            (&[0, 0, 1][..], &[1, 1][..]),
            (&[1 << 63, 1 << 62, 2], &[(1 << 63) - 1, 2]),
        ] {
            assert_divides_as_the_binary_loop(&from_limbs(u), &from_limbs(v));
        }
    }

    /// `2¹⁹² / (2¹²⁸ + 1)`: the corrected estimate is still one too
    /// large, which only the multiply-subtract sees — the add-back step.
    #[test]
    fn division_adds_back_an_estimate_one_too_large() {
        assert_divides_as_the_binary_loop(&from_limbs(&[0, 0, 0, 1]), &from_limbs(&[1, 0, 1]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Algorithm D returns the binary loop's `(q, r)` on 1–20-limb
        /// operands of patterned limbs, with divisors as wide as the
        /// dividend, one limb shorter, or any width.
        #[test]
        fn word_level_division_is_the_binary_one(
            seed in proptest::prelude::any::<u64>(),
            ulen in 1usize..=20,
            shape in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let u = patterned(&mut rng, ulen);
            let vlen = match shape {
                0 => ulen,
                1 => ulen.saturating_sub(1).max(1),
                _ => rng.gen_range(1..=20),
            };
            let v = patterned(&mut rng, vlen);
            assert_divides_as_the_binary_loop(&u, &v);
            assert_divides_as_the_binary_loop(&u.mul(&v).add(&v.sub(&BigUint::one())), &v);
        }
    }

    #[test]
    fn arithmetic_matches_u128_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let a: u64 = rng.gen();
            let b: u64 = rng.gen();
            let (a, b) = (a as u128, b as u128);
            assert_eq!(big(a).add(&big(b)).to_u128(), a + b);
            let (hi, lo) = (a.max(b), a.min(b));
            assert_eq!(big(hi).sub(&big(lo)).to_u128(), hi - lo);
            assert_eq!(big(a).mul(&big(b)).to_u128(), a * b);
            if b != 0 {
                let (q, r) = big(a).divmod(&big(b));
                assert_eq!(q.to_u128(), a / b);
                assert_eq!(r.to_u128(), a % b);
            }
        }
    }

    #[test]
    fn modpow_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let base: u32 = rng.gen();
            let exp: u16 = rng.gen_range(0..64);
            let m: u32 = rng.gen_range(2..u32::MAX);
            let expected = {
                let mut acc: u128 = 1;
                for _ in 0..exp {
                    acc = acc * base as u128 % m as u128;
                }
                acc
            };
            let got = big(base as u128)
                .modpow(&big(exp as u128), &big(m as u128))
                .to_u128();
            assert_eq!(got, expected, "{base}^{exp} mod {m}");
        }
    }

    #[test]
    fn shifting() {
        let x = big(0x1234_5678_9abc_def0);
        assert_eq!(x.shl(4).to_u128(), 0x1234_5678_9abc_def0u128 << 4);
        assert_eq!(x.shr(12).to_u128(), 0x1234_5678_9abc_def0u128 >> 12);
        assert_eq!(x.shl(64).shr(64), x);
        assert_eq!(big(0).shl(100), BigUint::zero());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let v: u128 = rng.gen();
            let n = big(v);
            assert_eq!(BigUint::from_bytes_be(&n.to_bytes_be()), n);
        }
        assert!(BigUint::zero().to_bytes_be().is_empty());
    }

    #[test]
    fn gcd_and_modinv() {
        assert_eq!(big(48).gcd(&big(18)).to_u128(), 6);
        assert_eq!(big(17).gcd(&big(31)).to_u128(), 1);
        // 3 * 4 = 12 ≡ 1 mod 11.
        assert_eq!(big(3).modinv(&big(11)).unwrap().to_u128(), 4);
        // No inverse when not coprime.
        assert!(big(6).modinv(&big(9)).is_none());
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..100 {
            let m: u64 = rng.gen_range(3..u64::MAX);
            let a: u64 = rng.gen_range(1..m);
            let am = big(a as u128);
            let mm = big(m as u128);
            if let Some(inv) = am.modinv(&mm) {
                assert_eq!(am.mulmod(&inv, &mm).to_u128(), 1, "{a}⁻¹ mod {m}");
            } else {
                assert_ne!(am.gcd(&mm).to_u128(), 1);
            }
        }
    }

    #[test]
    fn primality_known_values() {
        let mut rng = StdRng::seed_from_u64(11);
        for p in [2u64, 3, 5, 17, 97, 65_537, 2_147_483_647] {
            assert!(
                BigUint::from_u64(p).is_probable_prime(&mut rng, 20),
                "{p} is prime"
            );
        }
        for c in [1u64, 4, 100, 65_535, 2_147_483_646] {
            assert!(
                !BigUint::from_u64(c).is_probable_prime(&mut rng, 20),
                "{c} is composite"
            );
        }
        // Carmichael number 561 = 3·11·17 must be rejected.
        assert!(!BigUint::from_u64(561).is_probable_prime(&mut rng, 20));
        // Multi-limb contexts, with none (Mersenne) and many (Proth)
        // squarings after the exponentiation.
        let pow2 = |k: usize| BigUint::one().shl(k);
        let one = BigUint::one();
        for (p, what) in [
            (pow2(89).sub(&one), "2^89-1"),
            (pow2(127).sub(&one), "2^127-1"),
            (big(3).shl(66).add(&one), "3·2^66+1"),
            (big(5).shl(127).add(&one), "5·2^127+1"),
            (big(3).shl(189).add(&one), "3·2^189+1"),
        ] {
            assert!(p.is_probable_prime(&mut rng, 20), "{what} is prime");
        }
        for (c, what) in [
            (big(3).shl(67).add(&one), "3·2^67+1"),
            (pow2(61).sub(&one).mul(&pow2(89).sub(&one)), "M61·M89"),
            (big(3_215_031_751), "a strong pseudoprime to 2, 3, 5 and 7"),
        ] {
            assert!(!c.is_probable_prime(&mut rng, 20), "{what} is composite");
        }
    }

    #[test]
    fn prime_generation() {
        let mut rng = StdRng::seed_from_u64(12);
        let p = BigUint::gen_prime(&mut rng, 64);
        assert_eq!(p.bits(), 64);
        assert!(p.is_probable_prime(&mut rng, 20));
    }

    /// `gen_prime` under 32 seeds at 64, 128 and 256 bits, each prime
    /// followed by one `u64` drawn from its generator afterwards — which
    /// pins how much of the stream the search consumed. Trial division
    /// and Miller–Rabin may get faster; no generated key may move.
    #[test]
    fn generated_primes_are_pinned() {
        let mut bytes = Vec::new();
        for bits in [64usize, 128, 256] {
            for seed in 0..32u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                bytes.extend_from_slice(&BigUint::gen_prime(&mut rng, bits).to_bytes_be());
                bytes.extend_from_slice(&rng.gen::<u64>().to_be_bytes());
            }
        }
        assert_eq!(
            crate::sha256::sha256_hex(&bytes),
            "1ff4cb56d9b478e1a4806db550e24609891500d9743794c5e697a8a2ca8fa63f"
        );
    }

    #[test]
    fn random_below_is_in_range() {
        let mut rng = StdRng::seed_from_u64(13);
        let bound = big(1000);
        for _ in 0..100 {
            let r = BigUint::random_below(&mut rng, &bound);
            assert!(r < bound);
        }
    }

    #[test]
    fn montgomery_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..50 {
            // Random odd multi-limb modulus.
            let mut m = BigUint::gen_prime(&mut rng, 96);
            if m.is_even() {
                m = m.add(&BigUint::one());
            }
            let ctx = Montgomery::new(&m).expect("odd modulus");
            let a = BigUint::random_below(&mut rng, &m);
            let b = BigUint::random_below(&mut rng, &m);
            assert_eq!(ctx.mulmod(&a, &b), a.mul(&b).rem(&m));
            let e = BigUint::from_u64(rng.gen_range(0..10_000));
            // Oracle: the plain square-and-multiply loop.
            let mut base = a.rem(&m);
            let mut expect = BigUint::one();
            for i in 0..e.bits() {
                if e.bit(i) {
                    expect = expect.mulmod(&base, &m);
                }
                base = base.mulmod(&base, &m);
            }
            assert_eq!(ctx.pow(&a, &e), expect);
        }
    }

    #[test]
    fn montgomery_edge_cases() {
        let m = big(1_000_003);
        let ctx = Montgomery::new(&m).unwrap();
        assert_eq!(ctx.pow(&big(5), &BigUint::zero()).to_u128(), 1);
        assert_eq!(ctx.pow(&BigUint::zero(), &big(7)).to_u128(), 0);
        assert_eq!(ctx.pow(&big(2), &big(20)).to_u128(), (1 << 20) % 1_000_003);
        // Unreduced base.
        assert_eq!(ctx.mulmod(&big(2_000_007), &big(3)).to_u128(), 3);
        // Even / degenerate moduli have no context.
        assert!(Montgomery::new(&big(10)).is_none());
        assert!(Montgomery::new(&BigUint::one()).is_none());
        assert!(Montgomery::new(&BigUint::zero()).is_none());
    }

    #[test]
    fn montgomery_kernel_matches_schoolbook_at_every_width() {
        // Every width runs the one fixed-width engine — 17 limbs
        // zero-extended to its 32-limb width, the rest at their own;
        // operands cover the ends of the range, unreduced n-limb
        // values, and wider ones that take the long-division path.
        let mut rng = StdRng::seed_from_u64(16);
        for limbs in [1usize, 2, 4, 8, 16, 17] {
            for _ in 0..20 {
                let mut m = BigUint::random_below(&mut rng, &BigUint::one().shl(64 * limbs));
                m = m.set_bit(0).set_bit(64 * limbs - 1 - rng.gen_range(0..64));
                let ctx = Montgomery::new(&m).expect("odd modulus");
                let mut operands = vec![
                    BigUint::zero(),
                    BigUint::one(),
                    m.sub(&BigUint::one()),
                    m.clone(),
                    BigUint::one().shl(64 * limbs).sub(&BigUint::one()),
                    BigUint::random_below(&mut rng, &m.mul(&m)),
                    BigUint::random_below(&mut rng, &m.mul(&m).shl(64)),
                ];
                operands.extend((0..3).map(|_| BigUint::random_below(&mut rng, &m)));
                let e = BigUint::from_u64(rng.gen_range(0..5_000));
                // A full-length exponent runs the whole squaring chain,
                // at the widths with a squaring kernel and beside them.
                let full = matches!(limbs, 2 | 4 | 8).then(|| {
                    BigUint::random_below(&mut rng, &BigUint::one().shl(64 * limbs))
                        .set_bit(64 * limbs - 1)
                });
                for (k, a) in operands.iter().enumerate() {
                    for b in &operands {
                        assert_eq!(ctx.mulmod(a, b), a.mul(b).rem(&m), "{limbs} limbs");
                    }
                    let long = full.as_ref().filter(|_| k >= operands.len() - 4);
                    for e in [Some(&e), long].into_iter().flatten() {
                        // Oracle: the plain square-and-multiply loop.
                        let mut base = a.rem(&m);
                        let mut expect = BigUint::one();
                        for i in 0..e.bits() {
                            if e.bit(i) {
                                expect = expect.mulmod(&base, &m);
                            }
                            base = base.mulmod(&base, &m);
                        }
                        assert_eq!(ctx.pow(a, e), expect, "{limbs} limbs");
                    }
                }
            }
        }
    }

    /// The squaring kernel returns what the CIOS product `mul(a, a)`
    /// does, at engine widths and beside them (an engine of any `N` runs
    /// its kernels alike), on the ends of `[0, m)` and random residues.
    #[test]
    fn squaring_kernel_matches_the_product_it_replaces() {
        fn check<const N: usize>(rng: &mut StdRng) {
            for _ in 0..20 {
                let m = BigUint::random_below(rng, &BigUint::one().shl(64 * N))
                    .set_bit(0)
                    .set_bit(64 * N - 1 - rng.gen_range(0..64));
                let ctx = Montgomery::new(&m).expect("odd modulus");
                let engine = Engine::<N>::of(&ctx);
                let mut operands = vec![
                    BigUint::zero(),
                    BigUint::one(),
                    m.sub(&BigUint::one()),
                    from_limbs(&ctx.r1),
                ];
                operands.extend((0..4).map(|_| BigUint::random_below(rng, &m)));
                for a in &operands {
                    let a_limbs = ctx.load::<N>(a);
                    let want = engine.mul(&a_limbs, &a_limbs);
                    assert_eq!(engine.sqr(&a_limbs), want, "{N} limbs, a = {a:?}");
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(17);
        check::<1>(&mut rng);
        check::<2>(&mut rng);
        check::<3>(&mut rng);
        check::<4>(&mut rng);
        check::<5>(&mut rng);
        check::<8>(&mut rng);
        check::<16>(&mut rng);
        check::<17>(&mut rng);
    }

    /// `base^exp mod m` by the square-and-multiply loop with a division
    /// per step.
    fn textbook_pow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let (mut base, mut acc) = (base.rem(m), BigUint::one());
        for i in 0..exp.bits() {
            if exp.bit(i) {
                acc = acc.mulmod(&base, m);
            }
            base = base.mulmod(&base, m);
        }
        acc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The engine is the textbook power at every width class: moduli
        /// of 1 to 17 limbs (the zero-extended widths 3, 5, …, 17
        /// among them), 32 and 64 (the 4,096-bit peer cap). Exponents 0,
        /// 1, 2, 65537, `2ᵏ`, `2ᵏ − 1`, a short random one and a
        /// full-width one; bases below `m`, unreduced ones `≥ m` of
        /// `m`'s width, and ones one or two limbs wider. `mulmod` over
        /// the same bases is the product with a division.
        #[test]
        fn the_engine_is_the_textbook_power_at_every_width(
            seed in proptest::prelude::any::<u64>(),
            width in 0usize..19,
        ) {
            let limbs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 64][width];
            let mut rng = StdRng::seed_from_u64(seed);
            let full = BigUint::one().shl(64 * limbs);
            let m = BigUint::random_below(&mut rng, &full)
                .set_bit(0)
                .set_bit(64 * limbs - 1 - rng.gen_range(0..64));
            let ctx = Montgomery::new(&m).expect("odd modulus");
            let (k, short) = (rng.gen_range(1..=64 * limbs), rng.gen_range(1..64));
            let exps = [
                BigUint::zero(),
                BigUint::one(),
                BigUint::from_u64(2),
                BigUint::from_u64(65_537),
                BigUint::one().shl(k),
                BigUint::one().shl(k).sub(&BigUint::one()),
                BigUint::random_below(&mut rng, &BigUint::one().shl(short)),
                BigUint::random_below(&mut rng, &full).set_bit(64 * limbs - 1),
            ];
            let bases = [
                BigUint::random_below(&mut rng, &m),
                m.add(&BigUint::random_below(&mut rng, &full.sub(&m))),
                BigUint::random_below(&mut rng, &full.shl(64)),
                BigUint::random_below(&mut rng, &full.shl(128)),
            ];
            for a in &bases {
                for b in &bases {
                    proptest::prop_assert_eq!(ctx.mulmod(a, b), a.mul(b).rem(&m));
                }
                for e in &exps {
                    proptest::prop_assert_eq!(ctx.pow(a, e), textbook_pow(a, e, &m), "{} limbs", limbs);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `pow_each` over two contexts is two `pow` calls, over equal
        /// and unequal widths, either exponent the longer (or zero), and
        /// bases wider than their modulus.
        #[test]
        fn pow_each_over_two_contexts_is_two_pows(
            seed in proptest::prelude::any::<u64>(),
            wa in 1usize..6,
            wb in 1usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = |limbs: usize| {
                let m = BigUint::random_below(&mut rng, &BigUint::one().shl(64 * limbs))
                    .set_bit(0)
                    .set_bit(64 * limbs - 1 - rng.gen_range(0..64));
                let (wide, long) = (rng.gen_range(0..80), rng.gen_range(0..=128 * limbs));
                let base = BigUint::random_below(&mut rng, &m.shl(wide));
                let exp = BigUint::random_below(&mut rng, &BigUint::one().shl(long));
                (Montgomery::new(&m).expect("odd modulus"), base, exp)
            };
            let ((a, x, e), (b, y, f)) = (draw(wa), draw(wb));
            let paired = Montgomery::pow_each([(&a, &x, &e), (&b, &y, &f)]);
            proptest::prop_assert_eq!(paired, [a.pow(&x, &e), b.pow(&y, &f)]);
        }
    }

    /// The widest engine, 128 limbs (`n²` of a 4,096-bit peer
    /// Paillier modulus), on the short exponents an aggregate meets and
    /// bases below, at and above the modulus's width; past it there is
    /// no context and `modpow` divides.
    #[test]
    fn the_widest_engine_is_the_textbook_power() {
        let mut rng = StdRng::seed_from_u64(18);
        let full = BigUint::one().shl(64 * 128);
        let m = BigUint::random_below(&mut rng, &full)
            .set_bit(0)
            .set_bit(64 * 128 - 1);
        let ctx = Montgomery::new(&m).expect("odd modulus");
        let bases = [
            BigUint::random_below(&mut rng, &m),
            m.add(&BigUint::random_below(&mut rng, &full.sub(&m))),
            BigUint::random_below(&mut rng, &full.shl(64)),
        ];
        for a in &bases {
            for b in &bases {
                assert_eq!(ctx.mulmod(a, b), a.mul(b).rem(&m));
            }
            for e in [0u64, 1, 2, 65_537, rng.gen()] {
                let e = BigUint::from_u64(e);
                assert_eq!(ctx.pow(a, &e), textbook_pow(a, &e, &m));
            }
        }
        let wider = m.shl(64).add(&BigUint::one());
        assert!(Montgomery::new(&wider).is_none());
        let e = BigUint::from_u64(3);
        assert_eq!(
            bases[0].modpow(&e, &wider),
            textbook_pow(&bases[0], &e, &wider)
        );
    }

    #[test]
    fn single_limb_division_fast_path() {
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..200 {
            let a = BigUint::random_below(&mut rng, &BigUint::one().shl(200));
            let d: u64 = rng.gen_range(1..u64::MAX);
            let (q, r) = a.divmod(&BigUint::from_u64(d));
            assert_eq!(q.mul(&BigUint::from_u64(d)).add(&r), a);
            assert!(r < BigUint::from_u64(d));
        }
    }

    #[test]
    fn comparison_and_bits() {
        assert!(big(5) < big(6));
        assert!(big(1 << 70) > big(u64::MAX as u128));
        assert_eq!(big(0).bits(), 0);
        assert_eq!(big(1).bits(), 1);
        assert_eq!(big(255).bits(), 8);
        assert_eq!(big(256).bits(), 9);
    }
}
