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
//! single hottest loop in the whole system. Its kernels: a CIOS product
//! for every multiplication, an SOS square (each cross product once,
//! then one reduction) for the squarings at the widths where it
//! measured faster, and one fixed 4-bit-window loop that runs one
//! exponentiation, or several under different moduli interleaved
//! (`Montgomery::pow_each`). Every private-key operation — RSA
//! signing and opening, Paillier encryption and decryption by the key
//! holder — is two half-width exponentiations in that loop, one per
//! prime factor, recombined by `Montgomery::garner`. Callers
//! exponentiating repeatedly under one modulus should build the
//! [`Montgomery`] context once and reuse it; the microbenchmarks in
//! `crates/crypto/benches` track the per-operation cost that feeds the
//! §7 economic model.

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

    /// `self^exp % m`: Montgomery fixed-window exponentiation for odd
    /// moduli, square-and-multiply with per-step division otherwise.
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

    /// Miller–Rabin probabilistic primality test (`rounds` witnesses).
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rng: &mut R, rounds: usize) -> bool {
        if self.is_zero() || self.is_one() {
            return false;
        }
        for small in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            let p = BigUint::from_u64(small);
            if self == &p {
                return true;
            }
            if self.rem(&p).is_zero() {
                return false;
            }
        }
        // self - 1 = d * 2^r.
        let mut d = self.sub(&BigUint::one());
        let mut r = 0usize;
        while d.is_even() {
            d = d.shr(1);
            r += 1;
        }
        // One context per candidate; witnesses are raised and squared
        // inside the Montgomery domain, where ±1 are `R` and `m − R`.
        let ctx = Montgomery::new(self).expect("odd and > 37 after trial division");
        let one = &ctx.r1;
        let mut minus_one = ctx.m.clone();
        sub_assign(&mut minus_one, one);
        let mut t = vec![0u64; ctx.m.len() + 2];
        let two = BigUint::from_u64(2);
        'witness: for _ in 0..rounds {
            let a = loop {
                let a = BigUint::random_below(rng, self);
                if a >= two {
                    break a;
                }
            };
            let [ladder] = windows([Ladder::new(&ctx, &a, &d)]);
            let mut x = ladder.acc;
            if x == *one || x == minus_one {
                continue;
            }
            for _ in 0..r - 1 {
                ctx.sqr_assign(&mut x, &mut t);
                if x == minus_one {
                    continue 'witness;
                }
            }
            return false;
        }
        true
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
/// Construction costs one word-level division (`R² mod m`; 13× less
/// than the binary long division it replaced at 2 limbs, 30× at 8 —
/// `bignum/montgomery_new_*`); after that, modular multiplication is a
/// CIOS pass with no division at all, and [`Montgomery::pow`] runs a
/// fixed 4-bit-window exponentiation — one squaring per exponent bit
/// plus one product per window, instead of up to two
/// multiply-then-divide steps per bit. At 2, 4, 8 and
/// 16 limbs the squarings run on the SOS kernel, which computes the
/// cross products once: a full-length `pow` there takes 0.7–0.85× its
/// time on the product alone. Everything accumulates in place over
/// buffers allocated per `pow`/`mulmod` call, none per product. This is
/// the engine under every RSA envelope, Paillier cell, and
/// prime-generation Miller–Rabin round.
#[derive(Clone, Debug)]
pub struct Montgomery {
    /// Modulus limbs (little-endian, length `n`, top limb non-zero).
    m: Vec<u64>,
    /// `-m⁻¹ mod 2⁶⁴`.
    m0_inv: u64,
    /// `R mod m` (`1` in Montgomery form), with `R = 2^(64n)`.
    r1: Vec<u64>,
    /// `R² mod m` padded to `n` limbs.
    r2: Vec<u64>,
}

impl Montgomery {
    /// Context for an odd modulus `> 1`; `None` for even, zero, or one.
    pub fn new(m: &BigUint) -> Option<Montgomery> {
        if m.is_zero() || m.is_one() || m.is_even() {
            return None;
        }
        let limbs = m.limbs.clone();
        let n = limbs.len();
        // Newton's iteration doubles correct low bits each round:
        // m0 is its own inverse mod 2³ for odd m0, so 5 rounds reach 2⁶⁴.
        let m0 = limbs[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let m0_inv = inv.wrapping_neg();
        let mut r2 = BigUint::one().shl(2 * n * 64).rem(m).limbs;
        r2.resize(n, 0);
        let mut ctx = Montgomery {
            m: limbs,
            m0_inv,
            r1: Vec::new(),
            r2,
        };
        // R mod m = 1·R²·R⁻¹.
        let mut one = vec![0u64; n];
        one[0] = 1;
        ctx.mul_assign(&mut one, &ctx.r2, &mut vec![0u64; n + 2]);
        ctx.r1 = one;
        Some(ctx)
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> BigUint {
        BigUint {
            limbs: self.m.clone(),
        }
    }

    /// `t[..n] = a·b·R⁻¹ mod m` for `n`-limb `a`, `b` with `a·b < m·R`
    /// (one of them `< m` suffices), over the `n + 2`-limb scratch `t`.
    /// The one CIOS kernel, with the loop bounds made compile-time
    /// constants where that measured more than 1.3× over the slice loop
    /// (19 vs 34 ns at 2 limbs, 33 vs 53 at 4, 95 vs 115 at 8; nothing
    /// at 16) — the sizes of 128/256-bit primes, Paillier-256 `p²`/`n²`
    /// and RSA-512 moduli.
    fn product(&self, t: &mut [u64], a: &[u64], b: &[u64]) {
        let (m, m0_inv) = (&self.m[..], self.m0_inv);
        match m.len() {
            2 => cios(2, t, a, b, m, m0_inv),
            4 => cios(4, t, a, b, m, m0_inv),
            8 => cios(8, t, a, b, m, m0_inv),
            n => cios(n, t, a, b, m, m0_inv),
        }
    }

    /// `acc = acc·b·R⁻¹ mod m`, in place.
    fn mul_assign(&self, acc: &mut [u64], b: &[u64], t: &mut [u64]) {
        self.product(t, acc, b);
        acc.copy_from_slice(&t[..self.m.len()]);
    }

    /// `acc = acc²·R⁻¹ mod m`, in place, for `acc < m` — which every
    /// caller's operand is: `R mod m` or a product's output. The
    /// squaring kernel runs at the widths of 128/256-bit primes,
    /// Paillier-256 `p²`/`n²`, RSA-512 and Paillier-512 `n²`, where a
    /// full-length `pow` measured 1.2–1.45× faster on it than on
    /// `product(acc, acc)` (2.1 vs 3.1 µs at 2 limbs, 8.1 vs 11.0 at 4,
    /// 52 vs 63 at 8, 475 vs 644 at 16); the rest keep the CIOS product.
    fn sqr_assign(&self, acc: &mut [u64], t: &mut [u64]) {
        let (m, m0_inv) = (&self.m[..], self.m0_inv);
        match m.len() {
            2 => sos_sqr::<2>(acc, m, m0_inv),
            4 => sos_sqr::<4>(acc, m, m0_inv),
            8 => sos_sqr::<8>(acc, m, m0_inv),
            16 => sos_sqr::<16>(acc, m, m0_inv),
            n => {
                self.product(t, acc, acc);
                acc.copy_from_slice(&t[..n]);
            }
        }
    }

    /// Write `a`, padded to `n` limbs, into `dst` — reduced by a
    /// division only if it is wider than the modulus. An `n`-limb value
    /// `≥ m` is left as it is: CIOS needs `a·b < m·R`, not `a < m`, so
    /// the common case is a copy with no comparison.
    fn load(&self, dst: &mut [u64], a: &BigUint) {
        if a.limbs.len() > self.m.len() {
            pad(dst, &a.rem(&self.modulus()).limbs);
        } else {
            pad(dst, &a.limbs);
        }
    }

    /// `(a · b) mod m` — one domain conversion plus one product, no
    /// division.
    pub fn mulmod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let n = self.m.len();
        let mut work = vec![0u64; 3 * n + 2];
        let (x, rest) = work.split_at_mut(n);
        let (y, t) = rest.split_at_mut(n);
        self.load(x, a);
        self.load(y, b);
        self.mul_assign(x, &self.r2, t);
        self.product(t, x, y);
        from_limbs(&t[..n])
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

    /// `base^exp mod m` via fixed 4-bit windows.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let [x] = Montgomery::pow_each([(self, base, exp)]);
        x
    }

    /// `base^exp mod m` for each `(context, base, exp)` job, in one
    /// window loop. The jobs share no data, so interleaving them hands
    /// the CPU independent chains per step; the results are exactly
    /// those of one [`Montgomery::pow`] per job.
    pub(crate) fn pow_each<const K: usize>(
        jobs: [(&Montgomery, &BigUint, &BigUint); K],
    ) -> [BigUint; K] {
        windows(jobs.map(|(ctx, base, exp)| Ladder::new(ctx, base, exp))).map(Ladder::finish)
    }
}

/// One fixed-window exponentiation in Montgomery form, as [`windows`]
/// steps it.
struct Ladder<'a> {
    ctx: &'a Montgomery,
    exp: &'a BigUint,
    /// `table[k·n..][..n] = baseᵏ` in Montgomery form.
    table: Vec<u64>,
    acc: Vec<u64>,
    /// The `n + 2`-limb product scratch.
    t: Vec<u64>,
    /// A non-zero window was met: until then `acc` is `1` and squaring
    /// it is skipped.
    started: bool,
}

impl<'a> Ladder<'a> {
    fn new(ctx: &'a Montgomery, base: &BigUint, exp: &'a BigUint) -> Self {
        let n = ctx.m.len();
        let mut l = Ladder {
            ctx,
            exp,
            table: vec![0u64; 16 * n],
            acc: ctx.r1.clone(),
            t: vec![0u64; n + 2],
            started: false,
        };
        l.table[..n].copy_from_slice(&ctx.r1);
        ctx.load(&mut l.table[n..2 * n], base);
        ctx.mul_assign(&mut l.table[n..2 * n], &ctx.r2, &mut l.t);
        for k in 2..16 {
            ctx.product(&mut l.t, &l.table[(k - 1) * n..k * n], &l.table[n..2 * n]);
            l.table[k * n..(k + 1) * n].copy_from_slice(&l.t[..n]);
        }
        l
    }

    /// The result, out of the Montgomery domain (a product with `1`).
    fn finish(mut self) -> BigUint {
        let mut one = vec![0u64; self.acc.len()];
        one[0] = 1;
        self.ctx.mul_assign(&mut self.acc, &one, &mut self.t);
        from_limbs(&self.acc)
    }
}

/// Run `K` ladders in one loop over 4-bit windows, from the top window
/// of the longest exponent down, each step squaring every ladder once
/// before the next squaring. A shorter exponent reads zero windows
/// above its own top and squares nothing before its first non-zero
/// window, so every ladder ends exactly where a loop of its own would.
fn windows<const K: usize>(mut ladders: [Ladder<'_>; K]) -> [Ladder<'_>; K] {
    let bits = ladders.iter().map(|l| l.exp.bits()).max().unwrap_or(0);
    for w in (0..bits.div_ceil(4)).rev() {
        for _ in 0..4 {
            for l in ladders.iter_mut().filter(|l| l.started) {
                l.ctx.sqr_assign(&mut l.acc, &mut l.t);
            }
        }
        for l in &mut ladders {
            let limb = l.exp.limbs.get(w / 16).copied().unwrap_or(0);
            let (win, n) = (((limb >> (w % 16 * 4)) & 15) as usize, l.acc.len());
            if win != 0 {
                l.ctx
                    .mul_assign(&mut l.acc, &l.table[win * n..(win + 1) * n], &mut l.t);
                l.started = true;
            }
        }
    }
    ladders
}

/// The CIOS Montgomery product behind [`Montgomery::product`]. Inlined
/// into each call site so a literal `n` unrolls the limb loops and
/// drops their bounds checks.
#[inline(always)]
fn cios(n: usize, t: &mut [u64], a: &[u64], b: &[u64], m: &[u64], m0_inv: u64) {
    let (t, a, b, m) = (&mut t[..n + 2], &a[..n], &b[..n], &m[..n]);
    t.fill(0);
    for &ai in a {
        // t += ai · b
        let mut carry = 0u64;
        for j in 0..n {
            let cur = t[j] as u128 + (ai as u128) * (b[j] as u128) + carry as u128;
            t[j] = cur as u64;
            carry = (cur >> 64) as u64;
        }
        let cur = t[n] as u128 + carry as u128;
        t[n] = cur as u64;
        t[n + 1] = (cur >> 64) as u64;
        // t = (t + u·m) / 2⁶⁴ with u chosen so the low limb cancels.
        let u = t[0].wrapping_mul(m0_inv);
        let cur = t[0] as u128 + (u as u128) * (m[0] as u128);
        let mut carry = (cur >> 64) as u64;
        for j in 1..n {
            let cur = t[j] as u128 + (u as u128) * (m[j] as u128) + carry as u128;
            t[j - 1] = cur as u64;
            carry = (cur >> 64) as u64;
        }
        let cur = t[n] as u128 + carry as u128;
        t[n - 1] = cur as u64;
        t[n] = t[n + 1] + ((cur >> 64) as u64);
    }
    // Conditional final subtraction brings t into [0, m).
    if t[n] > 0 || cmp_limbs(&t[..n], m) != Ordering::Less {
        sub_assign(&mut t[..n], m);
    }
}

/// The SOS Montgomery square behind [`Montgomery::sqr_assign`]:
/// `a = a²·R⁻¹ mod m` for an `N`-limb `a < m`. Each cross product
/// `aᵢ·aⱼ` is computed once and doubled, the squares `aᵢ²` added, then
/// one reduction and the conditional final subtraction into `[0, m)` —
/// the same canonical residue the CIOS product returns.
#[inline(always)]
fn sos_sqr<const N: usize>(a: &mut [u64], m: &[u64], m0_inv: u64) {
    let (a, m) = (&mut a[..N], &m[..N]);
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
        let u = w[i].wrapping_mul(m0_inv);
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
    a.copy_from_slice(&w[N..]);
    if top > 0 || cmp_limbs(a, m) != Ordering::Less {
        sub_assign(a, m);
    }
}

/// Copy `src` into `dst`, zero-extending.
fn pad(dst: &mut [u64], src: &[u64]) {
    dst[..src.len()].copy_from_slice(src);
    dst[src.len()..].fill(0);
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
        // 2, 4 and 8 limbs run the unrolled kernel, the rest the slice
        // loop; operands cover the ends of the range, unreduced n-limb
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

    /// The squaring kernel returns what the CIOS product `product(a,
    /// a)` does, at every width it may be dispatched at or beside, on
    /// the ends of `[0, m)` and random residues; so does the dispatch.
    #[test]
    fn squaring_kernel_matches_the_product_it_replaces() {
        fn check<const N: usize>(rng: &mut StdRng) {
            for _ in 0..20 {
                let m = BigUint::random_below(rng, &BigUint::one().shl(64 * N))
                    .set_bit(0)
                    .set_bit(64 * N - 1 - rng.gen_range(0..64));
                let ctx = Montgomery::new(&m).expect("odd modulus");
                let mut operands = vec![
                    BigUint::zero(),
                    BigUint::one(),
                    m.sub(&BigUint::one()),
                    from_limbs(&ctx.r1),
                ];
                operands.extend((0..4).map(|_| BigUint::random_below(rng, &m)));
                let mut t = vec![0u64; N + 2];
                for a in &operands {
                    let mut a_limbs = vec![0u64; N];
                    pad(&mut a_limbs, &a.limbs);
                    ctx.product(&mut t, &a_limbs, &a_limbs);
                    let want = t[..N].to_vec();
                    let mut got = a_limbs.clone();
                    sos_sqr::<N>(&mut got, &ctx.m, ctx.m0_inv);
                    assert_eq!(got, want, "{N} limbs, a = {a:?}");
                    ctx.sqr_assign(&mut a_limbs, &mut t);
                    assert_eq!(a_limbs, want, "dispatch at {N} limbs");
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// One window loop over two contexts is two `pow` calls, over
        /// equal and unequal widths, either exponent the longer (or
        /// zero), and bases wider than their modulus.
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
