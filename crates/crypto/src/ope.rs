//! Order-preserving encryption (OPE).
//!
//! A simplified Boldyreva-style construction: the 64-bit plaintext
//! order-code space is mapped into a 96-bit ciphertext space by a
//! keyed binary descent. At each of the 64 levels the current
//! ciphertext range is split at a pseudo-random point (SipHash over the
//! descent path) constrained so both halves stay large enough to embed
//! the remaining domain; the plaintext bit selects the half. The
//! mapping is strictly monotone and injective, and decryption runs the
//! same descent.
//!
//! # The descent, exactly
//!
//! The state entering level `l` (0 = most significant code bit) is the
//! range `[lo, lo + width)` and the path taken so far. The right half
//! starts at `mid = lo + 2^(63-l) + (r mod (slack + 1))` with
//! `slack = width − 2^(64-l)` and `r = SipHash-2-4(key, msg)`, where
//! `msg` is `1 + min(l, 8)` bytes: the level byte `l`, then the first
//! `min(l, 8)` bytes of the path. A right turn at level `j` sets bit
//! `j % 8` of path byte `j / 8`, i.e. bit `j` of the path read as a
//! little-endian `u64`. Levels 0–6 are a single SipHash word (message
//! and length byte fit in eight bytes), levels 7–63 two; [`OpeKey`]
//! builds those words in registers from `(l, path)`.
//!
//! # Runs
//!
//! [`OpeKey::encrypt_run`] encrypts a run of codes as a set. It
//! collects the distinct codes in ascending order — by marking a table
//! over `lo..=hi` when the run is dense (a date column's days, say),
//! else by a comparison sort — and descends each once. The state
//! entering level `l` is a function of the key and the top `l` code
//! bits only, so a code sharing `d` leading bits with the one before
//! it *resumes* at level `d` from the identical state the one-shot
//! descent would reach; adjacent codes of a dense run share all but
//! their low bits. Every row then copies the ciphertext of its own
//! code under its own type tag. A ciphertext is a function of
//! `(key, code)` alone, so neither the order of the descents nor the
//! run's layout can show in one. A seeded property pins it against a
//! frozen copy of the original 64-PRF loop.
//!
//! Supported plaintexts are totally ordered fixed-width scalars:
//! integers, numerics (via the standard IEEE-754 order-preserving bit
//! trick) and dates. Strings are *not* supported — range predicates on
//! strings fall back to plaintext evaluation (see
//! `mpq_core::capability`).

use crate::siphash::SipState;

/// Ciphertext-space bits. 96 bits leave ≥ 2^32 slack over the 64-bit
/// domain, so every level can split with both halves non-degenerate.
const RANGE_BITS: u32 = 96;

/// Type tags carried in ciphertexts so decryption restores the exact
/// plaintext type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpeType {
    /// `i64`.
    Int = 1,
    /// `f64`.
    Num = 2,
    /// Days since epoch (`i32`).
    Date = 3,
}

impl OpeType {
    fn from_tag(t: u8) -> Option<OpeType> {
        match t {
            1 => Some(OpeType::Int),
            2 => Some(OpeType::Num),
            3 => Some(OpeType::Date),
            _ => None,
        }
    }
}

/// Map an `i64` to its order-preserving `u64` code.
pub fn int_to_code(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

/// Inverse of [`int_to_code`].
pub fn code_to_int(c: u64) -> i64 {
    (c ^ (1 << 63)) as i64
}

/// Map an `f64` to an order-preserving `u64` code (standard IEEE-754
/// trick; total order, NaN unsupported).
pub fn num_to_code(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`num_to_code`].
pub fn code_to_num(c: u64) -> f64 {
    let b = if c >> 63 == 1 { c & !(1 << 63) } else { !c };
    f64::from_bits(b)
}

/// One point of the descent: the ciphertext range `[lo, lo + width)`
/// entering a level, and the turns taken to get there (bit `j` set =
/// right at level `j`).
#[derive(Clone, Copy, Debug)]
struct Node {
    lo: u128,
    width: u128,
    path: u64,
}

const ROOT: Node = Node {
    lo: 0,
    width: 1 << RANGE_BITS,
    path: 0,
};

/// An OPE key with the SipHash key words parsed once. Deliberately not
/// `Debug`: the state is key material.
#[derive(Clone, Copy)]
pub struct OpeKey(SipState);

impl OpeKey {
    /// Prepare a 128-bit key.
    pub fn new(key: &[u8; 16]) -> OpeKey {
        OpeKey(SipState::keyed(key))
    }

    /// SipHash-2-4 of the `level ‖ path` message (module doc), built
    /// as words: `level` in byte 0, path bytes from byte 1 up, the
    /// message length in the last word's top byte. `path` has no bit
    /// at or above `level`, so nothing needs masking.
    #[inline(always)]
    fn prf(&self, level: u32, path: u64) -> u64 {
        let mut state = self.0;
        let len = 1 + u64::from(level.min(8));
        let word = u64::from(level) | path << 8;
        if level < 7 {
            state.compress(word | len << 56);
        } else {
            state.compress(word);
            state.compress(path >> 56 | len << 56);
        }
        state.finish()
    }

    /// One level of the descent, shared by both directions: compute
    /// the split point of `at`, let `right` choose the half from it
    /// (encryption ignores it and reads the code bit, decryption
    /// compares the ciphertext), return the choice and the child.
    #[inline(always)]
    fn step(&self, level: u32, at: Node, right: impl FnOnce(u128) -> bool) -> (bool, Node) {
        // Both halves keep room for the remaining sub-domain.
        let min_half = 1u128 << (63 - level);
        debug_assert!(
            at.width >= 2 * min_half,
            "range too narrow at level {level}"
        );
        let slack = at.width - 2 * min_half;
        let r = self.prf(level, at.path);
        // `r mod (slack + 1)` without a 128-bit division: at or above
        // 2^64 − 1 the modulus exceeds every `r`.
        let offset = match u64::try_from(slack) {
            Ok(s) if s < u64::MAX => r % (s + 1),
            _ => r,
        };
        let mid = at.lo + min_half + u128::from(offset);
        let right = right(mid);
        let child = if right {
            Node {
                lo: mid,
                width: at.lo + at.width - mid,
                path: at.path | 1 << level,
            }
        } else {
            Node {
                lo: at.lo,
                width: mid - at.lo,
                path: at.path,
            }
        };
        (right, child)
    }

    /// Walk `code`'s bits from `level` down to the leaf, starting at
    /// `at` (the node entering `level`) and reporting each node entered.
    #[inline(always)]
    fn descend(
        &self,
        level: u32,
        mut at: Node,
        code: u64,
        mut entered: impl FnMut(u32, Node),
    ) -> Node {
        for level in level..64 {
            at = self.step(level, at, |_| (code >> (63 - level)) & 1 == 1).1;
            entered(level + 1, at);
        }
        at
    }

    /// Encrypt a 64-bit order code into a 96-bit order-preserving code.
    fn encrypt_code(&self, code: u64) -> u128 {
        self.descend(0, ROOT, code, |_, _| {}).lo
    }

    /// Decrypt a 96-bit order-preserving code back to the 64-bit order
    /// code. Returns `None` if the ciphertext is not on any valid path.
    fn decrypt_code(&self, cipher: u128) -> Option<u64> {
        let mut at = ROOT;
        let mut code = 0u64;
        for level in 0..64 {
            let (bit, child) = self.step(level, at, |mid| cipher >= mid);
            at = child;
            code = code << 1 | u64::from(bit);
        }
        (cipher == at.lo).then_some(code)
    }

    /// Decrypt a typed cell produced by [`OpeKey::encrypt_run`].
    pub fn decrypt(&self, bytes: &[u8]) -> Option<(OpeType, u64)> {
        let bytes: &[u8; CELL_LEN] = bytes.try_into().ok()?;
        let ty = OpeType::from_tag(bytes[0])?;
        let c = u128::from_be_bytes(bytes[1..].try_into().ok()?);
        Some((ty, self.decrypt_code(c)?))
    }

    /// Encrypt a run of typed codes (`None`: NULL), handing `emit` each
    /// row's cell, `tag ‖ 16-byte big-endian code`, in row order. Each
    /// distinct code is descended once, in ascending order (module
    /// doc, "Runs").
    pub fn encrypt_run(
        &self,
        run: &[Option<(OpeType, u64)>],
        mut emit: impl FnMut(Option<[u8; CELL_LEN]>),
    ) {
        // `trail[l]` is the node the previous code's descent entered
        // level `l` with: the next resumes where the two part.
        let (mut trail, mut prev) = ([ROOT; 65], None);
        let mut encrypt = |code: u64| {
            let from = prev.map_or(0, |prev: u64| (prev ^ code).leading_zeros());
            prev = Some(code);
            let at = trail[from as usize];
            self.descend(from, at, code, |level, at| trail[level as usize] = at)
                .lo
        };
        let codes = || run.iter().flatten().map(|&(_, code)| code);
        let bound = DENSE_SPAN_PER_CELL.saturating_mul(run.len() as u64);
        let span = codes().min().zip(codes().max());
        if let Some((lo, hi)) = span.filter(|&(lo, hi)| hi - lo < bound) {
            // `ABSENT` marks a code no row holds: ciphertexts are < 2^96.
            const ABSENT: u128 = u128::MAX;
            let mut table = vec![ABSENT; (hi - lo) as usize + 1];
            for code in codes() {
                table[(code - lo) as usize] = 0;
            }
            for (code, slot) in (lo..=hi).zip(&mut table) {
                if *slot != ABSENT {
                    *slot = encrypt(code);
                }
            }
            for &typed in run {
                emit(typed.map(|(ty, code)| cell(ty, table[(code - lo) as usize])));
            }
        } else {
            let mut distinct: Vec<u64> = codes().collect();
            distinct.sort_unstable();
            distinct.dedup();
            let ciphers: Vec<u128> = distinct.iter().map(|&code| encrypt(code)).collect();
            let at = |code| distinct.partition_point(|&c| c < code);
            for &typed in run {
                emit(typed.map(|(ty, code)| cell(ty, ciphers[at(code)])));
            }
        }
    }
}

/// Bytes of a typed OPE cell.
const CELL_LEN: usize = 17;

fn cell(ty: OpeType, cipher: u128) -> [u8; CELL_LEN] {
    let mut out = [0u8; CELL_LEN];
    out[0] = ty as u8;
    out[1..].copy_from_slice(&cipher.to_be_bytes());
    out
}

/// A run is dense when its codes span fewer than this many values per
/// cell (`hi − lo < 4n`): marking and sweeping the table then costs at
/// most four slots per cell, less than sorting the codes would.
const DENSE_SPAN_PER_CELL: u64 = 4;

/// One-shot `OpeKey::encrypt_code` for a raw key.
pub fn ope_encrypt_code(key: &[u8; 16], code: u64) -> u128 {
    OpeKey::new(key).encrypt_code(code)
}

/// One-shot `OpeKey::decrypt_code` for a raw key.
pub fn ope_decrypt_code(key: &[u8; 16], cipher: u128) -> Option<u64> {
    OpeKey::new(key).decrypt_code(cipher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn int_code_preserves_order() {
        let vals = [i64::MIN, -5, -1, 0, 1, 5, i64::MAX];
        for w in vals.windows(2) {
            assert!(int_to_code(w[0]) < int_to_code(w[1]));
            assert_eq!(code_to_int(int_to_code(w[0])), w[0]);
        }
    }

    #[test]
    fn num_code_preserves_order() {
        let vals = [-1e300, -2.5, -0.0, 0.5, 2.5, 1e300];
        for w in vals.windows(2) {
            assert!(num_to_code(w[0]) < num_to_code(w[1]), "{} < {}", w[0], w[1]);
        }
        for v in vals {
            assert_eq!(code_to_num(num_to_code(v)), v);
        }
    }

    #[test]
    fn ope_is_strictly_monotone() {
        let key = [42u8; 16];
        let mut rng = StdRng::seed_from_u64(1);
        let mut codes: Vec<u64> = (0..200).map(|_| rng.gen()).collect();
        codes.extend([0, 1, u64::MAX - 1, u64::MAX]);
        codes.sort_unstable();
        codes.dedup();
        let encs: Vec<u128> = codes.iter().map(|&c| ope_encrypt_code(&key, c)).collect();
        for w in encs.windows(2) {
            assert!(w[0] < w[1], "monotonicity violated");
        }
    }

    #[test]
    fn ope_roundtrip() {
        let key = [7u8; 16];
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let code: u64 = rng.gen();
            let c = ope_encrypt_code(&key, code);
            assert_eq!(ope_decrypt_code(&key, c), Some(code));
        }
        // Boundaries.
        for code in [0u64, 1, u64::MAX] {
            assert_eq!(
                ope_decrypt_code(&key, ope_encrypt_code(&key, code)),
                Some(code)
            );
        }
    }

    #[test]
    fn ope_is_keyed() {
        let k1 = [1u8; 16];
        let k2 = [2u8; 16];
        assert_ne!(ope_encrypt_code(&k1, 12345), ope_encrypt_code(&k2, 12345));
    }

    #[test]
    fn decrypt_only_accepts_valid_leaves() {
        // Invariant: decrypt(c') = Some(x) ⟹ encrypt(x) = c'. Probing
        // neighbours of a valid ciphertext either fails or lands on the
        // genuine ciphertext of another plaintext.
        let key = [3u8; 16];
        for code in [0u64, 999, u64::MAX / 3] {
            let c = ope_encrypt_code(&key, code);
            for probe in [c.wrapping_sub(1), c + 1, c + 12345] {
                if let Some(x) = ope_decrypt_code(&key, probe) {
                    assert_eq!(ope_encrypt_code(&key, x), probe);
                }
            }
        }
    }

    #[test]
    fn typed_roundtrip() {
        let key = OpeKey::new(&[9u8; 16]);
        let bytes = cell(OpeType::Int, key.encrypt_code(int_to_code(-77)));
        let (ty, code) = key.decrypt(&bytes).unwrap();
        assert_eq!(ty, OpeType::Int);
        assert_eq!(code_to_int(code), -77);
        assert!(key.decrypt(&bytes[..5]).is_none());
    }

    #[test]
    fn typed_ciphertexts_compare_bytewise() {
        let key = OpeKey::new(&[4u8; 16]);
        let a = cell(OpeType::Num, key.encrypt_code(num_to_code(1.5)));
        let b = cell(OpeType::Num, key.encrypt_code(num_to_code(2.5)));
        assert!(a < b, "byte order must follow plaintext order");
    }

    /// The descent as it stood before the kernel rewrite, frozen: 64
    /// `siphash24` calls over a byte buffer and a 128-bit modulo per
    /// cell (twice that to decrypt). Bit-identity with this is the
    /// contract every ciphertext on the wire depends on.
    mod reference {
        use super::super::RANGE_BITS;
        use crate::siphash::siphash24;

        pub fn encrypt_code(key: &[u8; 16], code: u64) -> u128 {
            let mut lo: u128 = 0;
            let mut width: u128 = 1 << RANGE_BITS;
            let mut path = [0u8; 9]; // level byte + 8 path bytes
            for level in 0..64u32 {
                let remaining = 64 - level;
                let bit = (code >> (63 - level)) & 1;
                let (l, w) = split(key, &mut path, level, lo, width, remaining, bit == 1);
                lo = l;
                width = w;
            }
            lo
        }

        pub fn decrypt_code(key: &[u8; 16], cipher: u128) -> Option<u64> {
            let mut lo: u128 = 0;
            let mut width: u128 = 1 << RANGE_BITS;
            let mut code: u64 = 0;
            let mut path = [0u8; 9];
            for level in 0..64u32 {
                let remaining = 64 - level;
                let split_lo = split_point(key, &mut path, level, lo, width, remaining);
                let bit = cipher >= split_lo;
                let (l, w) = split(key, &mut path, level, lo, width, remaining, bit);
                lo = l;
                width = w;
                code = (code << 1) | bit as u64;
            }
            (cipher == lo).then_some(code)
        }

        fn split_point(
            key: &[u8; 16],
            path: &mut [u8; 9],
            level: u32,
            lo: u128,
            width: u128,
            remaining: u32,
        ) -> u128 {
            let min_half: u128 = 1u128 << (remaining - 1);
            let slack = width - 2 * min_half;
            path[0] = level as u8;
            let r = siphash24(key, &path[..1 + (level as usize).min(8)]) as u128;
            let offset = if slack == 0 { 0 } else { r % (slack + 1) };
            lo + min_half + offset
        }

        fn split(
            key: &[u8; 16],
            path: &mut [u8; 9],
            level: u32,
            lo: u128,
            width: u128,
            remaining: u32,
            right: bool,
        ) -> (u128, u128) {
            let mid = split_point(key, path, level, lo, width, remaining);
            let byte = (level / 8) as usize;
            if byte < 8 && right {
                path[1 + byte] |= 1 << (level % 8);
            }
            if right {
                (mid, lo + width - mid)
            } else {
                (lo, mid - lo)
            }
        }
    }

    const BOUNDARY_CODES: [u64; 5] = [0, 1, 1 << 63, u64::MAX - 1, u64::MAX];

    /// Code sequences shaped like the columns a run meets, plus the
    /// ones built to hit its corners.
    fn code_sequences(rng: &mut StdRng) -> Vec<(&'static str, Vec<u64>)> {
        let uniform: Vec<u64> = (0..3000).map(|_| rng.gen()).collect();
        let mut sorted = uniform.clone();
        sorted.sort_unstable();
        // Date-like: equal top 50 bits, ~2,500 distinct values, repeats.
        let day0 = int_to_code(8035);
        let dates: Vec<u64> = (0..6000)
            .map(|_| day0 + rng.gen_range(0..2526u64))
            .collect();
        // f64-like: two-decimal prices and an 11-value discount column —
        // low mantissa bits zero, variation in the high bits.
        let prices: Vec<u64> = (0..3000)
            .map(|_| num_to_code(rng.gen_range(90_000..10_500_000u64) as f64 / 100.0))
            .collect();
        let discounts: Vec<u64> = (0..3000)
            .map(|_| num_to_code(rng.gen_range(0..11u64) as f64 / 100.0))
            .collect();
        let coarse: Vec<u64> = (0..3000).map(|_| rng.gen::<u64>() >> 47 << 47).collect();
        // Six codes differing only in their top bits, interleaved: the
        // sort brings repeats far apart in row order next to each other,
        // and each distinct code resumes within the top three levels.
        let far: Vec<u64> = (0..6u64).map(|i| i << 61 | 12_345).collect();
        let interleaved: Vec<u64> = (0..600).map(|i| far[(i * 7 + i / 5) % 6]).collect();
        let mut boundaries = BOUNDARY_CODES.to_vec();
        boundaries.extend(BOUNDARY_CODES.iter().rev());
        boundaries.extend([u64::MAX, u64::MAX, 0, 0]);
        // Runs of 500 around the dense bound (4n = 2,000), and dense
        // runs at both ends of the code space.
        let mut spanning = |lo: u64, n: usize, span: u64| {
            let mut codes: Vec<u64> = (0..n).map(|_| lo + rng.gen_range(0..=span)).collect();
            codes[n / 2] = lo;
            codes[n - 1] = lo + span;
            codes
        };
        vec![
            ("uniform", uniform),
            ("sorted", sorted),
            ("dates", dates),
            ("prices", prices),
            ("discounts", discounts),
            ("coarse", coarse),
            ("interleaved", interleaved),
            ("boundaries", boundaries),
            ("span_4n_minus_1", spanning(day0, 500, 1999)),
            ("span_4n", spanning(day0, 500, 2000)),
            ("span_4n_plus_1", spanning(day0, 500, 2001)),
            ("dense_at_zero", spanning(0, 64, 100)),
            ("dense_at_max", spanning(u64::MAX - 100, 64, 100)),
            ("one_cell", spanning(day0, 1, 0)),
        ]
    }

    #[test]
    fn run_entry_is_bit_identical_to_the_reference_descent() {
        let mut rng = StdRng::seed_from_u64(28);
        let raw: [u8; 16] = rng.gen();
        let key = OpeKey::new(&raw);
        let tys = [OpeType::Int, OpeType::Num, OpeType::Date];
        for (name, codes) in code_sequences(&mut rng) {
            let whole: Vec<_> = codes.iter().map(|&c| Some((OpeType::Num, c))).collect();
            // Every third row NULL, the type tag cycling row by row.
            let holes: Vec<_> = (codes.iter().enumerate())
                .map(|(i, &c)| (i % 3 != 1).then_some((tys[i % 3], c)))
                .collect();
            for run in [whole, holes, vec![None; 5]] {
                let mut cells = Vec::new();
                key.encrypt_run(&run, |c| cells.push(c));
                assert_eq!(cells.len(), run.len(), "{name}");
                for (i, (typed, got)) in run.iter().zip(cells).enumerate() {
                    let want = typed.map(|(ty, c)| cell(ty, reference::encrypt_code(&raw, c)));
                    assert_eq!(got, want, "{name}[{i}]");
                }
            }
        }
    }

    #[test]
    fn prf_words_match_the_byte_message() {
        // The layout the module doc states, checked against the general
        // SipHash over the bytes the original loop fed it.
        let raw = [0x5au8; 16];
        let key = OpeKey::new(&raw);
        let mut rng = StdRng::seed_from_u64(3);
        for level in 0..64u32 {
            for _ in 0..8 {
                let path = rng.gen::<u64>() & ((1u64 << level) - 1);
                let mut msg = vec![level as u8];
                msg.extend_from_slice(&path.to_le_bytes()[..(level as usize).min(8)]);
                assert_eq!(
                    key.prf(level, path),
                    crate::siphash::siphash24(&raw, &msg),
                    "level {level} path {path:#x}"
                );
            }
        }
    }

    #[test]
    fn encryptor_is_bit_identical_to_the_reference_descent() {
        let mut rng = StdRng::seed_from_u64(15);
        for round in 0..3 {
            let raw: [u8; 16] = rng.gen();
            let key = OpeKey::new(&raw);
            for (name, codes) in code_sequences(&mut rng) {
                // One run per sequence: resumes see the whole run. The
                // tags alternate on a stride, so a cell copied from its
                // code's slot under the wrong tag would show.
                let ty = |i: usize| {
                    if i % 5 == 0 {
                        OpeType::Int
                    } else {
                        OpeType::Num
                    }
                };
                let run: Vec<_> = (codes.iter().enumerate())
                    .map(|(i, &c)| Some((ty(i), c)))
                    .collect();
                let mut by_run = Vec::new();
                key.encrypt_run(&run, |c| by_run.push(c));
                for (i, &code) in codes.iter().enumerate() {
                    let want = reference::encrypt_code(&raw, code);
                    let ctx = format!("round {round} {name}[{i}] code {code:#x}");
                    assert_eq!(key.encrypt_code(code), want, "{ctx}");
                    assert_eq!(by_run[i], Some(cell(ty(i), want)), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn decrypt_is_identical_to_the_reference_descent() {
        let mut rng = StdRng::seed_from_u64(0xdec);
        let raw: [u8; 16] = rng.gen();
        let key = OpeKey::new(&raw);
        for (name, codes) in code_sequences(&mut rng) {
            for &code in codes.iter().take(400) {
                let c = key.encrypt_code(code);
                assert_eq!(key.decrypt_code(c), Some(code), "{name} round-trip");
                // Valid leaves, their neighbours and arbitrary points:
                // the same verdict as the original, accept or reject.
                for probe in [c, c.wrapping_sub(1), c + 1, c ^ rng.gen::<u64>() as u128] {
                    assert_eq!(
                        key.decrypt_code(probe),
                        reference::decrypt_code(&raw, probe),
                        "{name} probe {probe:#x}"
                    );
                }
            }
        }
    }
}
