//! XTEA block cipher and the two symmetric value schemes.
//!
//! XTEA (64-bit blocks, 128-bit keys, 64 Feistel rounds) is small
//! enough to implement from scratch and fast enough that the
//! deterministic/randomized schemes of the paper's evaluation have the
//! right *relative* cost against OPE and Paillier.
//!
//! * **Deterministic** encryption is XTEA-ECB over the length-prefixed,
//!   zero-padded canonical encoding of a value: identical plaintexts
//!   produce identical ciphertexts, enabling equality predicates and
//!   equi-joins on ciphertexts (as in CryptDB's DET onion layer).
//! * **Randomized** encryption is XTEA-CTR with a fresh 8-byte nonce:
//!   no two encryptions collide, nothing can be computed on them.
//!
//! # One kernel, sixteen blocks at a time
//!
//! A Feistel round feeds its output into the next, so one block alone
//! is a 64-step dependency chain that leaves the core idle (≈ 90 ns).
//! Both modes, though, hand the cipher *independent* blocks: ECB
//! encrypts each block on its own, and CTR encrypts counters that are
//! known up front. [`XteaSchedule::encrypt_blocks`] therefore runs
//! `LANES` blocks side by side through the one round loop
//! (`encrypt_lanes`, plain safe arithmetic over `[u32; LANES]` that
//! the compiler vectorises at the x86-64 baseline on its own — no
//! intrinsics, nothing selected per CPU), and a column of cells is one
//! long run of such blocks: full groups, then one padded with zero
//! blocks.
//!
//! Sixteen lanes for every run, though a group costs the same full or
//! padded: a lone two-block cell — a literal, a `det_encrypt`, an
//! envelope body — pays for sixteen blocks where it paid for eight.
//! Runs are where the time goes (the engine encrypts a column as one
//! run and the user decrypts a Random column as one), and a padded
//! 8-lane last group kept for lone cells moved no end-to-end
//! `benchmark/` metric past its bound (`provider_enc` passes read
//! ≈ 1 % faster with it). Measured on a shared 2-vCPU x86-64 box
//! against the 8-lane kernel, medians of alternating runs (the box
//! swings ±10 %, so read ratios): 4,096 blocks 0.78–0.85×, a
//! 4,096-cell Det or Random column 0.87–0.97× through `encrypt_batch`,
//! a lone cell 1.2–1.6× (`rnd_cell`, `det_value`: ≈ 0.1 µs more). In an
//! isolated kernel harness at the baseline target, 32 lanes read ≈ 15
//! ns a block against ≈ 16.5 at 16 and ≈ 21 at 8; with
//! `-C target-cpu=native` (AVX-512) 32 lanes read ≈ 11 against ≈ 19,
//! but that needs a width picked per CPU, which this module rules out.
//! Measured and not adopted: a precomputed round-key table (slower
//! than the keys worked out inside the loop), and CTR counters fused
//! into the group without the keystream `Vec` (no gain on its own:
//! 54–58 against 57–60 ns a cell).
//!
//! **Why interleaving cannot change a byte.** Lane `l` reads and writes
//! only `v0[l]`/`v1[l]` and the round keys, which depend on the key
//! and the round alone: each lane computes exactly the single-block
//! function, whatever sits in the other lanes (a short last group is
//! padded with zero blocks whose output is dropped). ECB ciphertext
//! block `i` is a function of plaintext block `i`, CTR keystream block
//! `j` of `nonce + j`; which blocks share a group — cell boundaries,
//! chunking, batch size — is invisible. `tests::reference` keeps a
//! frozen copy of the one-block-at-a-time loops and pins this.

const ROUNDS: u32 = 32; // 32 cycles = 64 Feistel rounds
const DELTA: u32 = 0x9e37_79b9;

/// Blocks the kernel encrypts side by side.
const LANES: usize = 16;

/// Expanded XTEA key: the four 32-bit words the round function indexes.
///
/// The expansion itself is just an endianness transform, but the byte
/// slicing sat inside every block call — a column expands the key once
/// and reuses the schedule for every block of every cell.
#[derive(Clone, Copy, Debug)]
pub struct XteaSchedule {
    k: [u32; 4],
}

fn halves(block: u64) -> (u32, u32) {
    (block as u32, (block >> 32) as u32)
}

fn block_of(v0: u32, v1: u32) -> u64 {
    u64::from(v0) | u64::from(v1) << 32
}

/// One half-round's contribution: `v` mixed, under the round key.
#[inline(always)]
fn feistel(v: u32, round_key: u32) -> u32 {
    ((v << 4 ^ v >> 5).wrapping_add(v)) ^ round_key
}

impl XteaSchedule {
    /// Expand a 128-bit key.
    pub fn new(key: &[u8; 16]) -> XteaSchedule {
        XteaSchedule {
            k: std::array::from_fn(|i| {
                u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4 bytes"))
            }),
        }
    }

    /// The encrypting round loop over `N` independent blocks, split
    /// into their low (`v0`) and high (`v1`) halves. Lanes never mix;
    /// the round keys depend on the key and the round alone (`sum`
    /// runs through constants, so the loop unrolls with the key words
    /// picked at compile time).
    #[inline(always)]
    fn encrypt_lanes<const N: usize>(&self, v0: &mut [u32; N], v1: &mut [u32; N]) {
        let k = &self.k;
        let mut sum = 0u32;
        for _ in 0..ROUNDS {
            let round_key = sum.wrapping_add(k[(sum & 3) as usize]);
            for l in 0..N {
                v0[l] = v0[l].wrapping_add(feistel(v1[l], round_key));
            }
            sum = sum.wrapping_add(DELTA);
            let round_key = sum.wrapping_add(k[((sum >> 11) & 3) as usize]);
            for l in 0..N {
                v1[l] = v1[l].wrapping_add(feistel(v0[l], round_key));
            }
        }
    }

    /// Encrypt one 64-bit block.
    pub fn encrypt_block(&self, block: u64) -> u64 {
        let (v0, v1) = halves(block);
        let (mut v0, mut v1) = ([v0], [v1]);
        self.encrypt_lanes(&mut v0, &mut v1);
        block_of(v0[0], v1[0])
    }

    /// Decrypt one 64-bit block.
    fn decrypt_block(&self, block: u64) -> u64 {
        let k = &self.k;
        let (mut v0, mut v1) = halves(block);
        let mut sum = DELTA.wrapping_mul(ROUNDS);
        for _ in 0..ROUNDS {
            v1 = v1.wrapping_sub(feistel(v0, sum.wrapping_add(k[((sum >> 11) & 3) as usize])));
            sum = sum.wrapping_sub(DELTA);
            v0 = v0.wrapping_sub(feistel(v1, sum.wrapping_add(k[(sum & 3) as usize])));
        }
        block_of(v0, v1)
    }

    /// Encrypt `LANES` blocks in place, side by side.
    #[inline(always)]
    fn encrypt_full(&self, group: &mut [u64; LANES]) {
        let mut v0 = group.map(|b| halves(b).0);
        let mut v1 = group.map(|b| halves(b).1);
        self.encrypt_lanes(&mut v0, &mut v1);
        *group = std::array::from_fn(|l| block_of(v0[l], v1[l]));
    }

    /// Encrypt `blocks` — at most `LANES` — in place as one group: a
    /// full one where it lies, a short one padded with zero blocks.
    /// Lanes are fixed array slots: a loop over `blocks.len()` lanes
    /// left them in memory and measured ≈ 3× slower.
    fn encrypt_group(&self, blocks: &mut [u64]) {
        if let Ok(full) = <&mut [u64; LANES]>::try_from(&mut *blocks) {
            return self.encrypt_full(full);
        }
        let mut group = [0u64; LANES];
        group[..blocks.len()].copy_from_slice(blocks);
        self.encrypt_full(&mut group);
        blocks.copy_from_slice(&group[..blocks.len()]);
    }

    /// Encrypt every block of `blocks` in place, `LANES` at a time:
    /// ECB over words, or CTR keystream from a list of counters.
    pub fn encrypt_blocks(&self, blocks: &mut [u64]) {
        for group in blocks.chunks_mut(LANES) {
            self.encrypt_group(group);
        }
    }

    /// ECB-encrypt `buf` — whole big-endian blocks — in place.
    pub(crate) fn ecb_encrypt(&self, buf: &mut [u8]) {
        assert!(buf.len() % 8 == 0, "ECB runs over whole blocks");
        for group in buf.chunks_mut(8 * LANES) {
            let mut blocks = [0u64; LANES];
            for (block, bytes) in blocks.iter_mut().zip(group.chunks_exact(8)) {
                *block = u64::from_be_bytes(bytes.try_into().expect("8 bytes"));
            }
            self.encrypt_group(&mut blocks);
            for (block, bytes) in blocks.iter().zip(group.chunks_exact_mut(8)) {
                bytes.copy_from_slice(&block.to_be_bytes());
            }
        }
    }

    /// XTEA-CTR over a buffer of cells, each laid out `nonce(8) ‖ body`
    /// and ending at its entry of `ends` (an empty cell is skipped):
    /// every body is XORed with `E(nonce + 1) ‖ E(nonce + 2) ‖ …` of
    /// its own nonce. Its own inverse. All the cells' counters go
    /// through the kernel as one run, so short bodies still fill lanes.
    pub(crate) fn ctr_cells(&self, buf: &mut [u8], ends: &[u32]) {
        let cells = || {
            let mut start = 0;
            let bounds = ends.iter().map(move |&end| {
                let cell = start..end as usize;
                start = end as usize;
                cell
            });
            bounds.filter(|cell| !cell.is_empty())
        };
        let mut keystream = Vec::with_capacity(buf.len() / 8);
        for cell in cells() {
            assert!(cell.len() >= 8, "a randomized cell starts with its nonce");
            let nonce = &buf[cell.start..cell.start + 8];
            let nonce = u64::from_be_bytes(nonce.try_into().expect("8 bytes"));
            let body_blocks = (cell.len() - 8).div_ceil(8) as u64;
            keystream.extend((1..=body_blocks).map(|j| nonce.wrapping_add(j)));
        }
        self.encrypt_blocks(&mut keystream);
        let mut keystream = keystream.iter();
        for cell in cells() {
            for chunk in buf[cell.start + 8..cell.end].chunks_mut(8) {
                let pad = keystream.next().expect("one per body block").to_be_bytes();
                chunk.iter_mut().zip(pad).for_each(|(b, k)| *b ^= k);
            }
        }
    }

    /// Deterministic encryption: length-prefixed, zero-padded, ECB.
    pub fn det_encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut data = Vec::with_capacity((plaintext.len() + 4).next_multiple_of(8));
        det_frame(&mut data, |body| body.extend_from_slice(plaintext));
        self.ecb_encrypt(&mut data);
        data
    }

    /// Inverse of [`XteaSchedule::det_encrypt`]. `None` on malformed
    /// input.
    pub fn det_decrypt(&self, ciphertext: &[u8]) -> Option<Vec<u8>> {
        if ciphertext.is_empty() || ciphertext.len() % 8 != 0 {
            return None;
        }
        let mut data = Vec::with_capacity(ciphertext.len());
        for chunk in ciphertext.chunks_exact(8) {
            let block = u64::from_be_bytes(chunk.try_into().expect("8 bytes"));
            data.extend_from_slice(&self.decrypt_block(block).to_be_bytes());
        }
        let len = u32::from_be_bytes(data[..4].try_into().expect("4 bytes")) as usize;
        if len > data.len() - 4 {
            return None;
        }
        data.truncate(4 + len);
        data.drain(..4);
        Some(data)
    }

    /// Randomized encryption: 8-byte nonce ‖ XTEA-CTR keystream XOR.
    pub fn rnd_encrypt(&self, nonce: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + plaintext.len());
        out.extend_from_slice(&nonce.to_be_bytes());
        out.extend_from_slice(plaintext);
        let end = u32::try_from(out.len()).expect("a cell is shorter than 4 GiB");
        self.ctr_cells(&mut out, &[end]);
        out
    }

    /// Inverse of [`XteaSchedule::rnd_encrypt`].
    pub fn rnd_decrypt(&self, ciphertext: &[u8]) -> Option<Vec<u8>> {
        if ciphertext.len() < 8 {
            return None;
        }
        let end = u32::try_from(ciphertext.len()).ok()?;
        let mut out = ciphertext.to_vec();
        self.ctr_cells(&mut out, &[end]);
        out.drain(..8);
        Some(out)
    }
}

/// Append the deterministic scheme's plaintext frame to `out`:
/// `len(4, BE) ‖ body ‖ zero pad` to a whole number of blocks, the
/// body being whatever `write` appends. Frames are what
/// [`XteaSchedule::ecb_encrypt`] then encrypts, one cell or a column
/// of them at a time.
pub(crate) fn det_frame(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    write(out);
    let len = out.len() - at - 4;
    let prefix = u32::try_from(len).expect("a cell is shorter than 4 GiB");
    out[at..at + 4].copy_from_slice(&prefix.to_be_bytes());
    out.resize(at + (len + 4).next_multiple_of(8), 0);
}

/// Deterministic encryption: length-prefixed, zero-padded, ECB.
pub fn det_encrypt(key: &[u8; 16], plaintext: &[u8]) -> Vec<u8> {
    XteaSchedule::new(key).det_encrypt(plaintext)
}

/// Randomized encryption: 8-byte nonce ‖ XTEA-CTR keystream XOR.
pub fn rnd_encrypt(key: &[u8; 16], nonce: u64, plaintext: &[u8]) -> Vec<u8> {
    XteaSchedule::new(key).rnd_encrypt(nonce, plaintext)
}

/// Inverse of [`rnd_encrypt`].
pub fn rnd_decrypt(key: &[u8; 16], ciphertext: &[u8]) -> Option<Vec<u8>> {
    XteaSchedule::new(key).rnd_decrypt(ciphertext)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cipher as it stood before the lane kernel — one block at a
    /// time, round keys worked out inside the loop, a fresh `Vec` per
    /// cell — kept verbatim as the oracle: the kernel may change how
    /// fast a ciphertext is made, never a byte of it.
    mod reference {
        const ROUNDS: u32 = 32;
        const DELTA: u32 = 0x9e37_79b9;

        pub struct Schedule {
            k: [u32; 4],
        }

        impl Schedule {
            pub fn new(key: &[u8; 16]) -> Schedule {
                Schedule {
                    k: [
                        u32::from_le_bytes(key[0..4].try_into().expect("4 bytes")),
                        u32::from_le_bytes(key[4..8].try_into().expect("4 bytes")),
                        u32::from_le_bytes(key[8..12].try_into().expect("4 bytes")),
                        u32::from_le_bytes(key[12..16].try_into().expect("4 bytes")),
                    ],
                }
            }

            pub fn encrypt_block(&self, block: u64) -> u64 {
                let k = &self.k;
                let mut v0 = block as u32;
                let mut v1 = (block >> 32) as u32;
                let mut sum = 0u32;
                for _ in 0..ROUNDS {
                    v0 = v0.wrapping_add(
                        (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                            ^ (sum.wrapping_add(k[(sum & 3) as usize])),
                    );
                    sum = sum.wrapping_add(DELTA);
                    v1 = v1.wrapping_add(
                        (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                            ^ (sum.wrapping_add(k[((sum >> 11) & 3) as usize])),
                    );
                }
                (v0 as u64) | ((v1 as u64) << 32)
            }

            pub fn det_encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
                let mut data = Vec::with_capacity((plaintext.len() + 4).next_multiple_of(8));
                data.extend_from_slice(&(plaintext.len() as u32).to_be_bytes());
                data.extend_from_slice(plaintext);
                while data.len() % 8 != 0 {
                    data.push(0);
                }
                for chunk in data.chunks_exact_mut(8) {
                    let block = u64::from_be_bytes((&*chunk).try_into().expect("8 bytes"));
                    chunk.copy_from_slice(&self.encrypt_block(block).to_be_bytes());
                }
                data
            }

            pub fn rnd_encrypt(&self, nonce: u64, plaintext: &[u8]) -> Vec<u8> {
                let mut out = Vec::with_capacity(8 + plaintext.len());
                out.extend_from_slice(&nonce.to_be_bytes());
                for (i, chunk) in plaintext.chunks(8).enumerate() {
                    let keystream = self
                        .encrypt_block(nonce.wrapping_add(i as u64 + 1))
                        .to_be_bytes();
                    for (j, &b) in chunk.iter().enumerate() {
                        out.push(b ^ keystream[j]);
                    }
                }
                out
            }
        }
    }

    /// Bytes that differ from position to position and key to key.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect()
    }

    fn keys() -> [[u8; 16]; 3] {
        [
            [0; 16],
            [0xFF; 16],
            noise(7, 16).try_into().expect("16 bytes"),
        ]
    }

    #[test]
    fn the_kernel_matches_the_frozen_block_function() {
        for key in keys() {
            let (new, old) = (XteaSchedule::new(&key), reference::Schedule::new(&key));
            // Every block count around a multiple of the lane count.
            for count in 0..=3 * LANES + 1 {
                let plain: Vec<u64> = (0..count as u64)
                    .map(|i| i.wrapping_mul(0xdead_beef_cafe_f00d) ^ u64::MAX << (i % 64))
                    .collect();
                let want: Vec<u64> = plain.iter().map(|&b| old.encrypt_block(b)).collect();
                let mut blocks = plain.clone();
                new.encrypt_blocks(&mut blocks);
                assert_eq!(blocks, want, "{count} blocks");
                for (&p, &c) in plain.iter().zip(&want) {
                    assert_eq!(new.encrypt_block(p), c);
                    assert_eq!(new.decrypt_block(c), p);
                }
                let mut bytes: Vec<u8> = plain.iter().flat_map(|b| b.to_be_bytes()).collect();
                new.ecb_encrypt(&mut bytes);
                let want: Vec<u8> = want.iter().flat_map(|b| b.to_be_bytes()).collect();
                assert_eq!(bytes, want, "{count} blocks, ECB");
            }
        }
    }

    #[test]
    fn det_and_rnd_match_the_frozen_loops_at_every_length() {
        // Nonces whose counters wrap `u64` inside the first few blocks.
        let nonces = [
            0,
            1,
            0x0123_4567_89ab_cdef,
            u64::MAX - 3,
            u64::MAX - 1,
            u64::MAX,
        ];
        for key in keys() {
            let (new, old) = (XteaSchedule::new(&key), reference::Schedule::new(&key));
            for len in 0..=70 {
                let msg = noise(len as u64, len);
                let ct = new.det_encrypt(&msg);
                assert_eq!(ct, old.det_encrypt(&msg), "det, {len} bytes");
                assert_eq!(new.det_decrypt(&ct), Some(msg.clone()));
                for nonce in nonces {
                    let ct = new.rnd_encrypt(nonce, &msg);
                    assert_eq!(
                        ct,
                        old.rnd_encrypt(nonce, &msg),
                        "rnd, {len} bytes, {nonce:#x}"
                    );
                    assert_eq!(new.rnd_decrypt(&ct), Some(msg.clone()));
                }
            }
        }
    }

    /// Encrypt `cells` — a nonce and a body each, `None` for a NULL —
    /// as one ECB and one CTR run under `key`, and hold every cell to
    /// what the frozen loops make of it alone.
    fn check_column(key: &[u8; 16], cells: &[Option<(u64, Vec<u8>)>]) {
        let (new, old) = (XteaSchedule::new(key), reference::Schedule::new(key));
        let (mut det, mut rnd) = (Vec::new(), Vec::new());
        let (mut det_ends, mut rnd_ends) = (Vec::new(), Vec::new());
        for cell in cells {
            if let Some((nonce, cell)) = cell {
                det_frame(&mut det, |body| body.extend_from_slice(cell));
                rnd.extend_from_slice(&nonce.to_be_bytes());
                rnd.extend_from_slice(cell);
            }
            det_ends.push(det.len());
            rnd_ends.push(rnd.len() as u32);
        }
        new.ecb_encrypt(&mut det);
        new.ctr_cells(&mut rnd, &rnd_ends);
        let (mut det_at, mut rnd_at) = (0, 0);
        for (i, cell) in cells.iter().enumerate() {
            let (det_cell, rnd_cell) = (
                &det[det_at..det_ends[i]],
                &rnd[rnd_at..rnd_ends[i] as usize],
            );
            (det_at, rnd_at) = (det_ends[i], rnd_ends[i] as usize);
            match cell {
                None => assert!(det_cell.is_empty() && rnd_cell.is_empty()),
                Some((nonce, cell)) => {
                    assert_eq!(det_cell, old.det_encrypt(cell), "det cell {i}");
                    assert_eq!(rnd_cell, old.rnd_encrypt(*nonce, cell), "rnd cell {i}");
                }
            }
        }
    }

    /// A column is many cells in one buffer: whichever cells share a
    /// lane group, each comes out as it would alone.
    #[test]
    fn cells_encrypted_together_match_cells_encrypted_alone() {
        // Lengths chosen so block counts are no multiple of the lane
        // count, with NULLs (empty cells) in between; nonces on both
        // sides of the `u64` wrap.
        let cells: Vec<Option<(u64, Vec<u8>)>> = (0..37usize)
            .map(|i| {
                let nonce = (u64::MAX - 40).wrapping_add(i as u64 * 2);
                (i % 5 != 3).then(|| (nonce, noise(i as u64, i * 7 % 23)))
            })
            .collect();
        check_column(&keys()[2], &cells);
    }

    /// Seeded columns of 0–80 cells (0–70-byte bodies, NULLs between
    /// them, nonces on both sides of the `u64` wrap) through
    /// `check_column`, over runs that end with every leftover count and
    /// cells that straddle a group boundary.
    #[test]
    fn seeded_columns_match_the_frozen_loops_cell_by_cell() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        let mut rng = StdRng::seed_from_u64(45);
        let (mut ctr_tails, mut ecb_tails) = (BTreeSet::new(), BTreeSet::new());
        let mut straddling = 0;
        for _ in 0..400 {
            let cells: Vec<Option<(u64, Vec<u8>)>> = (0..rng.gen_range(0..=80))
                .map(|_| {
                    rng.gen_bool(0.8).then(|| {
                        let nonce = match rng.gen_bool(0.5) {
                            true => u64::MAX - rng.gen_range(0..12),
                            false => rng.gen(),
                        };
                        (nonce, noise(rng.gen(), rng.gen_range(0..=70)))
                    })
                })
                .collect();
            check_column(&noise(rng.gen(), 16).try_into().expect("16 bytes"), &cells);
            // Where each body's keystream and each frame sit in the runs.
            let (mut ctr, mut ecb) = (0, 0);
            for (_, body) in cells.iter().flatten() {
                let blocks = body.len().div_ceil(8);
                straddling += usize::from(blocks > 1 && ctr / LANES != (ctr + blocks - 1) / LANES);
                ctr += blocks;
                ecb += (body.len() + 4).div_ceil(8);
            }
            ctr_tails.insert(ctr % LANES);
            ecb_tails.insert(ecb % LANES);
        }
        let every_tail: BTreeSet<usize> = (0..LANES).collect();
        assert_eq!(ctr_tails, every_tail, "CTR runs end with every leftover");
        assert_eq!(ecb_tails, every_tail, "ECB runs end with every leftover");
        assert!(straddling > 0, "some cell straddles a group boundary");
    }

    #[test]
    fn block_roundtrip() {
        let schedule = XteaSchedule::new(&[3u8; 16]);
        for v in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(schedule.decrypt_block(schedule.encrypt_block(v)), v);
        }
    }

    #[test]
    fn block_is_keyed() {
        let k1 = [0u8; 16];
        let mut k2 = [0u8; 16];
        k2[15] = 1;
        assert_ne!(
            XteaSchedule::new(&k1).encrypt_block(42),
            XteaSchedule::new(&k2).encrypt_block(42)
        );
    }

    #[test]
    fn det_roundtrip_various_lengths() {
        let key = [9u8; 16];
        for len in 0..40 {
            let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = det_encrypt(&key, &msg);
            assert_eq!(ct.len() % 8, 0);
            assert_eq!(XteaSchedule::new(&key).det_decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn det_is_deterministic_and_injective() {
        let key = [5u8; 16];
        assert_eq!(det_encrypt(&key, b"stroke"), det_encrypt(&key, b"stroke"));
        assert_ne!(det_encrypt(&key, b"stroke"), det_encrypt(&key, b"strokf"));
        // Padding must not cause collisions between "a" and "a\0".
        assert_ne!(det_encrypt(&key, b"a"), det_encrypt(&key, b"a\0"));
    }

    #[test]
    fn rnd_roundtrip_and_nondeterminism() {
        let key = [1u8; 16];
        let msg = b"premium=250".to_vec();
        let c1 = rnd_encrypt(&key, 1111, &msg);
        let c2 = rnd_encrypt(&key, 2222, &msg);
        assert_ne!(c1, c2, "different nonces, different ciphertexts");
        assert_eq!(rnd_decrypt(&key, &c1).unwrap(), msg);
        assert_eq!(rnd_decrypt(&key, &c2).unwrap(), msg);
    }

    #[test]
    fn decrypt_rejects_malformed() {
        let key = [1u8; 16];
        assert!(XteaSchedule::new(&key).det_decrypt(&[1, 2, 3]).is_none());
        assert!(XteaSchedule::new(&key).det_decrypt(&[]).is_none());
        assert!(rnd_decrypt(&key, &[0; 4]).is_none());
    }

    #[test]
    fn wrong_key_garbles() {
        let k1 = [1u8; 16];
        let k2 = [2u8; 16];
        let ct = det_encrypt(&k1, b"secret");
        // Either fails to parse or yields different bytes.
        match XteaSchedule::new(&k2).det_decrypt(&ct) {
            None => {}
            Some(pt) => assert_ne!(pt, b"secret"),
        }
    }
}
