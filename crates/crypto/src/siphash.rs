//! SipHash-2-4 keyed pseudo-random function.
//!
//! Used as the PRF driving the order-preserving encoding's interval
//! splits and for deriving per-scheme sub-keys from a cluster key.

/// SipHash-2-4 internal state. [`siphash24`] drives it over a byte
/// string; callers with a fixed-shape message (the OPE descent) key it
/// once, copy it per call and feed whole words.
#[derive(Clone, Copy)]
pub(crate) struct SipState {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

impl SipState {
    /// The state after keying, before any message word.
    pub(crate) fn keyed(key: &[u8; 16]) -> SipState {
        let k0 = u64::from_le_bytes(key[0..8].try_into().expect("8 bytes"));
        let k1 = u64::from_le_bytes(key[8..16].try_into().expect("8 bytes"));
        SipState {
            v0: 0x736f_6d65_7073_6575 ^ k0,
            v1: 0x646f_7261_6e64_6f6d ^ k1,
            v2: 0x6c79_6765_6e65_7261 ^ k0,
            v3: 0x7465_6462_7974_6573 ^ k1,
        }
    }

    #[inline(always)]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    /// Absorb one little-endian message word (the last word carries
    /// the message length in its top byte).
    #[inline(always)]
    pub(crate) fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.round();
        self.v0 ^= m;
    }

    /// Finalization rounds and output.
    #[inline(always)]
    pub(crate) fn finish(mut self) -> u64 {
        self.v2 ^= 0xff;
        self.round();
        self.round();
        self.round();
        self.round();
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

/// SipHash-2-4 of `data` under a 128-bit key.
pub(crate) fn siphash24(key: &[u8; 16], data: &[u8]) -> u64 {
    let mut state = SipState::keyed(key);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        state.compress(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    let rest = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    last[7] = data.len() as u8;
    state.compress(u64::from_le_bytes(last));
    state.finish()
}

/// Derive a 16-byte sub-key for a labelled purpose from a cluster key.
pub fn derive_subkey(key: &[u8; 16], label: &str) -> [u8; 16] {
    let a = siphash24(key, label.as_bytes());
    let b = siphash24(key, &[label.as_bytes(), &[0x5a]].concat());
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Official SipHash-2-4 reference vectors (key 000102…0f, messages
    /// of increasing length 00 01 02 …).
    #[test]
    fn reference_vectors() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let expected: [u64; 8] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
            0x8567_6696_d7fb_7e2d,
            0xcf27_94e0_2771_87b7,
            0x1876_5564_cd99_a68d,
            0xcbc9_466e_58fe_e3ce,
            0xab02_00f5_8b01_d137,
        ];
        let msg: Vec<u8> = (0..15).map(|i| i as u8).collect();
        for (len, want) in expected.iter().enumerate() {
            assert_eq!(siphash24(&key, &msg[..len]), *want, "length {len}");
        }
        // Two-block messages: a full word, then the length-only /
        // one-byte / seven-byte final word.
        for (len, want) in [
            (8, 0x93f5_f579_9a93_2462_u64),
            (9, 0x9e00_82df_0ba9_e4b0),
            (15, 0xa129_ca61_49be_45e5),
        ] {
            assert_eq!(siphash24(&key, &msg[..len]), want, "length {len}");
        }
    }

    #[test]
    fn key_sensitivity() {
        let k1 = [0u8; 16];
        let mut k2 = [0u8; 16];
        k2[0] = 1;
        assert_ne!(siphash24(&k1, b"data"), siphash24(&k2, b"data"));
    }

    #[test]
    fn subkey_derivation_is_stable_and_distinct() {
        let k = [7u8; 16];
        assert_eq!(derive_subkey(&k, "det"), derive_subkey(&k, "det"));
        assert_ne!(derive_subkey(&k, "det"), derive_subkey(&k, "ope"));
    }
}
