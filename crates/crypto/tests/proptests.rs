//! Property-based tests for the cryptographic substrate.

use mpq_algebra::value::EncScheme;
use mpq_algebra::{Date, Value};
use mpq_crypto::bignum::BigUint;
use mpq_crypto::keyring::ClusterKey;
use mpq_crypto::ope;
use mpq_crypto::schemes::{decrypt_value, encrypt_value};
use mpq_crypto::sha256::sha256;
use mpq_crypto::xtea::{self, XteaSchedule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bignum ring laws against the u128 oracle.
    #[test]
    fn bignum_ring_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (ba, bb, bc) = (
            BigUint::from_u64(a),
            BigUint::from_u64(b),
            BigUint::from_u64(c),
        );
        // Commutativity and associativity of addition.
        prop_assert_eq!(ba.add(&bb), bb.add(&ba));
        prop_assert_eq!(ba.add(&bb).add(&bc), ba.add(&bb.add(&bc)));
        // Distributivity.
        prop_assert_eq!(
            ba.mul(&bb.add(&bc)),
            ba.mul(&bb).add(&ba.mul(&bc))
        );
        // Division identity: a = q·b + r with r < b.
        if b != 0 {
            let (q, r) = ba.divmod(&bb);
            prop_assert!(r < bb);
            prop_assert_eq!(q.mul(&bb).add(&r), ba);
        }
    }

    /// XTEA deterministic encryption is a bijection on byte strings.
    #[test]
    fn xtea_det_roundtrip(key in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..200)) {
        let ct = xtea::det_encrypt(&key, &msg);
        prop_assert_eq!(XteaSchedule::new(&key).det_decrypt(&ct).unwrap(), msg);
    }

    /// XTEA randomized encryption round-trips under any nonce.
    #[test]
    fn xtea_rnd_roundtrip(key in any::<[u8; 16]>(), nonce in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..200)) {
        let ct = xtea::rnd_encrypt(&key, nonce, &msg);
        prop_assert_eq!(xtea::rnd_decrypt(&key, &ct).unwrap(), msg);
    }

    /// OPE strictly preserves order and round-trips, for any key.
    #[test]
    fn ope_order_and_roundtrip(key in any::<[u8; 16]>(), a in any::<u64>(), b in any::<u64>()) {
        let ca = ope::ope_encrypt_code(&key, a);
        let cb = ope::ope_encrypt_code(&key, b);
        prop_assert_eq!(a.cmp(&b), ca.cmp(&cb));
        prop_assert_eq!(ope::ope_decrypt_code(&key, ca), Some(a));
    }

    /// SHA-256 behaves as a function and is sensitive to single-byte
    /// changes.
    #[test]
    fn sha256_function_and_sensitivity(mut msg in proptest::collection::vec(any::<u8>(), 1..300), flip in any::<u8>()) {
        let d1 = sha256(&msg);
        prop_assert_eq!(sha256(&msg), d1);
        let i = flip as usize % msg.len();
        msg[i] ^= 0xff;
        prop_assert_ne!(sha256(&msg), d1);
    }

    /// Value-level encryption round-trips for every scheme that
    /// supports the value type.
    #[test]
    fn value_roundtrip(seed in any::<u64>(), iv in any::<i64>(), nv in -1e12_f64..1e12, dv in -30_000i32..60_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = ClusterKey::generate(&mut rng, 1, 256);
        let values = [
            Value::Int(iv),
            Value::Num((nv * 100.0).round() / 100.0),
            Value::Date(Date(dv)),
        ];
        for v in &values {
            for scheme in [EncScheme::Deterministic, EncScheme::Random, EncScheme::Ope] {
                let enc = encrypt_value(&mut rng, v, scheme, &key).unwrap();
                let dec = decrypt_value(&enc, &key).unwrap();
                prop_assert!(dec.sql_eq(v), "{scheme:?} over {v:?} gave {dec:?}");
            }
        }
        // Paillier (numerics only, fixed-point at 4 decimal digits).
        let small = Value::Num(((nv % 1e6) * 100.0).round() / 100.0);
        let enc = encrypt_value(&mut rng, &small, EncScheme::Paillier, &key).unwrap();
        let dec = decrypt_value(&enc, &key).unwrap();
        let (a, b) = (small.as_num().unwrap(), dec.as_num().unwrap());
        prop_assert!((a - b).abs() < 1e-3, "Paillier {a} vs {b}");
    }

    /// Deterministic ciphertext equality mirrors plaintext equality.
    #[test]
    fn det_equality_mirrors_plaintext(seed in any::<u64>(), a in any::<i64>(), b in any::<i64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = ClusterKey::generate(&mut rng, 2, 256);
        let ea = encrypt_value(&mut rng, &Value::Int(a), EncScheme::Deterministic, &key).unwrap();
        let eb = encrypt_value(&mut rng, &Value::Int(b), EncScheme::Deterministic, &key).unwrap();
        prop_assert_eq!(ea.sql_eq(&eb), a == b);
    }
}
