//! Microbenchmarks for the crypto primitives under the §7 cost model.
//!
//! `cargo bench -p mpq-crypto --bench primitives` (CI runs this in the
//! `bench-smoke` job so the kernel, division and CRT wins stay visible
//! in the job summary). The headline numbers:
//!
//! * `bignum/*` — the word-level division under every `rem`:
//!   `divmod_512_by_256` (a 512-bit value by a 256-bit one, as `load`
//!   reduces a Paillier-256 ciphertext by `p²`), and
//!   `montgomery_new_128` / `montgomery_new_512`, a context's setup
//!   (one division for `R² mod m`) at a session prime's and an RSA-512
//!   modulus's width; `gen_prime_128`, one seeded 128-bit prime search
//!   (trial division, then Miller–Rabin on the fixed-width engine — a
//!   cold cluster pays two), and `mr_round_128`, one witness on a
//!   reused context;
//! * `modpow/*` — the modular exponentiation every RSA envelope and
//!   Paillier cell sits on: 512-bit, with and without a reused
//!   [`Montgomery`] context, and `256bit_half_exp`, a reused context
//!   over a 256-bit modulus with a 128-bit exponent — the shape of one
//!   half of a key holder's Paillier-256 encryption;
//! * `paillier/*` — per-value encrypt/decrypt/add. `encrypt_256` and
//!   `decrypt_256` are the key holder's paths at the modulus sessions
//!   generate (`mpq_dist`'s `PAILLIER_BITS`), the ones every encrypted
//!   SUM/AVG cell takes; the rest are at 512 bits: `encrypt_512` the
//!   holder's path, `encrypt_512_public` the textbook routine beside
//!   it, and `decrypt_512` / `add_512`. Both decryptions run by CRT;
//! * `rsa/*` — at the envelope key size (512 bits): `sign_512` and
//!   `open_512` are the sender's and the recipient's private operation
//!   (by CRT; `open_512` also decrypts and verifies one envelope),
//!   `verify_512` the public one on the key's cached context — with
//!   `e = 65537` the sliding window builds no table: 16 squarings and
//!   one product;
//! * `xtea/*` — how wide the kernel runs: `block` is one block alone
//!   (a 64-round dependency chain), `det_value` one string cell
//!   through `det_encrypt` and `rnd_cell` one 9-byte body through
//!   `rnd_encrypt` (two blocks), each in one padded 16-lane group;
//!   `blocks_lanes` 4,096 blocks through `encrypt_blocks` (256
//!   groups); `column_det`, `column_rnd` and `column_det_strings`
//!   4,096 cells through `encrypt_batch`, and
//!   `column_rnd_decrypt` 4,096 Random cells through
//!   `ColumnCipher::decrypt_random_column`, one CTR run (÷ 4,096 for
//!   per-block or per-cell time);
//! * `ope/encode`, `ope/decode` — one isolated 64-level keyed descent;
//!   `ope/column_*` — a run per regime through
//!   `ColumnCipher::encrypt_column`, which descends each distinct code
//!   once in ascending order (per-cell time is the printed time ÷ the
//!   run's 4,096 cells, or 2,526 for `column_dictionary_dates`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mpq_algebra::value::{EncScheme, Value};
use mpq_algebra::Date;
use mpq_crypto::bignum::{BigUint, Montgomery};
use mpq_crypto::keyring::ClusterKey;
use mpq_crypto::rsa::{RsaKeypair, SignedEnvelope};
use mpq_crypto::schemes::{decrypt_value, encrypt_batch, paillier_add_cells, ColumnCipher};
use mpq_crypto::xtea::XteaSchedule;
use mpq_crypto::{ope, xtea};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_bignum(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let p = BigUint::gen_prime(&mut rng, 128);
    let n = p.mul(&BigUint::gen_prime(&mut rng, 128));
    let u = BigUint::random_below(&mut rng, &n.mul(&n));
    let rsa = BigUint::gen_prime(&mut rng, 256).mul(&BigUint::gen_prime(&mut rng, 256));
    let mut g = c.benchmark_group("bignum");
    g.bench_function("divmod_512_by_256", |b| {
        b.iter(|| black_box(&u).divmod(black_box(&n)))
    });
    g.bench_function("montgomery_new_128", |b| {
        b.iter(|| Montgomery::new(black_box(&p)))
    });
    g.bench_function("montgomery_new_512", |b| {
        b.iter(|| Montgomery::new(black_box(&rsa)))
    });
    // One seeded 128-bit prime search (a session's Paillier factor), and
    // one Miller–Rabin witness under a reused context over a 128-bit
    // prime: a round every accepted candidate pays twenty times.
    g.bench_function("gen_prime_128", |b| {
        b.iter(|| BigUint::gen_prime(&mut StdRng::seed_from_u64(black_box(5)), 128))
    });
    let ctx = Montgomery::new(&p).expect("odd");
    let witness = BigUint::random_below(&mut rng, &p);
    g.bench_function("mr_round_128", |b| {
        b.iter(|| ctx.miller_rabin(black_box(&witness)))
    });
    g.finish();
}

fn bench_modpow(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let p = BigUint::gen_prime(&mut rng, 256);
    let q = BigUint::gen_prime(&mut rng, 256);
    let n = p.mul(&q); // 512-bit odd modulus
    let base = BigUint::random_below(&mut rng, &n);
    let exp = BigUint::random_below(&mut rng, &n);
    let mut g = c.benchmark_group("modpow");
    g.bench_function("512bit_one_shot", |b| {
        b.iter(|| black_box(&base).modpow(black_box(&exp), black_box(&n)))
    });
    let ctx = Montgomery::new(&n).expect("odd");
    g.bench_function("512bit_reused_ctx", |b| {
        b.iter(|| ctx.pow(black_box(&base), black_box(&exp)))
    });
    // A 256-bit odd modulus and a 128-bit exponent: `p²` and `p` in
    // each half of `PaillierKeypair::encrypt` at 256 bits.
    let half = Montgomery::new(&p).expect("odd");
    let short = BigUint::gen_prime(&mut rng, 128);
    let base = BigUint::random_below(&mut rng, &p);
    g.bench_function("256bit_half_exp", |b| {
        b.iter(|| half.pow(black_box(&base), black_box(&short)))
    });
    g.finish();
}

fn bench_paillier(c: &mut Criterion) {
    let key = ClusterKey::generate(&mut StdRng::seed_from_u64(7), 1, 512);
    let mut rng = StdRng::seed_from_u64(9);
    let mut g = c.benchmark_group("paillier");
    g.bench_function("encrypt_512", |b| {
        b.iter(|| {
            encrypt_batch(&mut rng, &[Value::Int(12_345)], EncScheme::Paillier, &key).unwrap()
        })
    });
    let pk = key.paillier_public();
    let m = pk.encode_signed(12_345);
    g.bench_function("encrypt_512_public", |b| {
        b.iter(|| pk.encrypt(&mut rng, black_box(&m)))
    });
    let session_key = ClusterKey::generate(&mut StdRng::seed_from_u64(7), 1, 256);
    g.bench_function("encrypt_256", |b| {
        b.iter(|| {
            encrypt_batch(
                &mut rng,
                &[Value::Int(12_345)],
                EncScheme::Paillier,
                &session_key,
            )
            .unwrap()
        })
    });
    let session_cell = encrypt_batch(
        &mut rng,
        &[Value::Int(12_345)],
        EncScheme::Paillier,
        &session_key,
    )
    .unwrap();
    g.bench_function("decrypt_256", |b| {
        b.iter(|| decrypt_value(black_box(&session_cell[0]), &session_key).unwrap())
    });
    let cells = encrypt_batch(
        &mut rng,
        &[Value::Int(1), Value::Int(2)],
        EncScheme::Paillier,
        &key,
    )
    .unwrap();
    g.bench_function("decrypt_512", |b| {
        b.iter(|| decrypt_value(black_box(&cells[0]), &key).unwrap())
    });
    let (a, b_cell) = match (&cells[0], &cells[1]) {
        (Value::Enc(a), Value::Enc(b)) => (a.clone(), b.clone()),
        _ => unreachable!("encrypted above"),
    };
    g.bench_function("add_512", |b| {
        b.iter(|| paillier_add_cells(black_box(&a), black_box(&b_cell), &pk).unwrap())
    });
    g.finish();
}

fn bench_rsa(c: &mut Criterion) {
    let key = RsaKeypair::generate(&mut StdRng::seed_from_u64(11), 512);
    let message = [0x71u8; 256];
    let signature = key.sign(&message);
    let mut g = c.benchmark_group("rsa");
    g.bench_function("sign_512", |b| b.iter(|| key.sign(black_box(&message))));
    g.bench_function("verify_512", |b| {
        b.iter(|| {
            key.public
                .verify(black_box(&message), black_box(&signature))
        })
    });
    let sender = RsaKeypair::generate(&mut StdRng::seed_from_u64(12), 512);
    let envelope = SignedEnvelope::seal(
        &mut StdRng::seed_from_u64(13),
        &message,
        &sender,
        &key.public,
    );
    g.bench_function("open_512", |b| {
        b.iter(|| black_box(&envelope).open(&key, &sender.public).unwrap())
    });
    g.finish();
}

fn bench_xtea(c: &mut Criterion) {
    let key = [7u8; 16];
    let schedule = XteaSchedule::new(&key);
    let mut g = c.benchmark_group("xtea");
    g.bench_function("block", |b| {
        b.iter(|| schedule.encrypt_block(black_box(0xdead_beef_cafe_f00d)))
    });
    let value = Value::str("a-typical-string-cell").canonical_bytes();
    g.bench_function("det_value", |b| {
        b.iter(|| schedule.det_encrypt(black_box(&value)))
    });
    g.bench_function("det_value_one_shot_key", |b| {
        b.iter(|| xtea::det_encrypt(black_box(&key), black_box(&value)))
    });
    // A lone fixed-width cell: an 8-byte nonce and a 9-byte body, i.e.
    // two keystream blocks in one padded group.
    let body = Value::Int(-42).canonical_bytes();
    assert_eq!(body.len(), 9);
    g.bench_function("rnd_cell", |b| {
        b.iter(|| schedule.rnd_encrypt(black_box(0x0123_4567_89ab_cdef), black_box(&body)))
    });
    // 4,096 independent blocks through the lane kernel (÷ 4,096 for
    // per-block, against `xtea/block`: the one-at-a-time dependency
    // chain).
    let mut blocks: Vec<u64> = (0..4096).collect();
    g.bench_function("blocks_lanes", |b| {
        b.iter(|| schedule.encrypt_blocks(black_box(&mut blocks)))
    });
    // One engine batch (4,096 cells) through `encrypt_batch`, i.e. the
    // column entry plus one `Value::Enc` per cell for the caller:
    // fixed-width cells under both symmetric schemes, and strings of
    // TPC-H widths (÷ 4,096 for per-cell).
    let cluster = ClusterKey::generate(&mut StdRng::seed_from_u64(13), 1, 256);
    let mut rng = StdRng::seed_from_u64(19);
    let ints: Vec<Value> = (0..4096).map(|_| Value::Int(rng.gen())).collect();
    let strings: Vec<Value> = (0..4096)
        .map(|i| Value::str(&"Customer#000012345 ".repeat(3)[..10 + i % 40]))
        .collect();
    for (name, column, scheme) in [
        ("column_det", &ints, EncScheme::Deterministic),
        ("column_rnd", &ints, EncScheme::Random),
        ("column_det_strings", &strings, EncScheme::Deterministic),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| encrypt_batch(&mut rng, black_box(column), scheme, &cluster).unwrap())
        });
    }
    // The user's side of a Random column: one batch decrypted as one run.
    let cipher = ColumnCipher::new(EncScheme::Random, &cluster);
    let column = cipher.encrypt_column(&ints, &mut rng).unwrap();
    g.bench_function("column_rnd_decrypt", |b| {
        b.iter(|| cipher.decrypt_random_column(black_box(&column)).unwrap())
    });
    g.finish();
}

fn bench_ope(c: &mut Criterion) {
    let raw = [9u8; 16];
    let mut g = c.benchmark_group("ope");
    g.bench_function("encode", |b| {
        b.iter(|| ope::ope_encrypt_code(black_box(&raw), black_box(0x1234_5678_9abc_def0)))
    });
    let cipher = ope::ope_encrypt_code(&raw, 0x1234_5678_9abc_def0);
    g.bench_function("decode", |b| {
        b.iter(|| ope::ope_decrypt_code(black_box(&raw), black_box(cipher)))
    });
    // One engine batch (4,096 cells) as the engine runs it, through
    // `ColumnCipher::encrypt_column` (no `Value` per cell), in the
    // regimes it meets: dates (≈ 2,500 distinct days: a dense run, its
    // days sorted by the code table), integers spanning just past the
    // dense bound of 4 × 4,096 values (the same shape through the
    // comparison sort), a low-cardinality numeric (11 distinct codes,
    // sorted) and all-distinct prices (one descent per cell, which the
    // §7 price book prices). `column_dictionary_dates` is the run a
    // stored date column's dictionary hands the cipher: each of the
    // 2,526 days once, in the order of first appearance.
    let key = ClusterKey::generate(&mut StdRng::seed_from_u64(13), 1, 256);
    let cipher = ColumnCipher::new(EncScheme::Ope, &key);
    let mut rng = StdRng::seed_from_u64(17);
    let dates: Vec<Value> = (0..4096)
        .map(|_| Value::Date(Date(8035 + rng.gen_range(0..2526))))
        .collect();
    let mut wide: Vec<Value> = (0..4096)
        .map(|_| Value::Int(rng.gen_range(0..=4 * 4096)))
        .collect();
    wide[..2].clone_from_slice(&[Value::Int(0), Value::Int(4 * 4096)]);
    let lowcard: Vec<Value> = (0..4096)
        .map(|_| Value::Num(f64::from(rng.gen_range(0..11)) / 100.0))
        .collect();
    let distinct: Vec<Value> = (0..4096)
        .map(|i| Value::Num(901.0 + f64::from(i) * 25.01))
        .collect();
    let mut seen = [false; 2526];
    let dictionary: Vec<Value> = std::iter::repeat_with(|| rng.gen_range(0..2526))
        .filter(|&d| !std::mem::replace(&mut seen[d as usize], true))
        .take(2526)
        .map(|d| Value::Date(Date(8035 + d)))
        .collect();
    for (name, column) in [
        ("column_dates", &dates),
        ("column_ints_wide", &wide),
        ("column_lowcard", &lowcard),
        ("column_distinct", &distinct),
        ("column_dictionary_dates", &dictionary),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| cipher.encrypt_column(black_box(column), &mut rng).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_bignum,
    bench_modpow,
    bench_paillier,
    bench_rsa,
    bench_xtea,
    bench_ope
);
criterion_main!(benches);
