//! A Det or OPE `Encrypt` over its own base scan encrypts the stored
//! column's dictionary — its distinct values — once, and gathers every
//! batch's cells by row code. Every output must be bit-identical to the
//! row oracle (`mpq_exec::rowref`) and to a plan that cannot take the
//! dictionary (the same `Encrypt` over a `Project`, which runs the
//! per-row path): unfused, under a fused σ with sparse survivors and
//! under a `Limit`, at batches of 1, 7 and 4,096 rows — errors, and
//! which row reports one, included.

use mpq_algebra::value::{DataType, EncScheme};
use mpq_algebra::{AttrId, Catalog, CmpOp, Date, Expr, Operator, QueryPlan, RelId, Value};
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_exec::rowref::execute_ref;
use mpq_exec::{execute, Database, ExecCtx, ExecError, SchemePlan, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The stored relation's columns: `k` is the plaintext filter column,
/// the others are encrypted one at a time. `nan` is `n` with one NaN,
/// which OPE refuses; `wide` holds one distinct value more than half
/// its rows, so it gets no dictionary.
const COLUMNS: [(&str, DataType); 8] = [
    ("k", DataType::Int),
    ("i", DataType::Int),
    ("n", DataType::Num),
    ("nan", DataType::Num),
    ("d", DataType::Date),
    ("s", DataType::Str),
    ("wide", DataType::Int),
    ("name", DataType::Str),
];

struct Fixture {
    cat: Catalog,
    rel: RelId,
    db: Database,
    /// The row holding `nan`'s NaN, if any.
    nan_row: Option<usize>,
}

fn fixture(rows: usize, seed: u64) -> Fixture {
    let mut cat = Catalog::new();
    let rel = cat.add_relation("T", &COLUMNS).expect("a fresh name");
    let mut rng = StdRng::seed_from_u64(seed);
    let ints = [i64::MIN, i64::MAX, 0, -1, 42];
    let nums = [0.0, -0.0, 1.5, -2.25, 1e300];
    let strs = ["", "a", "seventeen bytes!!", "seventeen bytes!?", "ü"];
    let nan_row = (rows > 0).then(|| rng.gen_range(0..rows));
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|r| {
            let n = nums[rng.gen_range(0..nums.len())];
            vec![
                Value::Int(rng.gen_range(0..8)),
                Value::Int(ints[rng.gen_range(0..ints.len())]),
                Value::Num(n),
                Value::Num(if Some(r) == nan_row { f64::NAN } else { n }),
                Value::Date(Date(rng.gen_range(9_000..9_020))),
                Value::str(strs[rng.gen_range(0..strs.len())]),
                Value::Int((r % (rows / 2 + 1)) as i64),
                Value::str(&format!("row{}", r % 3)),
            ]
        })
        .collect();
    let mut db = Database::new();
    db.load(&cat, "T", data);
    Fixture {
        cat,
        rel,
        db,
        nan_row,
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Plain,
    /// σ over the Encrypt on `k = 3`: footnote 2 fuses the two and
    /// encrypts the sparse survivors under their base-row offsets.
    Fused,
    Limit,
}

/// `shape` over `Encrypt(attr)` over the base scan — or, with
/// `project`, over a `Project` of it, which the dictionary cannot see
/// through.
fn plan(fx: &Fixture, attr: AttrId, shape: Shape, project: bool) -> QueryPlan {
    let attrs = fx.cat.relation("T").unwrap().attrs();
    let mut plan = QueryPlan::new();
    let mut input = plan.add_base(fx.rel, attrs.clone());
    if project {
        input = plan.add(Operator::Project { attrs }, vec![input]);
    }
    let enc = plan.add(Operator::Encrypt { attrs: vec![attr] }, vec![input]);
    let k = fx.cat.attr("k").unwrap();
    match shape {
        Shape::Plain => {}
        Shape::Fused => {
            let pred = Expr::Cmp(
                Box::new(Expr::Col(k)),
                CmpOp::Eq,
                Box::new(Expr::Lit(Value::Int(3))),
            );
            plan.add(Operator::Select { pred }, vec![enc]);
        }
        Shape::Limit => {
            plan.add(Operator::Limit { n: 5 }, vec![enc]);
        }
    }
    plan
}

fn ring() -> KeyRing {
    let ring = KeyRing::new();
    ring.insert(ClusterKey::generate(&mut StdRng::seed_from_u64(7), 1, 256));
    ring
}

/// Run every shape at every batch size and hold the dictionary path to
/// the per-row path and to the oracle. `fails` says whether a row of
/// the column cannot be encrypted: the oracle encrypts every row, so it
/// is then only the reference for the unfused shape.
fn check(fx: &Fixture, name: &str, scheme: EncScheme, fails: bool) -> Result<Table, ExecError> {
    let attr = fx.cat.attr(name).unwrap();
    let mut schemes = SchemePlan::default();
    schemes.set(attr, scheme);
    let koa = HashMap::from([(attr, 1u32)]);
    let ring = ring();
    let mut plain = None;
    for shape in [Shape::Plain, Shape::Fused, Shape::Limit] {
        let (dict_plan, row_plan) = (plan(fx, attr, shape, false), plan(fx, attr, shape, true));
        for batch_rows in [1, 7, 4096] {
            let ctx = ExecCtx::builder(&fx.cat, &fx.db, &ring, &schemes, &koa)
                .seed(11)
                .batch_rows(batch_rows)
                .build();
            let what = format!("{name} under {scheme:?}, {shape:?}, batches of {batch_rows}");
            let got = execute(&dict_plan, &ctx);
            // Compared as printed: a NaN cell is not `==` itself, and
            // the print tells -0.0 from 0.0 and shows every byte.
            let same = |other: Result<Table, ExecError>| format!("{got:?}") == format!("{other:?}");
            assert!(same(execute(&row_plan, &ctx)), "{what}: per-row path");
            if !fails || shape == Shape::Plain {
                assert!(same(execute_ref(&dict_plan, &ctx)), "{what}: row oracle");
            }
            if shape == Shape::Plain {
                plain = Some(got);
            }
        }
    }
    plain.expect("the plain shape ran")
}

#[test]
fn dictionary_ciphertexts_are_the_row_walks() {
    for (rows, seed) in [(0, 1), (40, 2), (300, 3), (1_000, 4)] {
        let fx = fixture(rows, seed);
        for scheme in [EncScheme::Deterministic, EncScheme::Ope] {
            for name in ["i", "n", "d", "wide"] {
                let out = check(&fx, name, scheme, false).expect("the column encrypts");
                assert_eq!(out.len(), rows);
            }
        }
        // Det takes strings and NaN.
        for name in ["s", "name", "nan"] {
            check(&fx, name, EncScheme::Deterministic, false).expect("Det encrypts it");
        }
        // Every encrypted column but the one above the half-distinct
        // line got a dictionary (an empty relation loads untyped).
        let dictionary = |name: &str| {
            let attr = fx.cat.attr(name).unwrap();
            fx.db.dictionary_codes(fx.rel, attr).map(<[u32]>::len)
        };
        for name in ["i", "n", "nan", "d", "s", "name"] {
            let want = (rows > 0).then_some(rows);
            assert_eq!(dictionary(name), want, "{name} over {rows} rows");
        }
        assert_eq!(dictionary("wide"), None, "{rows} rows");
        assert_eq!(dictionary("k"), None, "k is never encrypted");
    }
}

#[test]
fn a_failing_dictionary_leaves_the_row_walks_error() {
    let fx = fixture(300, 5);
    // OPE over strings: the row walk's typed error, from the first row.
    match check(&fx, "s", EncScheme::Ope, true) {
        Err(ExecError::Crypto(msg)) => assert!(msg.contains("strings"), "{msg}"),
        other => panic!("OPE over a string column: {other:?}"),
    }
    // OPE over the column with one NaN: only the plain shape reaches it
    // at every batch size; a fused σ that drops that row fails nowhere.
    assert!(check(&fx, "nan", EncScheme::Ope, true).is_err());
    let nan_row = fx.nan_row.expect("300 rows hold the NaN");
    let k = fx.cat.attr("k").unwrap();
    let table = fx.db.table(fx.rel).unwrap();
    let k_at_nan = table.value(table.col_index(k).unwrap(), nan_row);
    let nan = fx.cat.attr("nan").unwrap();
    let mut schemes = SchemePlan::default();
    schemes.set(nan, EncScheme::Ope);
    let koa = HashMap::from([(nan, 1u32)]);
    let ring = ring();
    let ctx = ExecCtx::builder(&fx.cat, &fx.db, &ring, &schemes, &koa).build();
    let fused = execute(&plan(&fx, nan, Shape::Fused, false), &ctx);
    if k_at_nan == Value::Int(3) {
        assert!(fused.is_err(), "the σ keeps the NaN row");
    } else {
        assert!(!fused.expect("the σ drops the NaN row").is_empty());
    }
}
