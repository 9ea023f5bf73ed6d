//! Microbenchmarks for expression evaluation: the column evaluator the
//! engine runs against the row walk the oracle keeps.
//!
//! `cargo bench -p mpq-exec --bench expr` (CI runs this in the
//! `bench-smoke` job). Four expressions the TPC-H workloads spend their
//! time in, each over 65,536 generated rows — the printed time ÷ 65,536
//! is the cost per row:
//!
//! * `q6_pred` — Q6's predicate: two date bounds, a `BETWEEN` and a
//!   `<` under one `AND`;
//! * `q1_charge` — Q1's `l_extendedprice * (1 - l_discount) * (1 + l_tax)`;
//! * `q14_promo` — Q14's `CASE WHEN p_type LIKE 'PROMO%' THEN … ELSE 0`;
//! * `det_eq` — a provider's equality of a Deterministic column against
//!   a rewritten literal.
//!
//! `*/column` evaluates batch by batch (4,096 rows, as the engine
//! does); `*/row` walks the same rows, already materialized, through
//! `eval`. The ratio between the two is what moving the operators onto
//! the column evaluator bought; absolute numbers swing with machine
//! load.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mpq_algebra::value::EncScheme;
use mpq_algebra::{ArithOp, AttrId, CmpOp, Date, Expr, Value};
use mpq_crypto::keyring::ClusterKey;
use mpq_crypto::schemes::encrypt_batch;
use mpq_exec::eval::{eval, eval_column, eval_mask, RowCtx};
use mpq_exec::{Table, DEFAULT_BATCH_ROWS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 65_536;

const SHIPDATE: AttrId = AttrId(0);
const DISCOUNT: AttrId = AttrId(1);
const QUANTITY: AttrId = AttrId(2);
const PRICE: AttrId = AttrId(3);
const TAX: AttrId = AttrId(4);
const PTYPE: AttrId = AttrId(5);
const MODE: AttrId = AttrId(6);

fn lit(v: Value) -> Expr {
    Expr::Lit(v)
}

fn date(s: &str) -> Expr {
    lit(Value::Date(Date::parse(s).expect("a date")))
}

/// A lineitem-shaped relation in `DEFAULT_BATCH_ROWS` batches, and the
/// same rows materialized. `MODE` is a Deterministic ciphertext column;
/// the literal it is compared with comes back beside it.
fn generate() -> (Vec<Table>, Vec<Vec<Value>>, Vec<AttrId>, Value) {
    let rng = &mut StdRng::seed_from_u64(2026);
    let key = ClusterKey::generate(rng, 1, 512);
    let modes = ["MAIL", "SHIP", "AIR", "RAIL", "TRUCK", "FOB", "REG AIR"];
    let types = [
        "PROMO BRUSHED TIN",
        "STANDARD POLISHED BRASS",
        "ECONOMY ANODIZED STEEL",
    ];
    let first_day = Date::parse("1992-01-01").expect("a date").0;
    let attrs = vec![SHIPDATE, DISCOUNT, QUANTITY, PRICE, TAX, PTYPE, MODE];
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|_| {
            let mode = Value::str(modes[rng.gen_range(0..modes.len())]);
            let mode = encrypt_batch(rng, &[mode], EncScheme::Deterministic, &key).expect("a key");
            vec![
                Value::Date(Date(first_day + rng.gen_range(0..2_500))),
                Value::Num(f64::from(rng.gen_range(0..11)) / 100.0),
                Value::Num(f64::from(rng.gen_range(1..51))),
                Value::Num(f64::from(rng.gen_range(90_000..10_000_000)) / 100.0),
                Value::Num(f64::from(rng.gen_range(0..9)) / 100.0),
                Value::str(types[rng.gen_range(0..types.len())]),
                mode[0].clone(),
            ]
        })
        .collect();
    let batches = rows
        .chunks(DEFAULT_BATCH_ROWS)
        .map(|chunk| Table::from_rows(attrs.clone(), chunk.to_vec()))
        .collect();
    let mail = encrypt_batch(rng, &[Value::str("MAIL")], EncScheme::Deterministic, &key);
    (batches, rows, attrs, mail.expect("a key")[0].clone())
}

fn bench_expr(c: &mut Criterion) {
    let (batches, rows, attrs, mail) = generate();
    let one = |op, e| Expr::arith(lit(Value::Int(1)), op, e);
    let revenue = Expr::arith(
        Expr::Col(PRICE),
        ArithOp::Mul,
        one(ArithOp::Sub, Expr::Col(DISCOUNT)),
    );
    let q6_pred = Expr::And(vec![
        Expr::cmp(Expr::Col(SHIPDATE), CmpOp::Ge, date("1994-01-01")),
        Expr::cmp(Expr::Col(SHIPDATE), CmpOp::Lt, date("1995-01-01")),
        Expr::Between {
            expr: Box::new(Expr::Col(DISCOUNT)),
            lo: Box::new(lit(Value::Num(0.05))),
            hi: Box::new(lit(Value::Num(0.07))),
            negated: false,
        },
        Expr::cmp(Expr::Col(QUANTITY), CmpOp::Lt, lit(Value::Int(24))),
    ]);
    let q1_charge = Expr::arith(
        revenue.clone(),
        ArithOp::Mul,
        one(ArithOp::Add, Expr::Col(TAX)),
    );
    let q14_promo = Expr::Case {
        branches: vec![(
            Expr::Like {
                expr: Box::new(Expr::Col(PTYPE)),
                pattern: "PROMO%".into(),
                negated: false,
            },
            revenue,
        )],
        else_: Some(Box::new(lit(Value::Int(0)))),
    };
    let det_eq = Expr::col_eq(MODE, mail);

    for (name, expr, is_pred) in [
        ("q6_pred", &q6_pred, true),
        ("q1_charge", &q1_charge, false),
        ("q14_promo", &q14_promo, false),
        ("det_eq", &det_eq, true),
    ] {
        let mut g = c.benchmark_group(name);
        g.bench_function("column", |b| {
            b.iter(|| {
                for batch in &batches {
                    if is_pred {
                        black_box(eval_mask(expr, batch, None, 0..batch.len()).expect("evaluates"));
                    } else {
                        black_box(eval_column(expr, batch, None));
                    }
                }
            })
        });
        g.bench_function("row", |b| {
            b.iter(|| {
                for row in &rows {
                    black_box(eval(expr, &RowCtx::plain(&attrs, row)).expect("evaluates"));
                }
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_expr);
criterion_main!(benches);
