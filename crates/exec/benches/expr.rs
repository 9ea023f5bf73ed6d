//! Microbenchmarks for expression evaluation — the column evaluator the
//! engine runs against the row walk the oracle keeps — and for the hash
//! operators.
//!
//! `cargo bench -p mpq-exec --bench expr` (CI runs this in the
//! `bench-smoke` job). Eight expressions the TPC-H workloads spend their
//! time in, each over 65,536 generated rows — the printed time ÷ 65,536
//! is the cost per row:
//!
//! * `q6_pred` — Q6's predicate: two date bounds, a `BETWEEN` and a
//!   `<` under one `AND`;
//! * `q1_charge` — Q1's `l_extendedprice * (1 - l_discount) * (1 + l_tax)`;
//! * `q14_promo` — Q14's `CASE WHEN p_type LIKE 'PROMO%' THEN … ELSE 0`;
//! * `det_eq` — a provider's equality of a Deterministic column against
//!   a rewritten literal;
//! * `str/eq_literal` — Q10's `l_returnflag = 'R'` over a typed string
//!   column;
//! * `str/in_list` — Q12's `l_shipmode IN ('MAIL', 'SHIP')`;
//! * `date/range` — Q6's two `l_shipdate` bounds over a typed date
//!   column;
//! * `sel/q12_pred` — Q12's whole σ: the `l_shipmode` `IN`, two date
//!   columns against each other twice, and two `l_receiptdate` bounds
//!   under one `AND`.
//!
//! `*/column` evaluates batch by batch (4,096 rows, as the engine
//! does); `*/row` walks the same rows, already materialized, through
//! `eval`. The ratio between the two is what moving the operators onto
//! the column evaluator bought; absolute numbers swing with machine
//! load.
//!
//! `gamma/q1_inputs` is what Q1's γ evaluates before it folds: its
//! eight aggregate inputs — four columns, `disc_price`, `charge` and
//! `COUNT(*)`'s literal `1` — through `eval_column`, batch by batch.
//!
//! `scan/q1_columns` is what a scan and a selection cost before any
//! expression runs: Q1's seven lineitem columns (two strings, a date,
//! four numerics) sliced into 4,096-row batches and each batch gathered
//! on a precomputed selection that keeps ~98 % of its rows, as Q1's
//! `l_shipdate <= …` does.
//!
//! The `hash/*` arms run a whole ⋈ or γ through `execute` (4,096-row
//! batches) — the key table under both: key columns
//! hashed in typed loops, candidates compared where they lie, aggregates
//! folded by group id. Time ÷ rows through the operator is the cost per
//! row:
//!
//! * `hash/q1_groupby` — Q1's γ: two low-cardinality string keys, seven
//!   sums and averages and a count over 65,536 rows (six groups);
//! * `gamma/q1_group_ids` — the same γ under `COUNT(*)` alone: the key
//!   columns hashed and each row's group found, the folds left out;
//! * `hash/int_join/build_heavy`, `…/probe_heavy` — an `i64` key join,
//!   65,536 build rows against 4,096 probe rows (Q3's shape) and the
//!   other way round, every probe row matching once;
//! * `hash/det_join` — the same join, 16,384 rows a side, on
//!   Deterministic ciphertext keys: hashed and compared on the bytes in
//!   their column buffers;
//! * `hash/residual_inner` — Q19's shape: the `probe_heavy` join under
//!   an `OR` of three conjunctions over both sides as its residual, a
//!   mask over the 65,536 candidate pairs;
//! * `hash/residual_semi` — Q21's shape: 16,384 line items `Semi`-joined
//!   to 16,384 more of the same ~4,096 orders, then `Anti`-joined to
//!   those of a few suppliers, each under `NOT (l2_suppkey =
//!   l_suppkey)`.
//!
//! `encrypt/lineitem_det_ope/*` is an authority's `Encrypt` of 29,923
//! lineitem-shaped rows (SF 0.005's count) through `execute`:
//! `l_orderkey` and `l_partkey` under Deterministic, `l_quantity`,
//! `l_discount` and `l_shipdate` under OPE. `dictionary` encrypts over
//! the base scan, so each column's distinct values are encrypted once
//! and every batch gathered by row code; `rows` puts a `Project` between
//! the two, which keeps the per-row path. Both produce the same table.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mpq_algebra::expr::{AggExpr, AggFunc};
use mpq_algebra::value::EncScheme;
use mpq_algebra::{
    ArithOp, AttrId, Catalog, CmpOp, DataType, Date, Expr, JoinKind, Operator, QueryPlan, Value,
};
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_crypto::schemes::encrypt_batch;
use mpq_exec::eval::{eval_column, eval_mask};
use mpq_exec::rowref::{eval, RowCtx};
use mpq_exec::{execute, ColumnVec, Database, ExecCtx, SchemePlan, Table, DEFAULT_BATCH_ROWS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const ROWS: usize = 65_536;

const SHIPDATE: AttrId = AttrId(0);
const DISCOUNT: AttrId = AttrId(1);
const QUANTITY: AttrId = AttrId(2);
const PRICE: AttrId = AttrId(3);
const TAX: AttrId = AttrId(4);
const PTYPE: AttrId = AttrId(5);
const MODE: AttrId = AttrId(6);
const FLAG: AttrId = AttrId(7);
const STATUS: AttrId = AttrId(8);
const SHIPMODE: AttrId = AttrId(9);
const COMMITDATE: AttrId = AttrId(10);
const RECEIPTDATE: AttrId = AttrId(11);

fn lit(v: Value) -> Expr {
    Expr::Lit(v)
}

fn date(s: &str) -> Expr {
    lit(Value::Date(Date::parse(s).expect("a date")))
}

/// A lineitem-shaped relation in `DEFAULT_BATCH_ROWS` batches, and the
/// same rows materialized. `MODE` is a Deterministic ciphertext column;
/// the literal it is compared with comes back beside it. `SHIPMODE`
/// holds the same modes in plaintext. `COMMITDATE` and `RECEIPTDATE`
/// lie around `SHIPDATE` as TPC-H's do, drawn from a generator of their
/// own so that the other columns stay what they were.
fn generate() -> (Vec<Table>, Vec<Vec<Value>>, Vec<AttrId>, Value) {
    let rng = &mut StdRng::seed_from_u64(2026);
    let around = &mut StdRng::seed_from_u64(12);
    let key = ClusterKey::generate(rng, 1, 512);
    let modes = ["MAIL", "SHIP", "AIR", "RAIL", "TRUCK", "FOB", "REG AIR"];
    let types = [
        "PROMO BRUSHED TIN",
        "STANDARD POLISHED BRASS",
        "ECONOMY ANODIZED STEEL",
    ];
    let first_day = Date::parse("1992-01-01").expect("a date").0;
    let attrs = vec![
        SHIPDATE,
        DISCOUNT,
        QUANTITY,
        PRICE,
        TAX,
        PTYPE,
        MODE,
        FLAG,
        STATUS,
        SHIPMODE,
        COMMITDATE,
        RECEIPTDATE,
    ];
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|_| {
            let plain = Value::str(modes[rng.gen_range(0..modes.len())]);
            let mode = encrypt_batch(
                rng,
                std::slice::from_ref(&plain),
                EncScheme::Deterministic,
                &key,
            );
            let mode = mode.expect("a key");
            let ship = first_day + rng.gen_range(0..2_500);
            vec![
                Value::Date(Date(ship)),
                Value::Num(f64::from(rng.gen_range(0..11)) / 100.0),
                Value::Num(f64::from(rng.gen_range(1..51))),
                Value::Num(f64::from(rng.gen_range(90_000..10_000_000)) / 100.0),
                Value::Num(f64::from(rng.gen_range(0..9)) / 100.0),
                Value::str(types[rng.gen_range(0..types.len())]),
                mode[0].clone(),
                Value::str(["A", "N", "R"][rng.gen_range(0..3)]),
                Value::str(["F", "O"][rng.gen_range(0..2)]),
                plain,
                Value::Date(Date(ship + around.gen_range(-90..90))),
                Value::Date(Date(ship + around.gen_range(1..31))),
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
    let str_eq = Expr::col_eq(FLAG, Value::str("R"));
    let str_in = Expr::InList {
        expr: Box::new(Expr::Col(SHIPMODE)),
        list: vec![Value::str("MAIL"), Value::str("SHIP")],
        negated: false,
    };
    let date_range = Expr::And(vec![
        Expr::cmp(Expr::Col(SHIPDATE), CmpOp::Ge, date("1994-01-01")),
        Expr::cmp(Expr::Col(SHIPDATE), CmpOp::Lt, date("1995-01-01")),
    ]);
    let before = |a, b| Expr::cmp(Expr::Col(a), CmpOp::Lt, Expr::Col(b));
    let q12_pred = Expr::And(vec![
        str_in.clone(),
        before(COMMITDATE, RECEIPTDATE),
        before(SHIPDATE, COMMITDATE),
        Expr::cmp(Expr::Col(RECEIPTDATE), CmpOp::Ge, date("1994-01-01")),
        Expr::cmp(Expr::Col(RECEIPTDATE), CmpOp::Lt, date("1995-01-01")),
    ]);

    for (name, expr, is_pred) in [
        ("q6_pred", &q6_pred, true),
        ("q1_charge", &q1_charge, false),
        ("q14_promo", &q14_promo, false),
        ("det_eq", &det_eq, true),
        ("str/eq_literal", &str_eq, true),
        ("str/in_list", &str_in, true),
        ("date/range", &date_range, true),
        ("sel/q12_pred", &q12_pred, true),
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

    // Q1's eight aggregate inputs, as `mpq_tpch` builds them.
    let from_one = |op, e| Expr::arith(lit(Value::Num(1.0)), op, e);
    let disc_price = Expr::arith(
        Expr::Col(PRICE),
        ArithOp::Mul,
        from_one(ArithOp::Sub, Expr::Col(DISCOUNT)),
    );
    let charge = Expr::arith(
        disc_price.clone(),
        ArithOp::Mul,
        from_one(ArithOp::Add, Expr::Col(TAX)),
    );
    let q1_inputs = [
        Expr::Col(QUANTITY),
        Expr::Col(PRICE),
        disc_price,
        charge,
        Expr::Col(QUANTITY),
        Expr::Col(PRICE),
        Expr::Col(DISCOUNT),
        lit(Value::Int(1)),
    ];
    c.bench_function("gamma/q1_inputs", |b| {
        b.iter(|| {
            for batch in &batches {
                for input in &q1_inputs {
                    black_box(eval_column(input, batch, None));
                }
            }
        })
    });

    // Q1's columns scanned and filtered, no expression evaluated.
    let whole = Table::from_rows(attrs.clone(), rows);
    let q1 = [FLAG, STATUS, QUANTITY, PRICE, DISCOUNT, TAX, SHIPDATE];
    let q1: Vec<&ColumnVec> = q1
        .iter()
        .map(|a| whole.column(whole.col_index(*a).unwrap()))
        .collect();
    let cutoff = Value::Date(Date::parse("1998-09-02").expect("a date"));
    let ranges: Vec<_> = (0..ROWS)
        .step_by(DEFAULT_BATCH_ROWS)
        .map(|s| s..(s + DEFAULT_BATCH_ROWS).min(ROWS))
        .collect();
    let selections: Vec<Vec<usize>> = (ranges.iter())
        .map(|r| {
            let shipped = |&i: &usize| {
                let day = whole.value(0, r.start + i);
                day.sql_cmp(&cutoff).is_some_and(|o| o.is_le())
            };
            (0..r.len()).filter(shipped).collect()
        })
        .collect();
    c.bench_function("scan/q1_columns", |b| {
        b.iter(|| {
            for (range, kept) in ranges.iter().zip(&selections) {
                for col in &q1 {
                    black_box(col.slice(range.clone()).gather(kept));
                }
            }
        })
    });
}

/// `L(k, flag, status, qty, price, disc, tax)` ⋈ `R(rk, v)`: the
/// relations the `hash/*` arms scan.
fn hash_catalog() -> Catalog {
    let mut cat = Catalog::new();
    let num = |name| (name, DataType::Num);
    let left = [
        ("k", DataType::Int),
        ("flag", DataType::Str),
        ("status", DataType::Str),
        num("qty"),
        num("price"),
        num("disc"),
        num("tax"),
    ];
    cat.add_relation("L", &left).expect("a fresh name");
    cat.add_relation("R", &[("rk", DataType::Int), num("v")])
        .expect("a fresh name");
    for (rel, order, supplier) in [("L1", "ok1", "sk1"), ("L2", "ok2", "sk2")] {
        let cols = [(order, DataType::Int), (supplier, DataType::Int)];
        cat.add_relation(rel, &cols).expect("a fresh name");
    }
    cat
}

/// `L.k = R.rk` over `left` probe keys and `right` build keys, under
/// `residual`.
fn key_join(
    cat: &Catalog,
    left: ColumnVec,
    right: ColumnVec,
    residual: Option<Expr>,
) -> (QueryPlan, Database) {
    let (k, rk, v) = (
        cat.attr("k").unwrap(),
        cat.attr("rk").unwrap(),
        cat.attr("v").unwrap(),
    );
    let (l, r) = (
        cat.relation("L").unwrap().rel,
        cat.relation("R").unwrap().rel,
    );
    let mut db = Database::new();
    let payload = ColumnVec::from_nums((0..right.len()).map(|i| i as f64).collect());
    db.insert(l, Table::from_columns(vec![k].into(), vec![left]));
    db.insert(
        r,
        Table::from_columns(vec![rk, v].into(), vec![right, payload]),
    );
    let mut plan = QueryPlan::new();
    let (lb, rb) = (plan.add_base(l, vec![k]), plan.add_base(r, vec![rk, v]));
    let (kind, on) = (JoinKind::Inner, vec![(k, CmpOp::Eq, rk)]);
    plan.add(Operator::Join { kind, on, residual }, vec![lb, rb]);
    (plan, db)
}

/// `probe` keys drawn from `0..build`, against a shuffle of `0..build`.
fn int_keys(rng: &mut StdRng, probe: usize, build: usize) -> (Vec<Value>, Vec<Value>) {
    let left = (0..probe).map(|_| Value::Int(rng.gen_range(0..build as i64)));
    let left = left.collect();
    let mut right: Vec<Value> = (0..build as i64).map(Value::Int).collect();
    for i in (1..build).rev() {
        right.swap(i, rng.gen_range(0..=i));
    }
    (left, right)
}

fn bench_hash(c: &mut Criterion) {
    let rng = &mut StdRng::seed_from_u64(2026);
    let cat = hash_catalog();
    let attr = |name| cat.attr(name).unwrap();
    let mut cases = Vec::new();

    // Q1's γ over a lineitem-shaped relation.
    let rows: Vec<Vec<Value>> = (0..ROWS as i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(["A", "N", "R"][rng.gen_range(0..3)]),
                Value::str(["F", "O"][rng.gen_range(0..2)]),
                Value::Num(f64::from(rng.gen_range(1..51))),
                Value::Num(f64::from(rng.gen_range(90_000..10_000_000)) / 100.0),
                Value::Num(f64::from(rng.gen_range(0..11)) / 100.0),
                Value::Num(f64::from(rng.gen_range(0..9)) / 100.0),
            ]
        })
        .collect();
    let mut db = Database::new();
    db.load(&cat, "L", rows);
    let one = |op, e| Expr::arith(lit(Value::Int(1)), op, e);
    let col = |name| Expr::Col(attr(name));
    let revenue = Expr::arith(col("price"), ArithOp::Mul, one(ArithOp::Sub, col("disc")));
    let charge = Expr::arith(revenue.clone(), ArithOp::Mul, one(ArithOp::Add, col("tax")));
    let aggs = [
        (AggFunc::Sum, col("qty")),
        (AggFunc::Sum, col("price")),
        (AggFunc::Sum, revenue),
        (AggFunc::Sum, charge),
        (AggFunc::Avg, col("qty")),
        (AggFunc::Avg, col("price")),
        (AggFunc::Avg, col("disc")),
        (AggFunc::Count, lit(Value::Int(1))),
    ];
    let aggs = aggs.into_iter().map(|(func, input)| AggExpr {
        func,
        input,
        output: attr("qty"),
    });
    let group_by = |aggs: Vec<AggExpr>| {
        let mut plan = QueryPlan::new();
        let all = cat.relation("L").unwrap().attrs();
        let base = plan.add_base(cat.relation("L").unwrap().rel, all);
        let keys = vec![attr("flag"), attr("status")];
        plan.add(Operator::GroupBy { keys, aggs }, vec![base]);
        plan
    };
    let group_ids = (group_by(vec![AggExpr::count_star(attr("qty"))]), db.clone());
    cases.push(("q1_groupby", group_by(aggs.collect()), db));

    // Integer key joins, either side the large one.
    for (name, probe, build) in [
        ("int_join/build_heavy", DEFAULT_BATCH_ROWS, ROWS),
        ("int_join/probe_heavy", ROWS, DEFAULT_BATCH_ROWS),
    ] {
        let (left, right) = int_keys(rng, probe, build);
        let (plan, db) = key_join(
            &cat,
            left.into_iter().collect(),
            right.into_iter().collect(),
            None,
        );
        cases.push((name, plan, db));
    }

    // The same on Deterministic ciphertexts of the keys.
    let key = ClusterKey::generate(rng, 1, 512);
    let (left, right) = int_keys(rng, ROWS / 4, ROWS / 4);
    let mut det = |cells: &[Value]| -> ColumnVec {
        let cells = encrypt_batch(rng, cells, EncScheme::Deterministic, &key);
        cells.expect("a key").into_iter().collect()
    };
    let (left, right) = (det(&left), det(&right));
    assert!(matches!(left, ColumnVec::Enc(_)), "one ciphertext buffer");
    let (plan, db) = key_join(&cat, left, right, None);
    cases.push(("det_join", plan, db));

    // Q19's shape: three conjunctions over both sides, OR-ed.
    let (k, rk, v) = (col("k"), col("rk"), col("v"));
    let num = |x: f64| lit(Value::Num(x));
    let below = |e: &Expr, x: i64| Expr::cmp(e.clone(), CmpOp::Lt, lit(Value::Int(x)));
    let between = |e: &Expr, lo: f64, hi: f64| Expr::Between {
        expr: Box::new(e.clone()),
        lo: Box::new(num(lo)),
        hi: Box::new(num(hi)),
        negated: false,
    };
    let residual = Expr::Or(vec![
        Expr::And(vec![between(&v, 0.0, 1_000.0), below(&k, 2_048)]),
        Expr::And(vec![between(&v, 1_000.0, 2_000.0), below(&rk, 3_072)]),
        Expr::And(vec![
            between(&v, 3_000.0, 4_096.0),
            Expr::Not(Box::new(below(&k, 512))),
        ]),
    ]);
    let (left, right) = int_keys(rng, ROWS, DEFAULT_BATCH_ROWS);
    let (left, right) = (left.into_iter().collect(), right.into_iter().collect());
    let (plan, db) = key_join(&cat, left, right, Some(residual));
    cases.push(("residual_inner", plan, db));

    // Q21's shape: a line item whose order another supplier also
    // served (`Semi`), and no other supplier of which was late (`Anti`;
    // "late" here: a supplier key below 3).
    let (ok1, sk1, ok2, sk2) = (attr("ok1"), attr("sk1"), attr("ok2"), attr("sk2"));
    let other_supplier = Expr::Not(Box::new(Expr::cmp(
        Expr::Col(sk2),
        CmpOp::Eq,
        Expr::Col(sk1),
    )));
    let mut db = Database::new();
    for rel in ["L1", "L2"] {
        let orders = (0..ROWS / 4)
            .map(|_| rng.gen_range(0..ROWS as i64 / 16))
            .collect();
        let suppliers = (0..ROWS / 4).map(|_| rng.gen_range(0..10)).collect();
        let r = cat.relation(rel).unwrap();
        let cols = vec![
            ColumnVec::from_ints(orders),
            ColumnVec::from_ints(suppliers),
        ];
        db.insert(r.rel, Table::from_columns(r.attrs().into(), cols));
    }
    let (l1, l2) = (cat.relation("L1").unwrap(), cat.relation("L2").unwrap());
    let mut plan = QueryPlan::new();
    let mut items = plan.add_base(l1.rel, l1.attrs());
    for kind in [JoinKind::Semi, JoinKind::Anti] {
        let mut others = plan.add_base(l2.rel, l2.attrs());
        if kind == JoinKind::Anti {
            let pred = below(&Expr::Col(sk2), 3);
            others = plan.add(Operator::Select { pred }, vec![others]);
        }
        let (on, residual) = (vec![(ok1, CmpOp::Eq, ok2)], Some(other_supplier.clone()));
        items = plan.add(Operator::Join { kind, on, residual }, vec![items, others]);
    }
    cases.push(("residual_semi", plan, db));

    let (ring, schemes, koa) = (KeyRing::new(), SchemePlan::default(), HashMap::new());
    let ctx = |db| ExecCtx::new(&cat, db, &ring, &schemes, &koa);
    let mut g = c.benchmark_group("hash");
    for (name, plan, db) in &cases {
        let ctx = ctx(db);
        g.bench_function(*name, |b| {
            b.iter(|| black_box(execute(plan, &ctx).expect("runs")))
        });
    }
    g.finish();
    let (plan, db) = &group_ids;
    let ctx = ctx(db);
    c.bench_function("gamma/q1_group_ids", |b| {
        b.iter(|| black_box(execute(plan, &ctx).expect("runs")))
    });
}

fn bench_encrypt(c: &mut Criterion) {
    let rng = &mut StdRng::seed_from_u64(2026);
    let mut cat = Catalog::new();
    let columns = [
        ("l_orderkey", DataType::Int),
        ("l_partkey", DataType::Int),
        ("l_quantity", DataType::Num),
        ("l_discount", DataType::Num),
        ("l_shipdate", DataType::Date),
    ];
    let rel = cat
        .add_relation("lineitem", &columns)
        .expect("a fresh name");
    let first_day = Date::parse("1992-01-01").expect("a date").0;
    // About four line items per order, as TPC-H's.
    let rows = (0..29_923)
        .map(|i| {
            vec![
                Value::Int(i / 4 + 1),
                Value::Int(rng.gen_range(1..=1_000)),
                Value::Num(f64::from(rng.gen_range(1..51))),
                Value::Num(f64::from(rng.gen_range(0..11)) / 100.0),
                Value::Date(Date(first_day + rng.gen_range(0..2_526))),
            ]
        })
        .collect();
    let mut db = Database::new();
    db.load(&cat, "lineitem", rows);
    let attrs = cat.relation("lineitem").unwrap().attrs();
    let mut schemes = SchemePlan::default();
    let (det, ope) = (EncScheme::Deterministic, EncScheme::Ope);
    for (&attr, scheme) in attrs.iter().zip([det, det, ope, ope, ope]) {
        schemes.set(attr, scheme);
    }
    let koa = attrs.iter().map(|&a| (a, 1)).collect();
    let ring = KeyRing::new();
    ring.insert(ClusterKey::generate(rng, 1, 256));
    let ctx = ExecCtx::new(&cat, &db, &ring, &schemes, &koa);
    let plan = |project: bool| {
        let mut plan = QueryPlan::new();
        let mut input = plan.add_base(rel, attrs.clone());
        if project {
            let attrs = attrs.clone();
            input = plan.add(Operator::Project { attrs }, vec![input]);
        }
        let attrs = attrs.clone();
        plan.add(Operator::Encrypt { attrs }, vec![input]);
        plan
    };
    let (dictionary, rows) = (plan(false), plan(true));
    let run = |plan| execute(plan, &ctx).expect("runs");
    assert_eq!(run(&dictionary), run(&rows), "one table either way");
    let mut g = c.benchmark_group("encrypt/lineitem_det_ope");
    for (name, plan) in [("dictionary", &dictionary), ("rows", &rows)] {
        g.bench_function(name, |b| b.iter(|| black_box(run(plan))));
    }
    g.finish();
}

criterion_group!(benches, bench_expr, bench_hash, bench_encrypt);
criterion_main!(benches);
