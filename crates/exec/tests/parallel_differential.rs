//! Streaming batch execution ≡ one-batch execution ≡ row execution,
//! bit for bit.
//!
//! The streaming engine processes column batches of a configurable
//! size, each batch whole on the calling thread. For random data,
//! seeds and batch sizes the produced tables must match a run that
//! takes the whole input as one batch, and the deliberately naive
//! row-at-a-time oracle in `mpq_exec::rowref`, which shares only the
//! per-cell RNG discipline and implements every operator independently
//! (nested-loop joins, no batches). All comparisons are structural —
//! **ciphertext bytes included** (`Value` equality compares the
//! encrypted cell bytes) — which is the guarantee that lets `mpq-dist`
//! keep its "same bytes on every edge" contract whatever batch size a
//! party runs at.

use mpq_algebra::value::EncScheme;
use mpq_algebra::{AttrId, Catalog, CmpOp, Date, Expr, JoinKind, Operator, QueryPlan, Value};
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_exec::rowref::execute_ref;
use mpq_exec::{execute, Database, ExecCtx, SchemePlan, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn load(cat: &Catalog, n: usize, seed: u64) -> Database {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let diagnoses = ["stroke", "flu", "fracture"];
    let mut db = Database::new();
    let mut hosp = Vec::with_capacity(n);
    let mut ins = Vec::with_capacity(n);
    for i in 0..n {
        let name = format!("patient{i}");
        hosp.push(vec![
            Value::str(&name),
            Value::Date(Date(rng.gen_range(0..20_000))),
            Value::str(diagnoses[rng.gen_range(0..3)]),
            Value::str("t"),
        ]);
        ins.push(vec![
            Value::str(&name),
            Value::Num(rng.gen_range(10.0..300.0)),
        ]);
    }
    db.load(cat, "Hosp", hosp);
    db.load(cat, "Ins", ins);
    db
}

/// Join → select → project → encrypt (all four schemes) → partial
/// decrypt, leaving two columns as ciphertext in the output.
fn crypto_plan(cat: &Catalog) -> (QueryPlan, SchemePlan, HashMap<AttrId, u32>) {
    let s = cat.attr("S").unwrap();
    let b = cat.attr("B").unwrap();
    let d = cat.attr("D").unwrap();
    let c = cat.attr("C").unwrap();
    let p = cat.attr("P").unwrap();
    let hosp = cat.relation("Hosp").unwrap().rel;
    let ins = cat.relation("Ins").unwrap().rel;
    let mut plan = QueryPlan::new();
    let h = plan.add_base(hosp, vec![s, b, d]);
    let i = plan.add_base(ins, vec![c, p]);
    let j = plan.add(
        Operator::Join {
            kind: JoinKind::Inner,
            on: vec![(s, CmpOp::Eq, c)],
            residual: None,
        },
        vec![h, i],
    );
    let sel = plan.add(
        Operator::Select {
            pred: Expr::Cmp(
                Box::new(Expr::Col(p)),
                CmpOp::Gt,
                Box::new(Expr::Lit(Value::Num(60.0))),
            ),
        },
        vec![j],
    );
    let proj = plan.add(
        Operator::Project {
            attrs: vec![s, b, d, p],
        },
        vec![sel],
    );
    let enc = plan.add(
        Operator::Encrypt {
            attrs: vec![s, b, d, p],
        },
        vec![proj],
    );
    plan.add(Operator::Decrypt { attrs: vec![b, p] }, vec![enc]);

    let mut schemes = SchemePlan::default();
    schemes.set(s, EncScheme::Deterministic);
    schemes.set(b, EncScheme::Ope);
    schemes.set(d, EncScheme::Random);
    schemes.set(p, EncScheme::Paillier);
    let mut koa = HashMap::new();
    for a in [s, b, d, p] {
        koa.insert(a, 1u32);
    }
    (plan, schemes, koa)
}

/// Plain row operators: join → select → project.
fn row_ops_plan(cat: &Catalog) -> (QueryPlan, SchemePlan, HashMap<AttrId, u32>) {
    let s = cat.attr("S").unwrap();
    let d = cat.attr("D").unwrap();
    let c = cat.attr("C").unwrap();
    let p = cat.attr("P").unwrap();
    let hosp = cat.relation("Hosp").unwrap().rel;
    let ins = cat.relation("Ins").unwrap().rel;
    let mut plan = QueryPlan::new();
    let h = plan.add_base(hosp, vec![s, d]);
    let i = plan.add_base(ins, vec![c, p]);
    let j = plan.add(
        Operator::Join {
            kind: JoinKind::Inner,
            on: vec![(s, CmpOp::Eq, c)],
            residual: None,
        },
        vec![h, i],
    );
    let sel = plan.add(
        Operator::Select {
            pred: Expr::Cmp(
                Box::new(Expr::Col(p)),
                CmpOp::Lt,
                Box::new(Expr::Lit(Value::Num(200.0))),
            ),
        },
        vec![j],
    );
    plan.add(Operator::Project { attrs: vec![d, p] }, vec![sel]);
    (plan, SchemePlan::default(), HashMap::new())
}

/// Group-by → having → sort → limit (pipeline breakers and agg refs).
fn agg_sort_plan(cat: &Catalog) -> (QueryPlan, SchemePlan, HashMap<AttrId, u32>) {
    let plan = mpq_algebra::builder::plan_sql(
        cat,
        "select D, count(*), avg(P) from Hosp join Ins on S=C \
         group by D having count(*) >= 1 order by count(*) desc, D limit 2",
    )
    .expect("sql plans");
    (plan, SchemePlan::default(), HashMap::new())
}

/// A join pair in the extension's spliced shape: Encrypt(S) below one
/// side, and Encrypt(C) on the other edge under the same key and
/// scheme, so both sides are compared as ciphertext.
fn mixed_form_plan(cat: &Catalog) -> (QueryPlan, SchemePlan, HashMap<AttrId, u32>) {
    let s = cat.attr("S").unwrap();
    let d = cat.attr("D").unwrap();
    let c = cat.attr("C").unwrap();
    let p = cat.attr("P").unwrap();
    let hosp = cat.relation("Hosp").unwrap().rel;
    let ins = cat.relation("Ins").unwrap().rel;
    let mut plan = QueryPlan::new();
    let h = plan.add_base(hosp, vec![s, d]);
    let enc = plan.add(Operator::Encrypt { attrs: vec![s] }, vec![h]);
    let i = plan.add_base(ins, vec![c, p]);
    let spliced = plan.add(Operator::Encrypt { attrs: vec![c] }, vec![i]);
    plan.add(
        Operator::Join {
            kind: JoinKind::Inner,
            on: vec![(s, CmpOp::Eq, c)],
            residual: None,
        },
        vec![enc, spliced],
    );
    let mut schemes = SchemePlan::default();
    let mut koa = HashMap::new();
    for a in [s, c] {
        schemes.set(a, EncScheme::Deterministic);
        koa.insert(a, 1u32);
    }
    (plan, schemes, koa)
}

/// Left-outer join with a residual predicate (NULL padding + per-pair
/// residual evaluation).
fn outer_residual_plan(cat: &Catalog) -> (QueryPlan, SchemePlan, HashMap<AttrId, u32>) {
    let s = cat.attr("S").unwrap();
    let d = cat.attr("D").unwrap();
    let c = cat.attr("C").unwrap();
    let p = cat.attr("P").unwrap();
    let hosp = cat.relation("Hosp").unwrap().rel;
    let ins = cat.relation("Ins").unwrap().rel;
    let mut plan = QueryPlan::new();
    let h = plan.add_base(hosp, vec![s, d]);
    let i = plan.add_base(ins, vec![c, p]);
    plan.add(
        Operator::Join {
            kind: JoinKind::LeftOuter,
            on: vec![(s, CmpOp::Eq, c)],
            residual: Some(Expr::Cmp(
                Box::new(Expr::Col(p)),
                CmpOp::Lt,
                Box::new(Expr::Lit(Value::Num(150.0))),
            )),
        },
        vec![h, i],
    );
    (plan, SchemePlan::default(), HashMap::new())
}

/// `Hosp[S, D] ⋈ Ins[C, P]` of the given kind over `on`, in plaintext.
/// The insurer side is first cut to `P > 150`, so Semi and Anti each
/// keep some patients and drop others.
fn join_plan(
    cat: &Catalog,
    kind: JoinKind,
    on: Vec<(AttrId, CmpOp, AttrId)>,
) -> (QueryPlan, SchemePlan, HashMap<AttrId, u32>) {
    let s = cat.attr("S").unwrap();
    let d = cat.attr("D").unwrap();
    let c = cat.attr("C").unwrap();
    let p = cat.attr("P").unwrap();
    let mut plan = QueryPlan::new();
    let h = plan.add_base(cat.relation("Hosp").unwrap().rel, vec![s, d]);
    let i = plan.add_base(cat.relation("Ins").unwrap().rel, vec![c, p]);
    let pred = Expr::Cmp(
        Box::new(Expr::Col(p)),
        CmpOp::Gt,
        Box::new(Expr::Lit(Value::Num(150.0))),
    );
    let costly = plan.add(Operator::Select { pred }, vec![i]);
    let residual = None;
    plan.add(Operator::Join { kind, on, residual }, vec![h, costly]);
    (plan, SchemePlan::default(), HashMap::new())
}

/// Cartesian product of two projections.
fn product_plan(cat: &Catalog) -> (QueryPlan, SchemePlan, HashMap<AttrId, u32>) {
    let mut plan = QueryPlan::new();
    let (d, p) = (cat.attr("D").unwrap(), cat.attr("P").unwrap());
    let h = plan.add_base(cat.relation("Hosp").unwrap().rel, vec![d]);
    let i = plan.add_base(cat.relation("Ins").unwrap().rel, vec![p]);
    plan.add(Operator::Product, vec![h, i]);
    (plan, SchemePlan::default(), HashMap::new())
}

/// The product shape over typed columns: `L(li, ls, ld, le) × R(ri, rs,
/// rd, re)` — `Int`, `Str`, `Date`, and `le` / `re` encrypted
/// Deterministic below the product — with an empty side and a one-row
/// side. Every batch size gives the oracle's rows in the same
/// column representations: the join that runs a product gathers, and
/// pads nothing.
#[test]
fn product_keeps_typed_columns_over_empty_and_one_row_sides() {
    use mpq_algebra::value::DataType;
    use mpq_exec::ColumnVec;
    let mut cat = Catalog::new();
    for side in ["l", "r"] {
        let names = ["i", "s", "d", "e"].map(|c| format!("{side}{c}"));
        let types = [DataType::Int, DataType::Str, DataType::Date, DataType::Int];
        let cols: Vec<(&str, DataType)> = names.iter().map(String::as_str).zip(types).collect();
        cat.add_relation(&side.to_uppercase(), &cols)
            .expect("a fresh name");
    }
    let (l, r) = (cat.relation("L").unwrap(), cat.relation("R").unwrap());
    let (le, re) = (cat.attr("le").unwrap(), cat.attr("re").unwrap());
    let mut plan = QueryPlan::new();
    let lb = plan.add_base(l.rel, l.attrs());
    let lenc = plan.add(Operator::Encrypt { attrs: vec![le] }, vec![lb]);
    let rb = plan.add_base(r.rel, r.attrs());
    let renc = plan.add(Operator::Encrypt { attrs: vec![re] }, vec![rb]);
    plan.add(Operator::Product, vec![lenc, renc]);
    let mut schemes = SchemePlan::default();
    schemes.set(le, EncScheme::Deterministic);
    schemes.set(re, EncScheme::Deterministic);
    let koa = HashMap::from([(le, 1u32), (re, 1u32)]);
    let ring = ring();

    let columns = |n: usize| -> Vec<ColumnVec> {
        vec![
            ColumnVec::from_ints((0..n as i64).collect()),
            (0..n).map(|i| Value::str(&format!("s{i}"))).collect(),
            (0..n).map(|i| Value::Date(Date(i as i32))).collect(),
            ColumnVec::from_ints((0..n as i64).map(|i| i % 3).collect()),
        ]
    };
    let rep = |c: &ColumnVec| match c {
        ColumnVec::Int(_) => "Int",
        ColumnVec::Num(_) => "Num",
        ColumnVec::Date(_) => "Date",
        ColumnVec::Str(_) => "Str",
        ColumnVec::Enc(_) => "Enc",
        ColumnVec::Val(_) => "Val",
    };
    let reps = |t: &Table| t.columns().iter().map(rep).collect::<Vec<_>>();
    for (nl, nr) in [(0, 5), (5, 0), (1, 5), (5, 1), (1, 1), (40, 37)] {
        let mut db = Database::new();
        db.insert(l.rel, Table::from_columns(l.attrs().into(), columns(nl)));
        db.insert(r.rel, Table::from_columns(r.attrs().into(), columns(nr)));
        let ctx = |batch_rows| {
            ExecCtx::builder(&cat, &db, &ring, &schemes, &koa)
                .batch_rows(batch_rows)
                .build()
        };
        let oracle = execute_ref(&plan, &ctx(4096)).expect("oracle run");
        assert_eq!(oracle.len(), nl * nr);
        let first = execute(&plan, &ctx(4096)).expect("product runs");
        if !first.is_empty() {
            let typed = ["Int", "Str", "Date", "Enc"];
            assert_eq!(reps(&first), [typed, typed].concat(), "{nl} × {nr}");
        }
        for batch_rows in [1, 7, 4096] {
            let what = format!("{nl} × {nr}, batches of {batch_rows}");
            let got = execute(&plan, &ctx(batch_rows)).expect("product runs");
            assert_eq!(got, oracle, "{what}");
            assert_eq!(reps(&got), reps(&first), "{what}");
        }
    }
}

const PLAN_SHAPES: usize = 9;

fn pick_plan(cat: &Catalog, ix: usize) -> (QueryPlan, SchemePlan, HashMap<AttrId, u32>) {
    let (s, c) = (cat.attr("S").unwrap(), cat.attr("C").unwrap());
    match ix {
        0 => crypto_plan(cat),
        1 => row_ops_plan(cat),
        2 => agg_sort_plan(cat),
        3 => mixed_form_plan(cat),
        4 => outer_residual_plan(cat),
        5 => join_plan(cat, JoinKind::Semi, vec![(s, CmpOp::Eq, c)]),
        6 => join_plan(cat, JoinKind::Anti, vec![(s, CmpOp::Eq, c)]),
        7 => product_plan(cat),
        // Theta-only: no equality, so no hash table — every pair is a
        // candidate.
        _ => join_plan(cat, JoinKind::Inner, vec![(s, CmpOp::Lt, c)]),
    }
}

fn ring() -> KeyRing {
    let ring = KeyRing::new();
    ring.insert(ClusterKey::generate(&mut StdRng::seed_from_u64(99), 1, 256));
    ring
}

#[allow(clippy::too_many_arguments)]
fn run(
    cat: &Catalog,
    db: &Database,
    plan: &QueryPlan,
    schemes: &SchemePlan,
    koa: &HashMap<AttrId, u32>,
    ring: &KeyRing,
    seed: u64,
    batch_rows: usize,
) -> Table {
    let ctx = ExecCtx::builder(cat, db, ring, schemes, koa)
        .seed(seed)
        .batch_rows(batch_rows)
        .build();
    execute(plan, &ctx).expect("plan executes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Ciphertext-producing operators: batched execution must emit
    /// byte-identical tables for every batch size.
    #[test]
    fn batched_crypto_is_bit_identical(
        rows in 65usize..200,
        data_seed in any::<u64>(),
        enc_seed in any::<u64>(),
        batch_rows in 1usize..300,
    ) {
        let cat = Catalog::paper_running_example();
        let db = load(&cat, rows, data_seed);
        let (plan, schemes, koa) = crypto_plan(&cat);
        let ring = ring();

        let whole = run(&cat, &db, &plan, &schemes, &koa, &ring, enc_seed, usize::MAX);
        let batched = run(&cat, &db, &plan, &schemes, &koa, &ring, enc_seed, batch_rows);
        // Structural equality: encrypted cells compare by their exact
        // ciphertext bytes.
        prop_assert_eq!(&whole, &batched);
    }

    /// Plain row operators (select/project/join) over inputs that
    /// span several batches.
    #[test]
    fn batched_row_ops_match_one_batch(
        rows in 600usize..900,
        data_seed in any::<u64>(),
        batch_rows in 1usize..1000,
    ) {
        let cat = Catalog::paper_running_example();
        let db = load(&cat, rows, data_seed);
        let (plan, schemes, koa) = row_ops_plan(&cat);
        let ring = KeyRing::new();
        let whole = run(&cat, &db, &plan, &schemes, &koa, &ring, 7, usize::MAX);
        let batched = run(&cat, &db, &plan, &schemes, &koa, &ring, 7, batch_rows);
        prop_assert_eq!(&whole, &batched);
    }

    /// Batch ≡ row: the streaming engine against the independent
    /// row-at-a-time oracle, over every plan shape and random batch
    /// sizes — rows *and* ciphertext bytes identical.
    #[test]
    fn streaming_matches_row_oracle(
        rows in 30usize..120,
        data_seed in any::<u64>(),
        enc_seed in any::<u64>(),
        batch_rows in 1usize..97,
    ) {
        let cat = Catalog::paper_running_example();
        let db = load(&cat, rows, data_seed);
        let ring = ring();
        for plan_ix in 0..PLAN_SHAPES {
            let (plan, schemes, koa) = pick_plan(&cat, plan_ix);
            let ctx = ExecCtx::builder(&cat, &db, &ring, &schemes, &koa)
                .seed(enc_seed)
                .batch_rows(batch_rows)
                .build();
            let streamed = execute(&plan, &ctx).expect("streaming run");
            let oracle = execute_ref(&plan, &ctx).expect("oracle run");
            prop_assert!(!streamed.is_empty(), "plan shape {} yields rows", plan_ix);
            prop_assert_eq!(&streamed, &oracle, "plan shape {}", plan_ix);
        }
    }
}

/// An `Encrypt` node over an OPE date column keeps per-batch state (the
/// encryptor's resume trail and memo). Batch layout decides which cells
/// share that state, so it must not show in a single ciphertext byte:
/// batches of 7 and 4,096 rows, both equal to the row oracle, which
/// encrypts every cell one-shot. 9,000 rows over ~2,500 days: repeats,
/// shared high bits, and several batches at either size.
#[test]
fn ope_date_column_ignores_batch_layout() {
    use rand::Rng;
    let cat = Catalog::paper_running_example();
    let (s, b) = (cat.attr("S").unwrap(), cat.attr("B").unwrap());
    let mut rng = StdRng::seed_from_u64(41);
    let rows: Vec<Vec<Value>> = (0..9_000)
        .map(|i| {
            vec![
                Value::str(&format!("patient{i}")),
                Value::Date(Date(8_035 + rng.gen_range(0..2_526))),
                Value::str("flu"),
                Value::str("t"),
            ]
        })
        .collect();
    let mut db = Database::new();
    db.load(&cat, "Hosp", rows);

    let mut plan = QueryPlan::new();
    let hosp = cat.relation("Hosp").unwrap().rel;
    let h = plan.add_base(hosp, vec![s, b]);
    plan.add(Operator::Encrypt { attrs: vec![b] }, vec![h]);
    let mut schemes = SchemePlan::default();
    schemes.set(b, EncScheme::Ope);
    let koa = HashMap::from([(b, 1u32)]);
    let ring = ring();

    let ctx = ExecCtx::builder(&cat, &db, &ring, &schemes, &koa)
        .seed(5)
        .build();
    let oracle = execute_ref(&plan, &ctx).expect("oracle run");
    for batch_rows in [7, 4096] {
        let table = run(&cat, &db, &plan, &schemes, &koa, &ring, 5, batch_rows);
        assert_eq!(table, oracle, "batches of {batch_rows}");
    }
}
