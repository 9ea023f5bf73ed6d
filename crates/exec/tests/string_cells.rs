//! String cells at word boundaries: σ, γ and ⋈ over typed `Str` columns
//! against the row oracle.
//!
//! The engine reads a string cell as bytes — its length and its first
//! eight bytes as one word, then the rest of a longer cell — where the
//! row walk compares `&str`s. Here every cell length from 0 to 17 bytes,
//! multi-byte UTF-8 (`"ü"`, `"ünï"`, `"u\u{308}"`), shared prefixes
//! (`"ab"`, `"ab\0"`, `"abcdefgh"`, `"abcdefghi"`) and cells that part
//! in their first word or only behind it meet a literal of every
//! length: `=`, `<>`, `<`, `IN` and `BETWEEN` through `eval_mask`, and
//! group-bys and joins on such keys through `execute` — including a held
//! group key column that turns from `Str` into `Val` in a later batch —
//! must give the row oracle's cells, groups, group order and first error.

use mpq_algebra::expr::{AggExpr, AggFunc};
use mpq_algebra::{AttrId, Catalog, CmpOp, DataType, Expr, JoinKind, Operator, QueryPlan, Value};
use mpq_crypto::keyring::KeyRing;
use mpq_exec::eval::eval_mask;
use mpq_exec::rowref::{eval_pred, execute_ref, RowCtx};
use mpq_exec::{execute, ColumnVec, Database, ExecCtx, SchemePlan, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Every length from 0 to 17 bytes as a chain of shared prefixes, and
/// the cells that sit next to them in byte order or share their length.
fn words() -> Vec<&'static str> {
    const LETTERS: &str = "abcdefghijklmnopq";
    let mut words: Vec<&str> = (0..=LETTERS.len()).map(|n| &LETTERS[..n]).collect();
    words.extend([
        "ü",
        "ünï",
        "u\u{308}",
        "u",
        "ab\0",
        "abcdefgh\0",
        "abcdefgx",
        "abcdefghijklmnopx",
        "b",
        "üüüü",
        "üüüüü",
        "ünïünïünï",
    ]);
    words
}

/// `n` cells drawn from `words`, and every word once at the end: the
/// last cells of a buffer have fewer than eight bytes behind their
/// start.
fn cells(rng: &mut StdRng, n: usize) -> Vec<Value> {
    let words = words();
    let mut cells: Vec<Value> = (0..n)
        .map(|_| Value::str(words[rng.gen_range(0..words.len())]))
        .collect();
    cells.extend(words.iter().rev().map(|w| Value::str(w)));
    cells
}

fn lit(v: Value) -> Box<Expr> {
    Box::new(Expr::Lit(v))
}

/// The predicates a literal pair `(a, b)` takes part in over column `s`
/// (and a second string column `t`).
fn predicates(s: AttrId, t: AttrId, a: &str, b: &str) -> Vec<Expr> {
    let col = |c| Box::new(Expr::Col(c));
    let (a, b) = (Value::str(a), Value::str(b));
    let mut preds = Vec::new();
    for op in [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ] {
        preds.push(Expr::cmp(Expr::Col(s), op, Expr::Lit(a.clone())));
        preds.push(Expr::cmp(Expr::Lit(b.clone()), op, Expr::Col(s)));
        preds.push(Expr::cmp(Expr::Col(s), op, Expr::Col(t)));
    }
    for negated in [false, true] {
        preds.push(Expr::InList {
            expr: col(s),
            list: vec![a.clone(), b.clone()],
            negated,
        });
        preds.push(Expr::Between {
            expr: col(s),
            lo: lit(a.clone()),
            hi: lit(b.clone()),
            negated,
        });
        preds.push(Expr::Between {
            expr: col(s),
            lo: col(t),
            hi: lit(a.clone()),
            negated,
        });
    }
    let eq = Expr::col_eq(s, a.clone());
    let below = Expr::cmp(Expr::Col(s), CmpOp::Lt, Expr::Lit(b.clone()));
    preds.push(Expr::Or(vec![
        eq.clone(),
        Expr::Not(Box::new(below.clone())),
    ]));
    preds.push(Expr::And(vec![Expr::Not(Box::new(eq)), below]));
    // An upper bound no string orders against: the row walk fails on
    // the first row, whatever its lower bound says.
    preds.push(Expr::Between {
        expr: col(s),
        lo: lit(a),
        hi: lit(Value::Int(3)),
        negated: false,
    });
    preds
}

/// `eval_mask` over `rows` against `eval_pred` row by row: the same
/// truths, or the error of the first failing row.
fn assert_mask_is_the_row_walk(pred: &Expr, table: &Table, rows: std::ops::Range<usize>) {
    let attrs = table.attrs();
    let mut walk = Vec::new();
    let mut failed = None;
    for r in rows.clone() {
        let row: Vec<Value> = (0..attrs.len()).map(|c| table.value(c, r)).collect();
        match eval_pred(pred, &RowCtx::plain(attrs, &row)) {
            Ok(t) => walk.push(t),
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    match (eval_mask(pred, table, None, rows), failed) {
        (Ok(mask), None) => assert_eq!(mask, walk, "{pred:?}"),
        (Err(got), Some(want)) => assert_eq!(got, want, "{pred:?}"),
        (got, want) => panic!("eval_mask {got:?}, row walk fails with {want:?}: {pred:?}"),
    }
}

#[test]
fn string_predicates_at_word_boundaries_are_the_row_walk() {
    let words = words();
    for seed in 0..4 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (s, t) = (AttrId(0), AttrId(1));
        let n = [0, 7, 40, 300][seed as usize];
        let (left, right) = (cells(rng, n), cells(rng, n));
        let columns: Vec<ColumnVec> = vec![left.into_iter().collect(), right.into_iter().collect()];
        assert!(columns.iter().all(|c| matches!(c, ColumnVec::Str(_))));
        let table = Table::from_columns(vec![s, t].into(), columns);
        let len = table.len();
        for (i, a) in words.iter().enumerate() {
            let b = words[(i * 7 + 3) % words.len()];
            for pred in predicates(s, t, a, b) {
                assert_mask_is_the_row_walk(&pred, &table, 0..len);
                assert_mask_is_the_row_walk(&pred, &table, len / 3..len - 2);
            }
        }
    }
}

/// L(k, s, v) and R(j, t): integer and string keys, an integer input.
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let (int, text) = (DataType::Int, DataType::Str);
    cat.add_relation("L", &[("k", int), ("s", text), ("v", int)])
        .expect("a fresh name");
    cat.add_relation("R", &[("j", int), ("t", text)])
        .expect("a fresh name");
    cat
}

/// Bit for bit, cell by cell.
fn same_table(a: &Table, b: &Table) -> bool {
    a.attrs() == b.attrs()
        && a.len() == b.len()
        && (0..a.attrs().len()).all(|c| (0..a.len()).all(|r| a.value(c, r) == b.value(c, r)))
}

/// `plan` through `execute` — batches of 1, 7 and 4,096 rows — against
/// `execute_ref`: the same table, or the same error.
fn assert_engine_matches_oracle(cat: &Catalog, db: &Database, plan: &QueryPlan) {
    let env = (KeyRing::new(), SchemePlan::default(), HashMap::new());
    let ctx = |batch_rows| {
        ExecCtx::builder(cat, db, &env.0, &env.1, &env.2)
            .batch_rows(batch_rows)
            .build()
    };
    let oracle = execute_ref(plan, &ctx(4096));
    for batch_rows in [1, 7, 4096] {
        let what = format!("batches of {batch_rows}: {plan:?}");
        match (execute(plan, &ctx(batch_rows)), &oracle) {
            (Ok(got), Ok(want)) => assert!(same_table(&got, want), "{what}\n{got:?}\n{want:?}"),
            (Err(got), Err(want)) => assert_eq!(&got, want, "{what}"),
            (got, want) => panic!("engine {got:?}, oracle {want:?}: {what}"),
        }
    }
}

/// L holds `n` rows keyed `0..n` over the given string cells; R one row
/// per key below `matched`, each with a string of its own, so that a
/// left outer join pads L's rows from `matched` on with NULL. Now and
/// then (`bad`) `v` holds a string, which `SUM` refuses.
fn database(cat: &Catalog, rng: &mut StdRng, s: Vec<Value>, matched: usize, bad: bool) -> Database {
    let n = s.len();
    let words = words();
    let v = (0..n).map(|r| match rng.gen_range(0..30) {
        0 if bad && r > 2 => Value::str("x"),
        _ => Value::Int(rng.gen_range(-5..6)),
    });
    let left = vec![
        ColumnVec::from_ints((0..n as i64).collect()),
        s.into_iter().collect(),
        v.collect(),
    ];
    let t = (0..matched).map(|_| Value::str(words[rng.gen_range(0..words.len())]));
    let right = vec![
        ColumnVec::from_ints((0..matched as i64).collect()),
        t.collect(),
    ];
    let mut db = Database::new();
    for (name, cols) in [("L", left), ("R", right)] {
        let r = cat.relation(name).unwrap();
        db.insert(r.rel, Table::from_columns(r.attrs().into(), cols));
    }
    db
}

fn group_by(plan: &mut QueryPlan, child: mpq_algebra::NodeId, keys: Vec<AttrId>, v: AttrId) {
    let aggs = vec![
        AggExpr::count_star(v),
        AggExpr::over_col(AggFunc::Sum, v),
        AggExpr::over_col(AggFunc::Min, v),
    ];
    plan.add(Operator::GroupBy { keys, aggs }, vec![child]);
}

#[test]
fn string_keys_group_and_join_as_the_row_oracle() {
    let cat = catalog();
    let attr = |name| cat.attr(name).unwrap();
    let (k, s, v, j, t) = (attr("k"), attr("s"), attr("v"), attr("j"), attr("t"));
    let (l, r) = (cat.relation("L").unwrap(), cat.relation("R").unwrap());
    for seed in 0..12 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..120);
        let mut cells = cells(rng, n);
        // A NULL key in some cases: L's key column is then held `Val`.
        if seed % 3 == 2 {
            let at = rng.gen_range(0..cells.len());
            cells[at] = Value::Null;
        }
        let matched = rng.gen_range(0..=cells.len());
        let db = database(&cat, rng, cells, matched, seed % 2 == 1);

        // γ over L's own string key, alone and beside the integer one.
        for keys in [vec![s], vec![s, k], vec![k, s]] {
            let mut plan = QueryPlan::new();
            let base = plan.add_base(l.rel, l.attrs());
            group_by(&mut plan, base, keys, v);
            assert_engine_matches_oracle(&cat, &db, &plan);
        }

        // γ over R's string key behind a left outer join: a batch whose
        // rows all matched holds it as `Str`, a padded one as `Val` —
        // and the held key column turns from `Str` into `Val` when the
        // first NULL group opens.
        let mut plan = QueryPlan::new();
        let (lb, rb) = (
            plan.add_base(l.rel, l.attrs()),
            plan.add_base(r.rel, r.attrs()),
        );
        let (kind, on) = (JoinKind::LeftOuter, vec![(k, CmpOp::Eq, j)]);
        let joined = plan.add(
            Operator::Join {
                kind,
                on,
                residual: None,
            },
            vec![lb, rb],
        );
        group_by(&mut plan, joined, vec![t], v);
        assert_engine_matches_oracle(&cat, &db, &plan);

        // ⋈ on the strings themselves, every kind, bare and under a
        // residual that orders a string against an integer — failing on
        // the first candidate pair the walk reaches.
        let failing = Expr::cmp(Expr::Col(s), CmpOp::Lt, Expr::Lit(Value::Int(1)));
        let quiet = Expr::cmp(Expr::Col(t), CmpOp::Ne, Expr::Lit(Value::str("ab")));
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            for residual in [None, Some(quiet.clone()), Some(failing.clone())] {
                let mut plan = QueryPlan::new();
                let (lb, rb) = (
                    plan.add_base(l.rel, l.attrs()),
                    plan.add_base(r.rel, r.attrs()),
                );
                let on = vec![(s, CmpOp::Eq, t)];
                plan.add(Operator::Join { kind, on, residual }, vec![lb, rb]);
                assert_engine_matches_oracle(&cat, &db, &plan);
            }
        }
    }
}
