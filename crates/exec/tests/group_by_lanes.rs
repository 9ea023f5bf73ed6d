//! γ's one row pass ≡ the row oracle, lane by lane.
//!
//! γ folds every aggregate — a *lane* — of a batch in one pass over its
//! rows: plaintext SUM / AVG / COUNT into flat per-group slots, a
//! Paillier sum, MIN / MAX and COUNT(DISTINCT) into accumulator cells.
//! Here eleven lanes over every kind of input run against
//! `mpq_exec::rowref::execute_ref` at batches of 1, 7 and 4,096, in few
//! groups and in one group per row: sums bit for bit (a group's sum must
//! run in row order), Paillier sums byte for byte, groups in first-seen
//! order, and the same first error — an integer SUM overflowing, a SUM
//! refusing a string, an input failing, a Paillier lane meeting a group
//! it opened as plaintext.

use mpq_algebra::expr::{AggExpr, AggFunc};
use mpq_algebra::value::{DataType, EncScheme};
use mpq_algebra::{ArithOp, AttrId, Catalog, Expr, Operator, QueryPlan, Value};
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_crypto::schemes::encrypt_batch;
use mpq_exec::eval::EvalError;
use mpq_exec::rowref::execute_ref;
use mpq_exec::{execute, ColumnVec, Database, ExecCtx, ExecError, SchemePlan, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

// G(k, a, b, c, d, e): the group key, a dense Num, a dense Int, a Val
// column with NULLs, a dense Int an input fails on, a Paillier column.
const K: AttrId = AttrId(0);
const A: AttrId = AttrId(1);
const B: AttrId = AttrId(2);
const C: AttrId = AttrId(3);
const D: AttrId = AttrId(4);
const E: AttrId = AttrId(5);

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let cols = [
        ("k", DataType::Int),
        ("a", DataType::Num),
        ("b", DataType::Int),
        ("c", DataType::Int),
        ("d", DataType::Int),
        ("e", DataType::Int),
    ];
    cat.add_relation("G", &cols).expect("a fresh name");
    cat
}

fn key() -> &'static ClusterKey {
    static KEY: OnceLock<ClusterKey> = OnceLock::new();
    KEY.get_or_init(|| ClusterKey::generate(&mut StdRng::seed_from_u64(7), 1, 256))
}

/// The lanes, in order: SUM(a), AVG(b), COUNT(*), COUNT(c), SUM(c),
/// COUNT(DISTINCT c), MIN(a), MAX(c), SUM(e), AVG(a), SUM(d + 1).
fn plan(cat: &Catalog) -> QueryPlan {
    let lane = |k: u32, func, input| AggExpr {
        func,
        input,
        output: AttrId(100 + k),
    };
    let col = Expr::Col;
    let d_plus_one = Expr::arith(col(D), ArithOp::Add, Expr::Lit(Value::Int(1)));
    let aggs = vec![
        lane(0, AggFunc::Sum, col(A)),
        lane(1, AggFunc::Avg, col(B)),
        lane(2, AggFunc::Count, Expr::Lit(Value::Int(1))),
        lane(3, AggFunc::Count, col(C)),
        lane(4, AggFunc::Sum, col(C)),
        lane(5, AggFunc::CountDistinct, col(C)),
        lane(6, AggFunc::Min, col(A)),
        lane(7, AggFunc::Max, col(C)),
        lane(8, AggFunc::Sum, col(E)),
        lane(9, AggFunc::Avg, col(A)),
        lane(10, AggFunc::Sum, d_plus_one),
    ];
    let mut plan = QueryPlan::new();
    let g = cat.relation("G").unwrap();
    let base = plan.add_base(g.rel, g.attrs());
    plan.add(
        Operator::GroupBy {
            keys: vec![K],
            aggs,
        },
        vec![base],
    );
    plan
}

/// What a generated relation may hold besides clean cells.
#[derive(Clone, Copy, Debug, Default)]
struct Faults {
    /// `b` holds values whose SUM overflows.
    overflow: bool,
    /// `c` holds a string, which SUM refuses.
    string: bool,
    /// `d` holds `i64::MAX`, on which `d + 1` fails.
    input: bool,
    /// `e` holds NULLs, so a group may open plaintext and meet a
    /// ciphertext later.
    enc_nulls: bool,
}

fn database(cat: &Catalog, cols: Vec<ColumnVec>) -> Database {
    let mut db = Database::new();
    let g = cat.relation("G").unwrap().rel;
    db.insert(g, Table::from_columns(cat.rel(g).attrs().into(), cols));
    db
}

/// `rows` rows in `groups` groups (`None`: one per row).
fn generate(rng: &mut StdRng, rows: usize, groups: Option<i64>, f: Faults) -> Vec<ColumnVec> {
    let keys = (0..rows as i64).map(|r| groups.map_or(r, |g| rng.gen_range(0..g)));
    let keys = ColumnVec::from_ints(keys.collect());
    // Magnitudes far apart, so that summing out of order moves bits.
    let a = (0..rows).map(|_| {
        let scale = 10f64.powi(rng.gen_range(-3..17));
        (rng.gen::<f64>() - 0.5) * scale
    });
    let a = ColumnVec::from_nums(a.collect());
    let b = (0..rows).map(|_| match rng.gen_range(0..20) {
        0 if f.overflow => i64::MAX - rng.gen_range(0..3),
        _ => rng.gen_range(-50..50),
    });
    let b = ColumnVec::from_ints(b.collect());
    let c = (0..rows).map(|_| match rng.gen_range(0..12) {
        0 | 1 => Value::Null,
        2 if f.string => Value::str("x"),
        3 => Value::Num(f64::from(rng.gen_range(0..4)) / 4.0),
        _ => Value::Int(rng.gen_range(0..6)),
    });
    let c: ColumnVec = c.collect();
    let d = (0..rows).map(|_| match rng.gen_range(0..30) {
        0 if f.input => i64::MAX,
        _ => rng.gen_range(0..9),
    });
    let d = ColumnVec::from_ints(d.collect());
    let e: Vec<Value> = (0..rows)
        .map(|_| match rng.gen_range(0..8) {
            0..=2 if f.enc_nulls => Value::Null,
            _ => Value::Int(rng.gen_range(0..1000)),
        })
        .collect();
    let e = encrypt_batch(rng, &e, EncScheme::Paillier, key()).expect("a key");
    vec![keys, a, b, c, d, e.into_iter().collect()]
}

/// Bit for bit: `-0.0` is not `0.0` here, and a NaN is itself;
/// ciphertexts by their bytes.
fn same_table(a: &Table, b: &Table) -> bool {
    let same = |x: &Value, y: &Value| match (x, y) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        _ => x == y,
    };
    a.attrs() == b.attrs()
        && a.len() == b.len()
        && (0..a.attrs().len()).all(|c| (0..a.len()).all(|r| same(&a.value(c, r), &b.value(c, r))))
}

/// `execute` at batches of 1, 7 and 4,096 against `execute_ref`: the
/// same table or the same error. Returns the oracle's answer.
fn assert_matches_oracle(cat: &Catalog, db: &Database) -> Result<Table, ExecError> {
    assert_plan_matches_oracle(&plan(cat), cat, db)
}

/// [`assert_matches_oracle`] for any plan over `G`.
fn assert_plan_matches_oracle(
    plan: &QueryPlan,
    cat: &Catalog,
    db: &Database,
) -> Result<Table, ExecError> {
    let ring = KeyRing::new();
    ring.insert(key().clone());
    let (schemes, koa) = (SchemePlan::default(), HashMap::new());
    let ctx = |batch_rows| {
        ExecCtx::builder(cat, db, &ring, &schemes, &koa)
            .batch_rows(batch_rows)
            .build()
    };
    let oracle = execute_ref(plan, &ctx(4096));
    for batch_rows in [1, 7, 4096] {
        match (execute(plan, &ctx(batch_rows)), &oracle) {
            (Ok(got), Ok(want)) => assert!(
                same_table(&got, want),
                "batches of {batch_rows}\n{got:?}\n{want:?}"
            ),
            (Err(got), Err(want)) => assert_eq!(&got, want, "batches of {batch_rows}"),
            (got, want) => panic!("batches of {batch_rows}: engine {got:?}, oracle {want:?}"),
        }
    }
    oracle
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Eleven lanes over generated inputs, in few groups and one group
    /// per row, now and then with a fault.
    #[test]
    fn every_lane_folds_as_the_row_oracle(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(0..160);
        let groups = [Some(1), Some(3), None][rng.gen_range(0..3)];
        let mut f = Faults::default();
        match rng.gen_range(0..8) {
            0 => f.overflow = true,
            1 => f.string = true,
            2 => f.input = true,
            3 => f.enc_nulls = true,
            4 => (f.overflow, f.string, f.input) = (true, true, true),
            _ => {}
        }
        let cat = catalog();
        let db = database(&cat, generate(rng, rows, groups, f));
        assert_matches_oracle(&cat, &db).ok();
    }
}

/// Clean inputs run through: the case the proptest's faults leave
/// least often, held on its own over enough rows to span batches.
#[test]
fn clean_lanes_sum_bit_for_bit() {
    let rng = &mut StdRng::seed_from_u64(51);
    let cat = catalog();
    for groups in [Some(4), None] {
        let db = database(&cat, generate(rng, 600, groups, Faults::default()));
        let out = assert_matches_oracle(&cat, &db).expect("clean inputs aggregate");
        assert_eq!(out.len(), groups.map_or(600, |g| g as usize));
    }
}

/// Row 1 fails in two lanes: SUM(c) refuses its string, and `d + 1`
/// overflows. On a row that opens a group every input is evaluated
/// before any accumulator runs, so the input's error is the first; on
/// a row of a group already open the lanes run in order, and SUM(c),
/// lane 4, refuses before lane 10's input is reached.
#[test]
fn two_lanes_failing_on_one_row_fail_as_the_row_walk_does() {
    let cat = catalog();
    for (opens, want_input) in [(true, true), (false, false)] {
        let keys = vec![0, if opens { 1 } else { 0 }, 0];
        let cols = vec![
            ColumnVec::from_ints(keys),
            ColumnVec::from_nums(vec![1.0, 2.0, 3.0]),
            ColumnVec::from_ints(vec![1, 2, 3]),
            ColumnVec::Val(vec![Value::Int(1), Value::str("x"), Value::Int(3)]),
            ColumnVec::from_ints(vec![1, i64::MAX, 3]),
            (encrypt_batch(
                &mut StdRng::seed_from_u64(1),
                &[Value::Int(1), Value::Int(2), Value::Int(3)],
                EncScheme::Paillier,
                key(),
            ))
            .expect("a key")
            .into_iter()
            .collect(),
        ];
        let err = assert_matches_oracle(&cat, &database(&cat, cols)).expect_err("row 1 fails");
        match err {
            ExecError::Eval(EvalError::Overflow(_)) => assert!(want_input, "opens: {opens}"),
            ExecError::Eval(EvalError::TypeError(_)) => assert!(!want_input, "opens: {opens}"),
            other => panic!("opens: {opens}: {other:?}"),
        }
    }
}

/// COUNT of a literal counts rows without evaluating it, unless the
/// literal is NULL, which counts none: COUNT(*), COUNT('x') and
/// COUNT(NULL) beside COUNT(c), grouped and not.
#[test]
fn count_of_a_literal_counts_rows_and_count_of_null_counts_none() {
    let cat = catalog();
    let g = cat.relation("G").unwrap();
    let lane = |k: u32, input| AggExpr {
        func: AggFunc::Count,
        input,
        output: AttrId(100 + k),
    };
    let aggs = vec![
        lane(0, Expr::Lit(Value::Int(1))),
        lane(1, Expr::Lit(Value::Null)),
        lane(2, Expr::Lit(Value::str("x"))),
        lane(3, Expr::Col(C)),
    ];
    let rng = &mut StdRng::seed_from_u64(52);
    for (rows, keys) in [(0, vec![]), (600, vec![]), (600, vec![K])] {
        let mut plan = QueryPlan::new();
        let base = plan.add_base(g.rel, g.attrs());
        let group_by = Operator::GroupBy {
            keys,
            aggs: aggs.clone(),
        };
        plan.add(group_by, vec![base]);
        let db = database(&cat, generate(rng, rows, Some(4), Faults::default()));
        let out = assert_plan_matches_oracle(&plan, &cat, &db).expect("counts never fail");
        let counts = |lane: usize| -> i64 {
            let col = out.attrs().len() - 4 + lane;
            let count = |r| match out.value(col, r) {
                Value::Int(n) => n,
                other => panic!("a count is an integer, not {other:?}"),
            };
            (0..out.len()).map(count).sum()
        };
        assert_eq!(counts(0), rows as i64, "COUNT(*)");
        assert_eq!(counts(1), 0, "COUNT(NULL)");
        assert_eq!(counts(2), rows as i64, "COUNT('x')");
    }
}
