//! The hash operators ≡ the row oracle, on generated key columns.
//!
//! ⋈ and γ find their matches through a key table: key columns hashed
//! in typed loops under a per-table random seed, candidates compared
//! where they lie. The oracle (`mpq_exec::rowref`) nests loops over
//! `cmp_values` and groups through `GroupKey`s in a `HashMap`. Here one
//! to three key columns in every representation — dense `Int`, dense
//! `Num` (integral values, ±0.0, NaN), general `Val` (NULL, strings,
//! dates, booleans, numerics), typed `Str` and `Date` (the same strings
//! and dates, joined against `Val` too), `Enc` Deterministic and `Enc` Random,
//! with and without NULL cells — run through all four join kinds and a
//! group-by with every kind of accumulator, at batches of 1, 7 and
//! 4,096 rows: join pairs in probe × build order,
//! groups in first-seen order, aggregate cells and the first error must
//! all be the oracle's. No result may depend on the hash seed, so the
//! cases whose answer once hung on bucket luck (`Int` = `Num`,
//! `0.0` = `-0.0`) run a hundred times.

use mpq_algebra::expr::{AggExpr, AggFunc};
use mpq_algebra::value::{DataType, EncScheme};
use mpq_algebra::{
    ArithOp, AttrId, Catalog, CmpOp, Date, Expr, JoinKind, Operator, QueryPlan, Value,
};
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_crypto::schemes::encrypt_batch;
use mpq_exec::eval::EvalError;
use mpq_exec::rowref::execute_ref;
use mpq_exec::{execute, ColumnVec, Database, ExecCtx, ExecError, SchemePlan, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

// L(k0, k1, k2, v, w) ⋈ R(j0, j1, j2, p).
const LK: [AttrId; 3] = [AttrId(0), AttrId(1), AttrId(2)];
const V: AttrId = AttrId(3);
const W: AttrId = AttrId(4);
const RK: [AttrId; 3] = [AttrId(5), AttrId(6), AttrId(7)];
const P: AttrId = AttrId(8);

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let int = |name| (name, DataType::Int);
    let left = [int("k0"), int("k1"), int("k2"), int("v"), int("w")];
    cat.add_relation("L", &left).expect("a fresh name");
    cat.add_relation("R", &[int("j0"), int("j1"), int("j2"), int("p")])
        .expect("a fresh name");
    cat
}

/// How a key column is held.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Rep {
    Int,
    Num,
    Val,
    /// Typed strings (`ColumnVec::Str`).
    Text,
    /// Typed dates (`ColumnVec::Date`).
    Day,
    Det,
    Rnd,
}

const REPS: [Rep; 7] = [
    Rep::Int,
    Rep::Num,
    Rep::Val,
    Rep::Text,
    Rep::Day,
    Rep::Det,
    Rep::Rnd,
];

/// One key column of `n` cells out of a domain small enough that keys
/// repeat and match across the two sides.
fn key_column(rng: &mut StdRng, rep: Rep, n: usize, key: &ClusterKey) -> ColumnVec {
    let small = |rng: &mut StdRng| Value::Int(rng.gen_range(0..4));
    let word = |rng: &mut StdRng| Value::str(["", "a", "ab"][rng.gen_range(0..3)]);
    let day = |rng: &mut StdRng| Value::Date(Date(rng.gen_range(0..3)));
    let cells: Vec<Value> = (0..n)
        .map(|_| match rep {
            Rep::Int => small(rng),
            Rep::Text => word(rng),
            Rep::Day => day(rng),
            Rep::Num => Value::Num(match rng.gen_range(0..12) {
                0 => f64::NAN,
                1 => -0.0,
                2 => 1.5,
                _ => f64::from(rng.gen_range(0..4)),
            }),
            Rep::Val => match rng.gen_range(0..8) {
                0 => Value::Null,
                1 => word(rng),
                2 => day(rng),
                3 => Value::Bool(rng.gen()),
                4 => Value::Num(f64::from(rng.gen_range(0..4))),
                _ => small(rng),
            },
            Rep::Det | Rep::Rnd => match rng.gen_range(0..6) {
                0 => Value::Null,
                _ => small(rng),
            },
        })
        .collect();
    let scheme = match rep {
        Rep::Det => EncScheme::Deterministic,
        Rep::Rnd => EncScheme::Random,
        _ => return cells.into_iter().collect(),
    };
    let cells = encrypt_batch(rng, &cells, scheme, key).expect("a key");
    cells.into_iter().collect()
}

/// The representation the other side of a join holds a key in: its own,
/// or — plaintext cells being equal across representations — another
/// plaintext one.
fn other_side(rng: &mut StdRng, rep: Rep) -> Rep {
    const PLAIN: [Rep; 5] = [Rep::Int, Rep::Num, Rep::Val, Rep::Text, Rep::Day];
    match rep {
        Rep::Det | Rep::Rnd => rep,
        _ if rng.gen_range(0..3) == 0 => PLAIN[rng.gen_range(0..PLAIN.len())],
        same => same,
    }
}

struct Fixture {
    cat: Catalog,
    db: Database,
    /// How many key columns a plan uses.
    keys: usize,
    /// Some key column is under Random: equality is refused, not false.
    random: bool,
}

fn fixture(rng: &mut StdRng) -> Fixture {
    let cat = catalog();
    let key = ClusterKey::generate(rng, 1, 256);
    let keys = rng.gen_range(1..4);
    let reps: Vec<Rep> = (0..3).map(|_| REPS[rng.gen_range(0..REPS.len())]).collect();
    let (nl, nr) = (rng.gen_range(0..700), rng.gen_range(0..60));
    let mut left: Vec<ColumnVec> = reps
        .iter()
        .map(|&rep| key_column(rng, rep, nl, &key))
        .collect();
    // v: what the aggregates read — small integers, now and then a
    // cell SUM refuses; w: dense, for the residual.
    let bad = rng.gen_range(0..4) == 0;
    let v = (0..nl).map(|_| match rng.gen_range(0..40) {
        0 if bad => Value::str("x"),
        1 => Value::Null,
        _ => Value::Int(rng.gen_range(-5..6)),
    });
    left.push(v.collect());
    left.push((0..nl as i64).map(Value::Int).collect());
    let mut right: Vec<ColumnVec> = reps
        .iter()
        .map(|&rep| {
            let rep = other_side(rng, rep);
            key_column(rng, rep, nr, &key)
        })
        .collect();
    right.push((0..nr as i64).map(Value::Int).collect());
    let mut db = Database::new();
    let (l, r) = (
        cat.relation("L").unwrap().rel,
        cat.relation("R").unwrap().rel,
    );
    db.insert(l, Table::from_columns(cat.rel(l).attrs().into(), left));
    db.insert(r, Table::from_columns(cat.rel(r).attrs().into(), right));
    let random = reps[..keys].contains(&Rep::Rnd);
    Fixture {
        cat,
        db,
        keys,
        random,
    }
}

fn join_plan(f: &Fixture, kind: JoinKind, residual: Option<Expr>) -> QueryPlan {
    let mut plan = QueryPlan::new();
    let (l, r) = (f.cat.relation("L").unwrap(), f.cat.relation("R").unwrap());
    let (lb, rb) = (
        plan.add_base(l.rel, l.attrs()),
        plan.add_base(r.rel, r.attrs()),
    );
    let on = (0..f.keys).map(|k| (LK[k], CmpOp::Eq, RK[k])).collect();
    plan.add(Operator::Join { kind, on, residual }, vec![lb, rb]);
    plan
}

fn group_plan(f: &Fixture) -> QueryPlan {
    let mut plan = QueryPlan::new();
    let l = f.cat.relation("L").unwrap();
    let base = plan.add_base(l.rel, l.attrs());
    let aggs = vec![
        AggExpr::count_star(W),
        AggExpr::over_col(AggFunc::Sum, V),
        AggExpr::over_col(AggFunc::Avg, W),
        AggExpr::over_col(AggFunc::Min, V),
        AggExpr::over_col(AggFunc::CountDistinct, V),
        // A key column under an accumulator too: every representation
        // meets COUNT(DISTINCT)'s own key table.
        AggExpr::over_col(AggFunc::CountDistinct, LK[2]),
    ];
    let keys = LK[..f.keys].to_vec();
    plan.add(Operator::GroupBy { keys, aggs }, vec![base]);
    plan
}

/// Bit for bit: `-0.0` is not `0.0` here, and a NaN is itself.
fn same_table(a: &Table, b: &Table) -> bool {
    let same = |x: &Value, y: &Value| match (x, y) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        _ => x == y,
    };
    a.attrs() == b.attrs()
        && a.len() == b.len()
        && (0..a.attrs().len()).all(|c| (0..a.len()).all(|r| same(&a.value(c, r), &b.value(c, r))))
}

fn ctx<'a>(
    f: &'a Fixture,
    db: &'a Database,
    env: &'a (KeyRing, SchemePlan, HashMap<AttrId, u32>),
    batch_rows: usize,
) -> ExecCtx<'a> {
    ExecCtx::builder(&f.cat, db, &env.0, &env.1, &env.2)
        .batch_rows(batch_rows)
        .build()
}

/// `execute` at every batch size against `execute_ref`: the
/// same table, or the same error. The one licensed difference: the
/// oracle *refuses* an equality of Random ciphertexts it reaches, where
/// a hash join holds them unequal — there the engine must answer as the
/// oracle does against an empty build side.
fn assert_engine_matches_oracle(f: &Fixture, plan: &QueryPlan) {
    let env = (KeyRing::new(), SchemePlan::default(), HashMap::new());
    let mut oracle = execute_ref(plan, &ctx(f, &f.db, &env, 4096));
    let refused = matches!(
        &oracle,
        Err(ExecError::Eval(EvalError::EncryptedOperation(_)))
    );
    if refused && f.random && matches!(plan.node(plan.root()).op, Operator::Join { .. }) {
        let r = f.cat.relation("R").unwrap();
        let mut no_build = f.db.partition(|_| true);
        no_build.insert(r.rel, Table::new(r.attrs()));
        oracle = execute_ref(plan, &ctx(f, &no_build, &env, 4096));
    }
    for batch_rows in [1, 7, 4096] {
        let what = format!("batches of {batch_rows}: {plan:?}");
        match (execute(plan, &ctx(f, &f.db, &env, batch_rows)), &oracle) {
            (Ok(got), Ok(want)) => assert!(same_table(&got, want), "{what}\n{got:?}\n{want:?}"),
            (Err(got), Err(want)) => assert_eq!(&got, want, "{what}"),
            (got, want) => panic!("engine {got:?}, oracle {want:?}: {what}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every join kind, bare and under a residual, and a group-by, over
    /// generated key columns.
    #[test]
    fn hash_operators_match_the_row_oracle(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let f = fixture(rng);
        let residual = Expr::cmp(
            Expr::arith(Expr::Col(W), ArithOp::Add, Expr::Col(P)),
            CmpOp::Lt,
            Expr::Lit(Value::Int(300)),
        );
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti] {
            assert_engine_matches_oracle(&f, &join_plan(&f, kind, None));
            assert_engine_matches_oracle(&f, &join_plan(&f, kind, Some(residual.clone())));
        }
        assert_engine_matches_oracle(&f, &group_plan(&f));
    }
}

/// L and R hold the given key columns in k0 / j0 (the other columns
/// dense fillers).
fn two_sided(left: ColumnVec, right: ColumnVec) -> Fixture {
    let cat = catalog();
    let filler = |n: usize| -> ColumnVec { (0..n as i64).map(Value::Int).collect() };
    let (nl, nr) = (left.len(), right.len());
    let mut lcols = vec![left];
    lcols.extend((0..4).map(|_| filler(nl)));
    let mut rcols = vec![right];
    rcols.extend((0..3).map(|_| filler(nr)));
    let mut db = Database::new();
    let (l, r) = (
        cat.relation("L").unwrap().rel,
        cat.relation("R").unwrap().rel,
    );
    db.insert(l, Table::from_columns(cat.rel(l).attrs().into(), lcols));
    db.insert(r, Table::from_columns(cat.rel(r).attrs().into(), rcols));
    Fixture {
        cat,
        db,
        keys: 1,
        random: false,
    }
}

/// `Int(2)` equals `Num(2.0)` and `0.0` equals `-0.0`, so they join and
/// group together — under every hash seed, in the engine's key table
/// and in the oracle's `GroupKey` map alike. Each run draws fresh seeds.
#[test]
fn numerics_equal_across_representations_join_and_group_under_every_seed() {
    let left = ColumnVec::from_ints(vec![0, 1, 2, 3, 2]);
    let right = ColumnVec::from_nums(vec![2.0, -0.0, 0.0, 1.5, 3.0]);
    let joined = two_sided(left, right);
    let mixed = vec![
        Value::Num(0.0),
        Value::Int(2),
        Value::Num(-0.0),
        Value::Num(2.0),
        Value::Int(0),
        Value::Num(2.5),
    ];
    let grouped = two_sided(ColumnVec::Val(mixed), ColumnVec::from_ints(vec![]));
    let env = (KeyRing::new(), SchemePlan::default(), HashMap::new());
    for _ in 0..100 {
        let plan = join_plan(&joined, JoinKind::Inner, None);
        let rows = execute(&plan, &ctx(&joined, &joined.db, &env, 4096)).expect("runs");
        // 0 ⋈ {-0.0, 0.0}, 2 ⋈ 2.0 (twice), 3 ⋈ 3.0; 1 meets no 1.0.
        assert_eq!(rows.len(), 5);
        assert_engine_matches_oracle(&joined, &plan);

        let plan = group_plan(&grouped);
        let groups = execute(&plan, &ctx(&grouped, &grouped.db, &env, 4096)).expect("runs");
        // {0.0, -0.0, 0}, {2, 2.0} and {2.5}, each named by its first cell.
        let keys: Vec<Value> = (0..groups.len()).map(|g| groups.value(0, g)).collect();
        assert_eq!(keys, [Value::Num(0.0), Value::Int(2), Value::Num(2.5)]);
        let counts: Vec<Value> = (0..groups.len()).map(|g| groups.value(1, g)).collect();
        assert_eq!(counts, [Value::Int(3), Value::Int(2), Value::Int(1)]);
        assert_engine_matches_oracle(&grouped, &plan);
    }
}

/// A residual — or a non-equality condition — that fails on one
/// candidate fails the join only where the row walk reaches that
/// candidate. `Semi` and `Anti` stop at a probe row's first match, so a
/// failure behind one never surfaces; `Inner` and `LeftOuter` look at
/// every candidate. Of two failures the earlier is the error, whichever
/// of the two sources it comes from.
#[test]
fn a_failing_candidate_fails_the_join_only_where_the_row_walk_reaches_it() {
    let (int, text) = (Value::Int, Value::str);
    // R: j0 the key, j1 what the residual reads, j2 what the condition
    // reads — a string wherever that one is to fail.
    let build = [
        (1, int(1), int(1)),
        (1, text("after"), text("after")),
        (2, text("before"), text("before")),
        (2, int(1), int(1)),
        (3, text("first"), text("first")),
        (4, text("second"), text("second")),
        (5, text("resid"), int(1)),
        (6, int(1), text("cond")),
        (7, int(1), int(1)),
        (8, int(-1), int(1)),
        (8, int(1), int(1)),
    ];
    let fixture = |probe: Vec<i64>| {
        let keys = ColumnVec::from_ints(build.iter().map(|b| b.0).collect());
        let f = two_sided(ColumnVec::from_ints(probe), keys);
        let (l, r) = (f.cat.relation("L").unwrap(), f.cat.relation("R").unwrap());
        let mut lcols = f.db.table(l.rel).unwrap().clone().into_columns();
        // w = 0: below the condition's 1, unordered against a string.
        lcols[4] = std::iter::repeat_n(int(0), lcols[0].len()).collect();
        let mut rcols = f.db.table(r.rel).unwrap().clone().into_columns();
        rcols[1] = build.iter().map(|b| b.1.clone()).collect();
        rcols[2] = build.iter().map(|b| b.2.clone()).collect();
        let mut db = Database::new();
        db.insert(l.rel, Table::from_columns(l.attrs().into(), lcols));
        db.insert(r.rel, Table::from_columns(r.attrs().into(), rcols));
        Fixture { db, ..f }
    };
    let plan_of = |f: &Fixture, kind, residual: Option<Expr>, condition: bool| {
        let mut plan = QueryPlan::new();
        let (l, r) = (f.cat.relation("L").unwrap(), f.cat.relation("R").unwrap());
        let (lb, rb) = (
            plan.add_base(l.rel, l.attrs()),
            plan.add_base(r.rel, r.attrs()),
        );
        let mut on = vec![(LK[0], CmpOp::Eq, RK[0])];
        on.extend(condition.then_some((W, CmpOp::Lt, RK[2])));
        plan.add(Operator::Join { kind, on, residual }, vec![lb, rb]);
        plan
    };
    let residual = Expr::cmp(Expr::Col(RK[1]), CmpOp::Gt, Expr::Lit(int(0)));
    // The residual alone, the condition alone, both.
    let variants = [
        (Some(&residual), false),
        (None, true),
        (Some(&residual), true),
    ];
    let kinds = [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::Semi,
        JoinKind::Anti,
    ];
    let env = (KeyRing::new(), SchemePlan::default(), HashMap::new());
    let fails_on = |got: Result<Table, ExecError>, cell: &str| matches!(got, Err(ExecError::Eval(EvalError::TypeError(m))) if m.contains(cell));

    // Every probe row matches — a key 8 row on its second candidate
    // only — and a key 1 row then fails: only the kinds that look on see
    // it, on every other row, so `Semi` and `Anti` judge the batch one
    // probe row at a time.
    let f = fixture([1, 8].repeat(300));
    for (residual, condition) in variants {
        for kind in kinds {
            let plan = plan_of(&f, kind, residual.cloned(), condition);
            let got = execute(&plan, &ctx(&f, &f.db, &env, 4096));
            match kind {
                JoinKind::Semi => assert_eq!(got.expect("nothing reached").len(), 600),
                JoinKind::Anti => assert!(got.expect("nothing reached").is_empty()),
                _ => assert!(fails_on(got, "after"), "{kind:?}"),
            }
            assert_engine_matches_oracle(&f, &plan);
        }
    }

    // Behind 300 clean matches: a failure before any match fails every
    // kind, and of two failing rows the earlier one's error wins — per
    // variant, as it comes first in walk order.
    let clean = || std::iter::repeat_n(7, 300);
    for (tail, errors) in [
        (vec![2, 7], ["before"; 3]),
        (vec![3, 4], ["first"; 3]),
        (vec![4, 3], ["second"; 3]),
        (vec![5, 6], ["resid", "cond", "resid"]),
        (vec![6, 5], ["resid", "cond", "cond"]),
    ] {
        let f = fixture(clean().chain(tail).collect());
        for ((residual, condition), error) in variants.into_iter().zip(errors) {
            for kind in kinds {
                let plan = plan_of(&f, kind, residual.cloned(), condition);
                let got = execute(&plan, &ctx(&f, &f.db, &env, 4096));
                assert!(fails_on(got, error), "{kind:?} should fail on {error}");
                assert_engine_matches_oracle(&f, &plan);
            }
        }
    }
}

/// γ folds a batch one aggregate column at a time, yet fails where a
/// row-at-a-time scan would: on the first failing *row*, with the first
/// failing aggregate's error there.
#[test]
fn a_group_by_reports_the_first_failing_row_of_a_batch() {
    let cat = catalog();
    let l = cat.relation("L").unwrap().clone();
    // v overflows SUM on row 9; w holds a string on row 5.
    let mut v = vec![0i64; 12];
    (v[0], v[9]) = (i64::MAX, 1);
    let mut w: Vec<Value> = (0..12).map(Value::Int).collect();
    w[5] = Value::str("five");
    let key = |_| -> ColumnVec { std::iter::repeat_n(Value::Int(1), 12).collect() };
    let mut cols: Vec<ColumnVec> = (0..3).map(key).collect();
    cols.extend([ColumnVec::from_ints(v), ColumnVec::Val(w)]);
    let mut db = Database::new();
    db.insert(l.rel, Table::from_columns(l.attrs().into(), cols));
    let f = Fixture {
        cat,
        db,
        keys: 1,
        random: false,
    };
    let sum = |col| AggExpr::over_col(AggFunc::Sum, col);
    let plan_of = |aggs: Vec<AggExpr>| {
        let mut plan = QueryPlan::new();
        let base = plan.add_base(l.rel, l.attrs());
        plan.add(
            Operator::GroupBy {
                keys: vec![LK[0]],
                aggs,
            },
            vec![base],
        );
        plan
    };
    let env = (KeyRing::new(), SchemePlan::default(), HashMap::new());
    let error = |plan: &QueryPlan| execute(plan, &ctx(&f, &f.db, &env, 4096)).unwrap_err();

    // Row 5's type error, though SUM(v) is folded first and fails too.
    let plan = plan_of(vec![sum(V), sum(W)]);
    assert!(matches!(error(&plan), ExecError::Eval(EvalError::TypeError(m)) if m.contains("five")));
    assert_engine_matches_oracle(&f, &plan);
    // Alone, SUM(v) fails on row 9.
    let plan = plan_of(vec![sum(V)]);
    assert!(matches!(error(&plan), ExecError::Eval(EvalError::Overflow(m)) if m.contains("SUM")));
    assert_engine_matches_oracle(&f, &plan);

    // An input the evaluator refuses on row 5 (w + 1 over a string)
    // against an accumulator that refuses row 9: row 5 again — and with
    // the two the other way round.
    let w_plus_1 = AggExpr {
        func: AggFunc::Max,
        input: Expr::arith(Expr::Col(W), ArithOp::Add, Expr::Lit(Value::Int(1))),
        output: W,
    };
    for aggs in [
        vec![sum(V), w_plus_1.clone()],
        vec![w_plus_1.clone(), sum(V)],
    ] {
        let plan = plan_of(aggs);
        assert!(matches!(
            error(&plan),
            ExecError::Eval(EvalError::TypeError(_))
        ));
        assert_engine_matches_oracle(&f, &plan);
    }

    // On the row that opens a group every input is checked before any
    // accumulator runs: grouped by w itself, row 5 opens the group of
    // "five", where SUM(w) would refuse the string — but w + 1, a later
    // aggregate, has already been refused.
    let mut plan = QueryPlan::new();
    let base = plan.add_base(l.rel, l.attrs());
    let aggs = vec![sum(W), w_plus_1];
    plan.add(
        Operator::GroupBy {
            keys: vec![W],
            aggs,
        },
        vec![base],
    );
    assert!(
        matches!(error(&plan), ExecError::Eval(EvalError::TypeError(m)) if m.contains("arithmetic"))
    );
    assert_engine_matches_oracle(&f, &plan);
}
