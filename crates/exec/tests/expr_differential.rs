//! The column evaluator ≡ the row walk, on generated expressions.
//!
//! `mpq_exec::eval` has two traversals over one set of cell rules: the
//! engine's `eval_column` / `eval_mask` (a sub-expression at a time
//! over a batch) and the oracle's `eval` / `eval_pred` (an expression
//! at a time over a row). Here random expression trees over every
//! `Expr` variant meet random batches in every column representation —
//! dense `Int` and `Num` (NaN, ±0.0, `i64::MAX`), general `Val` (NULL,
//! strings, dates, booleans, mixed numerics), typed `Str` and `Date`
//! beside the `Val` strings and dates, and `Enc` under
//! Deterministic, OPE and Random with NULL cells — and must agree cell
//! for cell. They must also *fail* alike: when the row walk fails on
//! some row, the column evaluator reports that very row and error, and
//! when it does not, neither does the other — so `FALSE AND overflow`
//! stays quiet and `TRUE AND overflow` stays `Overflow`.
//!
//! The same expressions then run through `execute` under Select,
//! Having, GroupBy, Sort and Udf at batches of 1, 7 and 4,096 rows, against the row oracle `execute_ref`. The
//! pinned cases at the bottom state the rules one by one.

use mpq_algebra::expr::{AggExpr, AggFunc, DateField};
use mpq_algebra::value::{DataType, EncColumn, EncScheme, EncValue};
use mpq_algebra::{ArithOp, AttrId, Catalog, CmpOp, Date, Expr, Operator, QueryPlan, RelId, Value};
use mpq_crypto::keyring::KeyRing;
use mpq_exec::eval::{eval_column, eval_mask, EvalError};
use mpq_exec::rowref::{eval, eval_pred, execute_ref, RowCtx};
use mpq_exec::{execute, ColumnVec, Database, ExecCtx, ExecError, SchemePlan, Table, TableSchema};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

// The fixture relation, one column per representation.
const INT: AttrId = AttrId(0); // dense Int, extremes included
const NUM: AttrId = AttrId(1); // dense Num, NaN and ±0.0 included
const MIXED: AttrId = AttrId(2); // Val: NULL, Str, Date, Bool, Int, Num
const STR: AttrId = AttrId(3); // Val: strings and NULL
const DAY: AttrId = AttrId(4); // Val: dates, sometimes NULL
const DET: AttrId = AttrId(5); // Enc Deterministic, NULL cells
const OPE: AttrId = AttrId(6); // Enc OPE, NULL cells
const RND: AttrId = AttrId(7); // Enc Random, NULL cells
const KEY: AttrId = AttrId(8); // dense Int, six values
const OPE2: AttrId = AttrId(9); // Enc OPE under OPE's key
const CLEAN: AttrId = AttrId(10); // dense Num, nothing hostile
const TSTR: AttrId = AttrId(11); // typed Str: STR's strings, no NULL
const TDAY: AttrId = AttrId(12); // typed Date: DAY's dates, no NULL
const UNKNOWN: AttrId = AttrId(99);
const ALL: [AttrId; 13] = [
    INT, NUM, MIXED, STR, DAY, DET, OPE, RND, KEY, OPE2, CLEAN, TSTR, TDAY,
];
const WORDS: [&str; 6] = ["", "a", "ab", "PROMO x", "ünï", "a%b_c"];

fn pick<T: Clone>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())].clone()
}

fn cipher(scheme: EncScheme, key_id: u32, byte: u8) -> Value {
    Value::Enc(EncValue {
        scheme,
        key_id,
        bytes: Arc::from(&[byte, 7][..]),
    })
}

fn gen_int(rng: &mut StdRng, hostile: bool) -> i64 {
    if hostile && rng.gen_range(0..6) == 0 {
        pick(rng, &[i64::MAX, i64::MIN, i64::MAX - 1])
    } else {
        rng.gen_range(-3..4)
    }
}

fn gen_num(rng: &mut StdRng, hostile: bool) -> f64 {
    if hostile && rng.gen_range(0..6) == 0 {
        pick(rng, &[f64::NAN, 0.0, -0.0, f64::INFINITY])
    } else {
        f64::from(rng.gen_range(-4..5)) / 2.0
    }
}

fn gen_mixed(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..7) {
        0 => Value::Null,
        1 => Value::str(pick(rng, &WORDS)),
        2 => Value::Date(Date(rng.gen_range(0..5))),
        3 => Value::Bool(rng.gen()),
        4 | 5 => Value::Int(rng.gen_range(-2..3)),
        _ => Value::Num(gen_num(rng, false)),
    }
}

/// `n` rows of the fixture relation. A `hostile` table carries what
/// makes expressions fail (integer extremes, NaN); a tame one lets deep
/// trees run to the end.
fn gen_table(rng: &mut StdRng, n: usize, hostile: bool) -> Table {
    let enc = |rng: &mut StdRng, scheme| {
        let mut col = EncColumn::new(scheme, 1);
        for _ in 0..n {
            match rng.gen_range(0..5) {
                0 => col.push(&[]),
                _ => col.push(&[rng.gen_range(0..4), 7]),
            }
        }
        ColumnVec::Enc(col)
    };
    let nullable = |rng: &mut StdRng, v: Value| match rng.gen_range(0..6) {
        0 => Value::Null,
        _ => v,
    };
    let all_days = rng.gen::<bool>();
    let cols = vec![
        ColumnVec::Int((0..n).map(|_| gen_int(rng, hostile)).collect()),
        ColumnVec::Num((0..n).map(|_| gen_num(rng, hostile)).collect()),
        ColumnVec::Val((0..n).map(|_| gen_mixed(rng)).collect()),
        ColumnVec::Val(
            (0..n)
                .map(|_| {
                    let word = Value::str(pick(rng, &WORDS));
                    nullable(rng, word)
                })
                .collect(),
        ),
        ColumnVec::Val(
            (0..n)
                .map(|_| {
                    let day = Value::Date(Date(rng.gen_range(0..5)));
                    if all_days {
                        day
                    } else {
                        nullable(rng, day)
                    }
                })
                .collect(),
        ),
        enc(rng, EncScheme::Deterministic),
        enc(rng, EncScheme::Ope),
        enc(rng, EncScheme::Random),
        ColumnVec::Int((0..n).map(|_| rng.gen_range(-2..4)).collect()),
        enc(rng, EncScheme::Ope),
        ColumnVec::Num((0..n).map(|_| gen_num(rng, false)).collect()),
        (0..n).map(|_| Value::str(pick(rng, &WORDS))).collect(),
        (0..n)
            .map(|_| Value::Date(Date(rng.gen_range(0..5))))
            .collect(),
    ];
    Table::from_columns(TableSchema::new(ALL.to_vec()), cols)
}

/// The columns an expression generator may draw from, by kind. Above a
/// group-by the pools shrink to its output and `aggs` opens up.
#[derive(Clone)]
struct Pools {
    ints: Vec<AttrId>,
    nums: Vec<AttrId>,
    strs: Vec<AttrId>,
    days: Vec<AttrId>,
    others: Vec<AttrId>,
    encs: Vec<(AttrId, EncScheme)>,
    aggs: usize,
}

fn base_pools() -> Pools {
    Pools {
        ints: vec![INT, KEY],
        nums: vec![NUM, CLEAN],
        strs: vec![STR, TSTR],
        days: vec![DAY, TDAY],
        others: vec![MIXED, UNKNOWN],
        encs: vec![
            (DET, EncScheme::Deterministic),
            (OPE, EncScheme::Ope),
            (OPE2, EncScheme::Ope),
            (RND, EncScheme::Random),
        ],
        aggs: 0,
    }
}

struct Gen<'a> {
    rng: &'a mut StdRng,
    pools: Pools,
}

impl Gen<'_> {
    fn lit_int(&mut self) -> Expr {
        let v = match self.rng.gen_range(0..8) {
            0 => i64::MAX,
            1 => 0,
            _ => self.rng.gen_range(-3..4),
        };
        Expr::Lit(Value::Int(v))
    }

    fn lit_num(&mut self) -> Expr {
        let hostile = self.rng.gen_range(0..4) == 0;
        Expr::Lit(Value::Num(gen_num(self.rng, hostile)))
    }

    /// A numeric-valued expression (mostly).
    fn num(&mut self, depth: u32) -> Expr {
        let leaf = depth == 0 || self.rng.gen_range(0..3) == 0;
        if leaf {
            return match self.rng.gen_range(0..10) {
                0..=2 if !self.pools.ints.is_empty() => Expr::Col(pick(self.rng, &self.pools.ints)),
                3..=4 if !self.pools.nums.is_empty() => Expr::Col(pick(self.rng, &self.pools.nums)),
                5 => self.lit_int(),
                6 => self.lit_num(),
                7 => Expr::AggRef(self.rng.gen_range(0..self.pools.aggs + 1)),
                8 => Expr::Lit(Value::Null),
                _ => self.any_col(),
            };
        }
        match self.rng.gen_range(0..6) {
            0..=2 => {
                let op = pick(
                    self.rng,
                    &[ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div],
                );
                Expr::arith(self.num(depth - 1), op, self.num(depth - 1))
            }
            3 => self.case(depth, |g, d| g.num(d)),
            4 => Expr::Extract {
                field: DateField::Year,
                expr: Box::new(self.day(depth - 1)),
            },
            _ => self.value(depth - 1),
        }
    }

    fn str(&mut self, depth: u32) -> Expr {
        match self.rng.gen_range(0..6) {
            0 => Expr::Lit(Value::str(pick(self.rng, &WORDS))),
            1 if depth > 0 => Expr::Substring {
                expr: Box::new(self.str(depth - 1)),
                start: self.rng.gen_range(0..4),
                len: pick(self.rng, &[0, 1, 2, usize::MAX]),
            },
            2 if depth > 0 => self.case(depth, |g, d| g.str(d)),
            3 if depth > 0 => self.value(depth - 1),
            _ if !self.pools.strs.is_empty() => Expr::Col(pick(self.rng, &self.pools.strs)),
            _ => Expr::Lit(Value::str("a")),
        }
    }

    fn day(&mut self, depth: u32) -> Expr {
        match self.rng.gen_range(0..6) {
            0 => Expr::Lit(Value::Date(Date(self.rng.gen_range(0..5)))),
            1 if depth > 0 => {
                let op = pick(self.rng, &[ArithOp::Add, ArithOp::Sub, ArithOp::Mul]);
                Expr::arith(self.day(depth - 1), op, self.lit_int())
            }
            2 if depth > 0 => self.value(depth - 1),
            _ if !self.pools.days.is_empty() => Expr::Col(pick(self.rng, &self.pools.days)),
            _ => Expr::Lit(Value::Date(Date(2))),
        }
    }

    /// Some column, whatever it holds — and sometimes one that is not
    /// there.
    fn any_col(&mut self) -> Expr {
        let p = &self.pools;
        let encs = p.encs.iter().map(|(a, _)| *a);
        let all: Vec<AttrId> = (p.ints.iter().chain(&p.nums).chain(&p.strs))
            .chain(p.days.iter().chain(&p.others))
            .copied()
            .chain(encs)
            .collect();
        Expr::Col(pick(self.rng, &all))
    }

    /// An expression of any kind.
    fn value(&mut self, depth: u32) -> Expr {
        match self.rng.gen_range(0..6) {
            0 => self.num(depth),
            1 => self.str(depth),
            2 => self.day(depth),
            3 => self.pred(depth),
            4 => self.any_col(),
            _ => Expr::Lit(gen_mixed(self.rng)),
        }
    }

    fn case(&mut self, depth: u32, mut out: impl FnMut(&mut Self, u32) -> Expr) -> Expr {
        let branches = (0..self.rng.gen_range(1..3))
            .map(|_| (self.pred(depth - 1), out(self, depth - 1)))
            .collect();
        let else_ = (self.rng.gen::<bool>()).then(|| Box::new(out(self, depth - 1)));
        Expr::Case { branches, else_ }
    }

    /// A ciphertext column and a literal to compare it with: mostly
    /// under its scheme and key, sometimes not, sometimes plaintext.
    fn enc_pair(&mut self) -> (Expr, Expr) {
        let (attr, scheme) = pick(self.rng, &self.pools.encs);
        let other = match self.rng.gen_range(0..8) {
            0 => Expr::Lit(Value::Int(1)),
            1 => Expr::Lit(cipher(scheme, 2, 1)),
            2 => Expr::Lit(cipher(EncScheme::Deterministic, 1, 1)),
            3 => Expr::Col(pick(self.rng, &self.pools.encs).0),
            4 => Expr::Lit(Value::Null),
            _ => Expr::Lit(cipher(scheme, 1, self.rng.gen_range(0..4))),
        };
        (Expr::Col(attr), other)
    }

    /// A predicate (mostly).
    fn pred(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return match self.rng.gen_range(0..4) {
                0 => Expr::Lit(Value::Bool(self.rng.gen())),
                1 => Expr::Lit(Value::Null),
                _ => self.cmp(0),
            };
        }
        let d = depth - 1;
        match self.rng.gen_range(0..12) {
            0..=2 => self.cmp(d),
            3 => Expr::And(
                (0..self.rng.gen_range(0..4))
                    .map(|_| self.pred(d))
                    .collect(),
            ),
            4 => Expr::Or(
                (0..self.rng.gen_range(0..4))
                    .map(|_| self.pred(d))
                    .collect(),
            ),
            5 => Expr::Not(Box::new(self.pred(d))),
            6 => Expr::Like {
                expr: Box::new(self.str(d)),
                pattern: pick(self.rng, &["%", "a%", "%b", "_", "%_b%", "PROMO%", "ü__"]).into(),
                negated: self.rng.gen(),
            },
            7 => Expr::Between {
                expr: Box::new(self.num(d)),
                lo: Box::new(self.num(d)),
                hi: Box::new(self.num(d)),
                negated: self.rng.gen(),
            },
            8 => {
                let (expr, list) = if !self.pools.encs.is_empty() && self.rng.gen::<bool>() {
                    let (attr, scheme) = pick(self.rng, &self.pools.encs);
                    let list = vec![cipher(scheme, 1, 0), cipher(scheme, 1, 2), Value::Null];
                    (Expr::Col(attr), list)
                } else {
                    let list = (0..self.rng.gen_range(0..4)).map(|_| gen_mixed(self.rng));
                    let list = list.collect();
                    (self.value(d), list)
                };
                Expr::InList {
                    expr: Box::new(expr),
                    list,
                    negated: self.rng.gen(),
                }
            }
            9 => Expr::IsNull {
                expr: Box::new(self.value(d)),
                negated: self.rng.gen(),
            },
            10 => self.case(depth, |g, d| g.pred(d)),
            _ => self.value(d),
        }
    }

    fn cmp(&mut self, depth: u32) -> Expr {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let op = pick(self.rng, &ops);
        let (a, b) = match self.rng.gen_range(0..8) {
            0..=2 => (self.num(depth), self.num(depth)),
            3 => (self.str(depth), self.str(depth)),
            4 => (self.day(depth), self.day(depth)),
            5 | 6 if !self.pools.encs.is_empty() => self.enc_pair(),
            _ => (self.value(depth), self.value(depth)),
        };
        if self.rng.gen_range(0..4) == 0 {
            Expr::cmp(b, op, a)
        } else {
            Expr::cmp(a, op, b)
        }
    }
}

/// Structural equality with NaN equal to itself and `0.0 ≠ -0.0`.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn same_table(a: &Table, b: &Table) -> bool {
    a.attrs() == b.attrs()
        && a.len() == b.len()
        && (0..a.attrs().len()).all(|c| {
            (0..a.len()).all(|r| same_value(&a.value(c, r), &b.value(c, r)))
                && a.column(c).byte_size() == b.column(c).byte_size()
        })
}

/// The row walk over `rows` of `table`: each row's answer up to the
/// first failing row, and that row with its error.
fn row_walk<T>(
    table: &Table,
    agg_base: Option<usize>,
    rows: std::ops::Range<usize>,
    walk: impl Fn(&RowCtx<'_>) -> Result<T, EvalError>,
) -> (Vec<T>, Option<(usize, EvalError)>) {
    let mut out = Vec::new();
    for r in rows.clone() {
        let row = table.row(r);
        let ctx = RowCtx::plain(table.attrs(), &row).with_agg_base(agg_base);
        match walk(&ctx) {
            Ok(v) => out.push(v),
            Err(e) => return (out, Some((r - rows.start, e))),
        }
    }
    (out, None)
}

/// `eval_column` and `eval_mask` (over all rows and over a sub-range)
/// against the row walk: same cells, same failing row, same error.
fn assert_agrees(
    expr: &Expr,
    table: &Table,
    agg_base: Option<usize>,
    range: std::ops::Range<usize>,
) {
    let (cells, failed) = row_walk(table, agg_base, 0..table.len(), |ctx| eval(expr, ctx));
    let (column, column_failed) = eval_column(expr, table, agg_base);
    assert_eq!(
        column_failed, failed,
        "eval_column fails as the row walk: {expr:?}"
    );
    for (r, cell) in cells.iter().enumerate() {
        let got = column.get(r);
        assert!(
            same_value(&got, cell),
            "row {r}: {got:?} vs {cell:?}: {expr:?}"
        );
    }
    for rows in [0..table.len(), range] {
        let (truths, failed) = row_walk(table, agg_base, rows.clone(), |ctx| eval_pred(expr, ctx));
        match (eval_mask(expr, table, agg_base, rows), failed) {
            (Ok(mask), None) => assert_eq!(mask, truths, "{expr:?}"),
            (Err(e), Some((_, want))) => assert_eq!(e, want, "{expr:?}"),
            (got, want) => panic!("eval_mask {got:?}, row walk fails with {want:?}: {expr:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Any expression, any batch: the two traversals agree cell for
    /// cell and error for error.
    #[test]
    fn column_evaluator_matches_the_row_walk(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let n = pick(rng, &[0, 1, 2, 9, 40]);
        let hostile = rng.gen();
        let table = gen_table(rng, n, hostile);
        let (from, to) = (rng.gen_range(0..n + 1), rng.gen_range(0..n + 1));
        let range = from.min(to)..from.max(to);
        let agg_base = pick(rng, &[None, Some(0), Some(9)]);
        let mut pools = base_pools();
        pools.aggs = 3;
        let mut gen = Gen { rng, pools };
        for _ in 0..12 {
            let expr = match gen.rng.gen_range(0..3) {
                0 => gen.pred(4),
                1 => gen.num(4),
                _ => gen.value(4),
            };
            assert_agrees(&expr, &table, agg_base, range.clone());
            // The generic rewrite with nothing to rewrite is the
            // identity (by text: a NaN literal is not `==` itself).
            prop_assert_eq!(format!("{:?}", expr.map(|_| None)), format!("{expr:?}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Through `execute`
// ---------------------------------------------------------------------------

fn fixture(rng: &mut StdRng, n: usize, hostile: bool) -> (Catalog, Database, RelId) {
    let mut cat = Catalog::new();
    let names = [
        "i", "n", "m", "s", "d", "ed", "eo", "er", "k", "eo2", "c", "ts", "td",
    ];
    let columns: Vec<(&str, DataType)> = names.iter().map(|c| (*c, DataType::Int)).collect();
    let rel = cat.add_relation("T", &columns).expect("a relation");
    assert_eq!(cat.rel(rel).attrs(), ALL);
    let mut db = Database::new();
    db.insert(rel, gen_table(rng, n, hostile));
    (cat, db, rel)
}

/// `execute` at every batch size against `execute_ref`: the same
/// table, or the same error.
fn assert_engine_matches_oracle(cat: &Catalog, db: &Database, plan: &QueryPlan) {
    let (keys, schemes, koa) = (KeyRing::new(), SchemePlan::default(), HashMap::new());
    let oracle = execute_ref(plan, &ExecCtx::new(cat, db, &keys, &schemes, &koa));
    for batch_rows in [1, 7, 4096] {
        let ctx = ExecCtx::builder(cat, db, &keys, &schemes, &koa)
            .batch_rows(batch_rows)
            .build();
        let what = format!("batches of {batch_rows}: {plan:?}");
        match (execute(plan, &ctx), &oracle) {
            (Ok(got), Ok(want)) => assert!(same_table(&got, want), "{what}"),
            (Err(got), Err(want)) => assert_eq!(&got, want, "{what}"),
            (got, want) => panic!("engine {got:?}, oracle {want:?}: {what}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Select, Udf, GroupBy and Sort over the base relation, Having and
    /// Sort over a group-by: one generated expression each, every batch
    /// size, against the row oracle. 700 rows: a hundred batches of 7.
    #[test]
    fn operators_match_the_row_oracle(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let hostile = rng.gen_range(0..3) == 0;
        let (cat, db, rel) = fixture(rng, 700, hostile);
        let scan = |plan: &mut QueryPlan| plan.add_base(rel, ALL.to_vec());
        let mut gen = Gen { rng, pools: base_pools() };

        let mut plan = QueryPlan::new();
        let base = scan(&mut plan);
        plan.add(Operator::Select { pred: gen.pred(3) }, vec![base]);
        assert_engine_matches_oracle(&cat, &db, &plan);

        let mut plan = QueryPlan::new();
        let base = scan(&mut plan);
        let udf = Operator::Udf {
            name: "f".into(),
            inputs: vec![INT, NUM],
            output: INT,
            body: Some(gen.value(3)),
        };
        plan.add(udf, vec![base]);
        assert_engine_matches_oracle(&cat, &db, &plan);

        let funcs = [
            AggFunc::Count, AggFunc::CountDistinct, AggFunc::Sum,
            AggFunc::Avg, AggFunc::Min, AggFunc::Max,
        ];
        let mut plan = QueryPlan::new();
        let base = scan(&mut plan);
        let aggs = [INT, NUM, STR].map(|output| AggExpr {
            func: pick(gen.rng, &funcs),
            input: gen.value(2),
            output,
        });
        let group = Operator::GroupBy { keys: vec![KEY], aggs: aggs.to_vec() };
        plan.add(group, vec![base]);
        assert_engine_matches_oracle(&cat, &db, &plan);

        let mut plan = QueryPlan::new();
        let base = scan(&mut plan);
        let keys = (0..gen.rng.gen_range(1..4)).map(|_| (gen.value(2), gen.rng.gen())).collect();
        plan.add(Operator::Sort { keys }, vec![base]);
        assert_engine_matches_oracle(&cat, &db, &plan);

        // Above a group-by that cannot fail: keys first, aggregates
        // after, `AggRef` live.
        gen.pools = Pools {
            ints: vec![KEY, INT],
            nums: vec![CLEAN],
            strs: vec![STR],
            days: vec![],
            others: vec![UNKNOWN],
            encs: vec![],
            aggs: 3,
        };
        let group = Operator::GroupBy {
            keys: vec![KEY],
            aggs: vec![
                AggExpr::count_star(INT),
                AggExpr::over_col(AggFunc::Sum, CLEAN),
                AggExpr::over_col(AggFunc::Min, STR),
            ],
        };
        for above in [
            Operator::Having { pred: gen.pred(3) },
            Operator::Sort { keys: vec![(gen.num(2), gen.rng.gen()), (gen.value(2), true)] },
        ] {
            let mut plan = QueryPlan::new();
            let base = scan(&mut plan);
            let grouped = plan.add(group.clone(), vec![base]);
            plan.add(above, vec![grouped]);
            assert_engine_matches_oracle(&cat, &db, &plan);
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned cases
// ---------------------------------------------------------------------------

fn ints(attrs: &[AttrId], cols: &[&[i64]]) -> Table {
    let cols = cols.iter().map(|c| ColumnVec::Int(c.to_vec())).collect();
    Table::from_columns(TableSchema::new(attrs.to_vec()), cols)
}

fn int(v: i64) -> Expr {
    Expr::Lit(Value::Int(v))
}

fn failed(expr: &Expr, table: &Table) -> Option<(usize, EvalError)> {
    assert_agrees(expr, table, None, 0..table.len());
    eval_column(expr, table, None).1
}

fn column(expr: &Expr, table: &Table) -> Vec<Value> {
    assert_eq!(failed(expr, table), None);
    eval_column(expr, table, None).0.iter().collect()
}

/// A sort under several keys, one over cells of every kind: holding
/// incomparable cells equal made the comparator intransitive, and the
/// standard sort panicked on most such tables — engine and oracle
/// alike. Both now sort by one total order.
#[test]
fn a_sort_over_mixed_kinds_runs_to_the_end() {
    for seed in 0..20 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (cat, db, rel) = fixture(rng, 700, seed % 2 == 0);
        let is_null = Expr::IsNull {
            expr: Box::new(Expr::Col(OPE2)),
            negated: false,
        };
        let keys = vec![
            (is_null, false),
            (Expr::Col(MIXED), true),
            (Expr::Col(TSTR), false),
        ];
        let mut plan = QueryPlan::new();
        let base = plan.add_base(rel, ALL.to_vec());
        plan.add(Operator::Sort { keys }, vec![base]);
        assert_engine_matches_oracle(&cat, &db, &plan);
    }
}

/// `a > 0 AND b + i64::MAX > 0`: the sum is computed for the rows with
/// `a > 0` only, so it overflows only when one of them has `b > 0`.
#[test]
fn a_conjunct_sees_only_the_rows_the_ones_before_it_left_open() {
    let (a, b) = (AttrId(0), AttrId(1));
    let sum = Expr::arith(Expr::Col(b), ArithOp::Add, int(i64::MAX));
    let pred = Expr::And(vec![
        Expr::cmp(Expr::Col(a), CmpOp::Gt, int(0)),
        Expr::cmp(sum, CmpOp::Gt, int(0)),
    ]);
    // Row 1 would overflow, but `a > 0` already said no.
    let quiet = ints(&[a, b], &[&[1, 0, 2], &[0, 5, -1]]);
    let mask = eval_mask(&pred, &quiet, None, 0..3).expect("FALSE AND overflow stays quiet");
    assert_eq!(mask, [Some(true), Some(false), Some(true)]);
    assert_eq!(failed(&pred, &quiet), None);
    // Row 2 has `a > 0` and overflows; row 1 still does not count.
    let loud = ints(&[a, b], &[&[1, 0, 2, 3], &[0, 5, 1, 1]]);
    assert!(matches!(
        failed(&pred, &loud),
        Some((2, EvalError::Overflow(_)))
    ));
    assert!(matches!(
        eval_mask(&pred, &loud, None, 0..4),
        Err(EvalError::Overflow(_))
    ));
    // OR mirrors it: a TRUE disjunct shields the row.
    let either = Expr::Or(match pred {
        Expr::And(parts) => parts,
        _ => unreachable!(),
    });
    let shielded = ints(&[a, b], &[&[1, 0, 2], &[5, 0, 1]]);
    assert_eq!(failed(&either, &shielded), None);
    assert!(matches!(
        failed(&either, &quiet),
        Some((1, EvalError::Overflow(_)))
    ));
}

#[test]
fn a_case_branch_is_reached_only_by_its_own_rows() {
    let (a, b) = (AttrId(0), AttrId(1));
    let table = ints(&[a, b], &[&[0, 1, 0, 1], &[i64::MAX, 1, 2, 3]]);
    let double = Expr::arith(Expr::Col(b), ArithOp::Mul, int(2));
    let case = |else_| Expr::Case {
        branches: vec![(Expr::col_eq(a, Value::Int(1)), double.clone())],
        else_,
    };
    // Rows 0 and 2 never reach the doubling; without ELSE they are NULL.
    let v = Value::Int;
    assert_eq!(
        column(&case(None), &table),
        [Value::Null, v(2), Value::Null, v(6)]
    );
    assert_eq!(
        column(&case(Some(Box::new(Expr::Col(b)))), &table),
        [v(i64::MAX), v(2), v(2), v(6)]
    );
    // An ELSE that doubles is reached by row 0, and by nothing before it.
    let else_doubles = case(Some(Box::new(double.clone())));
    assert!(matches!(
        failed(&else_doubles, &table),
        Some((0, EvalError::Overflow(_)))
    ));
}

#[test]
fn arithmetic_keeps_its_types_and_division_by_zero_is_null() {
    let (i, n) = (AttrId(0), AttrId(1));
    let table = Table::from_columns(
        TableSchema::new(vec![i, n]),
        vec![
            ColumnVec::Int(vec![6, 0, -4]),
            ColumnVec::Num(vec![1.5, 0.0, -0.0]),
        ],
    );
    let both = |a, op, b| Expr::arith(Expr::Col(a), op, Expr::Col(b));
    // Int ∘ Int stays Int, and the column stays dense.
    let (sum, _) = eval_column(&both(i, ArithOp::Add, i), &table, None);
    assert!(
        matches!(&*sum, ColumnVec::Int(v) if v[..] == [12, 0, -8]),
        "{sum:?}"
    );
    // Int ∘ Num widens, as does Int / Int.
    let (product, _) = eval_column(&both(i, ArithOp::Mul, n), &table, None);
    assert!(matches!(*product, ColumnVec::Num(_)));
    assert_eq!(
        column(&Expr::arith(Expr::Col(i), ArithOp::Div, int(4)), &table),
        [Value::Num(1.5), Value::Num(0.0), Value::Num(-1.0)]
    );
    // x / 0 is NULL, whichever zero, and only on its own row.
    assert_eq!(
        column(&both(i, ArithOp::Div, i), &table),
        [Value::Num(1.0), Value::Null, Value::Num(1.0)]
    );
    assert_eq!(
        column(&both(i, ArithOp::Div, n), &table),
        [Value::Num(4.0), Value::Null, Value::Null]
    );
}

#[test]
fn nan_orders_nothing_and_equals_nothing() {
    let n = AttrId(0);
    let table = Table::from_columns(
        TableSchema::new(vec![n]),
        vec![ColumnVec::Num(vec![1.0, f64::NAN])],
    );
    let against = |op| Expr::cmp(Expr::Col(n), op, Expr::Lit(Value::Num(1.0)));
    assert!(matches!(
        failed(&against(CmpOp::Lt), &table),
        Some((1, EvalError::TypeError(_)))
    ));
    let mask = |op| eval_mask(&against(op), &table, None, 0..2).expect("no order needed");
    assert_eq!(mask(CmpOp::Ne), [Some(false), Some(true)]);
    assert_eq!(mask(CmpOp::Eq), [Some(true), Some(false)]);
    // The row before the NaN is answered either way.
    assert_eq!(
        eval_mask(&against(CmpOp::Lt), &table, None, 0..1),
        Ok(vec![Some(false)])
    );
}

#[test]
fn a_ciphertext_answers_what_its_scheme_supports() {
    let (det, rnd, ope) = (AttrId(0), AttrId(1), AttrId(2));
    let col = |scheme| {
        let mut c = EncColumn::new(scheme, 1);
        c.push(&[2, 7]);
        c.push(&[]);
        c.push(&[3, 7]);
        ColumnVec::Enc(c)
    };
    let table = Table::from_columns(
        TableSchema::new(vec![det, rnd, ope]),
        vec![
            col(EncScheme::Deterministic),
            col(EncScheme::Random),
            col(EncScheme::Ope),
        ],
    );
    let against =
        |a, op, scheme, key| Expr::cmp(Expr::Col(a), op, Expr::Lit(cipher(scheme, key, 2)));
    let mask = |e: &Expr| {
        assert_agrees(e, &table, None, 1..3);
        eval_mask(e, &table, None, 0..3)
    };
    let refused = |e: &Expr, why: &str| match mask(e) {
        Err(EvalError::EncryptedOperation(m)) => assert!(m.contains(why), "{m}"),
        other => panic!("{other:?}"),
    };
    use EncScheme::{Deterministic, Ope, Random};
    // Equality on the bytes where they lie; NULL cells are unknown.
    assert_eq!(
        mask(&against(det, CmpOp::Eq, Deterministic, 1)),
        Ok(vec![Some(true), None, Some(false)])
    );
    assert_eq!(
        mask(&against(ope, CmpOp::Gt, Ope, 1)),
        Ok(vec![Some(false), None, Some(true)])
    );
    // The literal on the left flips nothing but the sides.
    let flipped = Expr::cmp(Expr::Lit(cipher(Ope, 1, 2)), CmpOp::Lt, Expr::Col(ope));
    assert_eq!(mask(&flipped), Ok(vec![Some(false), None, Some(true)]));
    // Another key: never equal, never ordered.
    assert_eq!(
        mask(&against(det, CmpOp::Eq, Deterministic, 2)),
        Ok(vec![Some(false), None, Some(false)])
    );
    assert_eq!(
        mask(&against(ope, CmpOp::Le, Ope, 2)),
        Ok(vec![None, None, None])
    );
    // What the scheme cannot do is refused, not answered.
    refused(
        &against(det, CmpOp::Lt, Deterministic, 1),
        "ordering on non-OPE",
    );
    refused(
        &against(rnd, CmpOp::Eq, Random, 1),
        "equality on non-deterministic",
    );
    refused(&Expr::col_eq(det, Value::Int(1)), "literal not rewritten?");
    refused(
        &Expr::Like {
            expr: Box::new(Expr::Col(det)),
            pattern: "%".into(),
            negated: false,
        },
        "LIKE over ciphertext",
    );
    // A NULL cell alone asks nothing of the scheme.
    assert_eq!(
        eval_mask(&against(rnd, CmpOp::Eq, Random, 1), &table, None, 1..2),
        Ok(vec![None])
    );
}

/// A `Sort` on a computed key: stable on ties, NULLs last whichever the
/// direction of the other cells… as the row oracle has it.
#[test]
fn a_sort_on_a_computed_key_is_stable_and_puts_nulls_last() {
    let mut cat = Catalog::new();
    let rel = cat
        .add_relation("T", &[("k", DataType::Int), ("tag", DataType::Int)])
        .expect("a relation");
    let (k, tag) = (AttrId(0), AttrId(1));
    let mut db = Database::new();
    let keys = [3, 0, 1, 0, 3, 1, 0];
    db.insert(rel, ints(&[k, tag], &[&keys, &[0, 1, 2, 3, 4, 5, 6]]));
    // 6 / k: NULL where k = 0, ties where k repeats.
    let key = Expr::arith(int(6), ArithOp::Div, Expr::Col(k));
    for (asc, want) in [
        (true, [0, 4, 2, 5, 1, 3, 6]),
        (false, [1, 3, 6, 2, 5, 0, 4]),
    ] {
        let mut plan = QueryPlan::new();
        let base = plan.add_base(rel, vec![k, tag]);
        plan.add(
            Operator::Sort {
                keys: vec![(key.clone(), asc)],
            },
            vec![base],
        );
        assert_engine_matches_oracle(&cat, &db, &plan);
        let (keys, schemes, koa) = (KeyRing::new(), SchemePlan::default(), HashMap::new());
        let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        let sorted = execute(&plan, &ctx).expect("sorts");
        assert!(
            matches!(sorted.column(1), ColumnVec::Int(v) if v[..] == want[..]),
            "ascending: {asc}"
        );
    }
}

/// An aggregate input that fails on a late row does not pre-empt an
/// accumulator that refuses an earlier one.
#[test]
fn a_group_by_fails_where_the_row_walk_would() {
    let mut cat = Catalog::new();
    let rel = cat
        .add_relation("T", &[("a", DataType::Int), ("b", DataType::Int)])
        .expect("a relation");
    let (a, b) = (AttrId(0), AttrId(1));
    let mut db = Database::new();
    db.insert(rel, ints(&[a, b], &[&[i64::MAX, 1, 1], &[1, 1, i64::MAX]]));
    let mut plan = QueryPlan::new();
    let base = plan.add_base(rel, vec![a, b]);
    let aggs = vec![
        // SUM(a) overflows its accumulator on row 1…
        AggExpr::over_col(AggFunc::Sum, a),
        // …before b + 1 overflows on row 2.
        AggExpr {
            func: AggFunc::Max,
            input: Expr::arith(Expr::Col(b), ArithOp::Add, int(1)),
            output: b,
        },
    ];
    plan.add(Operator::GroupBy { keys: vec![], aggs }, vec![base]);
    assert_engine_matches_oracle(&cat, &db, &plan);
    let (keys, schemes, koa) = (KeyRing::new(), SchemePlan::default(), HashMap::new());
    let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
    match execute(&plan, &ctx) {
        Err(ExecError::Eval(EvalError::Overflow(m))) => assert!(m.contains("SUM"), "{m}"),
        other => panic!("{other:?}"),
    }
}

/// A NaN answers to the cell rule only where a row still looks at it:
/// on a row an earlier `AND` part already decided it is never read, on
/// a live row an ordering fails there and an equality says FALSE.
#[test]
fn a_nan_fails_an_ordering_only_on_a_live_row() {
    let (a, n) = (AttrId(0), AttrId(1));
    let table = |nums: Vec<f64>| {
        let cols = vec![ColumnVec::Int(vec![0, 1, 1, 1]), ColumnVec::Num(nums)];
        Table::from_columns(TableSchema::new(vec![a, n]), cols)
    };
    let below = |op| Expr::cmp(Expr::Col(n), op, Expr::Lit(Value::Num(3.0)));
    let guarded = |op| Expr::And(vec![Expr::cmp(Expr::Col(a), CmpOp::Gt, int(0)), below(op)]);
    // Dead: `a > 0` is FALSE on row 0, the only NaN.
    let dead = table(vec![f64::NAN, 2.0, 4.0, 1.0]);
    assert_eq!(
        eval_mask(&guarded(CmpOp::Lt), &dead, None, 0..4),
        Ok(vec![Some(false), Some(true), Some(false), Some(true)])
    );
    assert_eq!(failed(&guarded(CmpOp::Lt), &dead), None);
    // …but the predicate alone reads it.
    assert!(matches!(
        failed(&below(CmpOp::Lt), &dead),
        Some((0, EvalError::TypeError(_)))
    ));
    // Live: the NaN on row 2 fails the ordering there, after rows 0–1.
    let live = table(vec![1.0, 2.0, f64::NAN, 1.0]);
    for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
        assert!(matches!(
            failed(&guarded(op), &live),
            Some((2, EvalError::TypeError(_)))
        ));
    }
    assert_eq!(
        eval_mask(&guarded(CmpOp::Eq), &live, None, 0..4),
        Ok(vec![Some(false), Some(false), Some(false), Some(false)])
    );
    assert_eq!(
        eval_mask(&guarded(CmpOp::Ne), &live, None, 0..4),
        Ok(vec![Some(false), Some(true), Some(true), Some(true)])
    );
    assert_eq!(failed(&guarded(CmpOp::Ne), &live), None);
}

/// Strings compare by byte, as `&str` orders them: multi-byte cells
/// under all six operators, the literal on either side, column against
/// column, and `IN` — over every row and over the rows an earlier
/// `AND` part left.
#[test]
fn multi_byte_strings_compare_as_the_row_walk_does() {
    let (k, s, t) = (AttrId(0), AttrId(1), AttrId(2));
    let words = ["ünï", "z", "a", "", "ünï", "zz", "ü"];
    let typed = |words: &[&str]| -> ColumnVec { words.iter().map(|w| Value::str(w)).collect() };
    let mut reversed = words;
    reversed.reverse();
    let cols = vec![
        ColumnVec::Int(vec![0, 1, 0, 1, 0, 1, 0]),
        typed(&words),
        typed(&reversed),
    ];
    assert!(matches!(cols[1], ColumnVec::Str(_)));
    let table = Table::from_columns(TableSchema::new(vec![k, s, t]), cols);
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let sparse = |e: Expr| Expr::And(vec![Expr::col_eq(k, Value::Int(0)), e]);
    let (col, lit) = (|a| Expr::Col(a), |w| Expr::Lit(Value::str(w)));
    for op in ops {
        let mut cmps = vec![Expr::cmp(col(s), op, col(t))];
        for w in ["ünï", "z", "a", ""] {
            cmps.push(Expr::cmp(col(s), op, lit(w)));
            cmps.push(Expr::cmp(lit(w), op, col(s)));
        }
        for e in cmps {
            assert_agrees(&e, &table, None, 2..6);
            assert_agrees(&sparse(e), &table, None, 1..7);
        }
    }
    for (list, negated) in [
        (vec![Value::str("ünï"), Value::str("")], false),
        (vec![Value::str("ü"), Value::str("zz")], true),
        (vec![Value::str("z"), Value::Null], false),
        (vec![Value::str("z"), Value::Int(1)], true),
        (vec![], false),
    ] {
        let e = Expr::InList {
            expr: Box::new(col(s)),
            list,
            negated,
        };
        assert_agrees(&e, &table, None, 3..7);
        assert_agrees(&sparse(e), &table, None, 0..5);
    }
    // Byte order: "ü" (0xC3 0xBC) sorts after "z" (0x7A).
    let after_z = Expr::cmp(col(s), CmpOp::Gt, lit("z"));
    assert_eq!(
        eval_mask(&after_z, &table, None, 0..7),
        Ok([true, false, false, false, true, true, true]
            .map(Some)
            .to_vec())
    );
}

/// `COUNT(*)`, `SUM(1)` and `SUM(i64::MAX)` — literal inputs, built as
/// dense columns — under a group-by at batches of 1, 7 and 4,096. The
/// overflow of `SUM(i64::MAX)` on a group's second row is reported
/// where the row walk reports it: before a later row's failing input,
/// after an earlier one's.
#[test]
fn literal_aggregate_inputs_count_and_fail_as_the_row_walk_does() {
    let mut cat = Catalog::new();
    let rel = cat
        .add_relation("T", &[("k", DataType::Int), ("b", DataType::Int)])
        .expect("a relation");
    let (k, b) = (AttrId(0), AttrId(1));
    let (keys, schemes, koa) = (KeyRing::new(), SchemePlan::default(), HashMap::new());
    let grouped = |db: &Database, aggs: Vec<AggExpr>| {
        let mut plan = QueryPlan::new();
        let base = plan.add_base(rel, vec![k, b]);
        plan.add(
            Operator::GroupBy {
                keys: vec![k],
                aggs,
            },
            vec![base],
        );
        assert_engine_matches_oracle(&cat, db, &plan);
        execute(&plan, &ExecCtx::new(&cat, db, &keys, &schemes, &koa))
    };
    let agg = |func, v: i64| AggExpr {
        func,
        input: int(v),
        output: b,
    };
    let max_b_plus_1 = AggExpr {
        func: AggFunc::Max,
        input: Expr::arith(Expr::Col(b), ArithOp::Add, int(1)),
        output: b,
    };

    // 5,000 rows in three groups: more than one 4,096-row batch.
    let mut db = Database::new();
    let key: Vec<i64> = (0..5_000).map(|i| i % 3).collect();
    db.insert(rel, ints(&[k, b], &[&key, &vec![0; 5_000]]));
    let counted = grouped(&db, vec![AggExpr::count_star(k), agg(AggFunc::Sum, 1)]);
    let counted = counted.expect("nothing overflows");
    assert_eq!(counted.len(), 3);
    for g in 0..3 {
        assert_eq!(counted.value(1, g), Value::Int(1_667 - g as i64 / 2));
        assert_eq!(counted.value(2, g), Value::Int(1_667 - g as i64 / 2));
    }

    // Group 0 has rows 0, 2, 4: SUM(i64::MAX) overflows on row 2.
    let key = [0, 1, 0, 1, 0];
    for (late, sum_first) in [(3, true), (1, false)] {
        let mut input = [0; 5];
        input[late] = i64::MAX;
        let mut db = Database::new();
        db.insert(rel, ints(&[k, b], &[&key, &input]));
        let aggs = vec![agg(AggFunc::Sum, i64::MAX), max_b_plus_1.clone()];
        match grouped(&db, aggs) {
            Err(ExecError::Eval(EvalError::Overflow(m))) => {
                assert_eq!(m.contains("SUM"), sum_first, "{m}")
            }
            other => panic!("{other:?}"),
        }
    }
}
