//! A σ right above its own region's base scan is that scan's filter:
//! the predicate runs on the stored columns over each batch's rows and
//! only the kept rows are copied out. Held here to the same σ over the
//! same relation delivered to the region as a table, which filters
//! batch by batch: the same batches, rows and first error, at batches
//! of 1, 7 and 4,096 rows — a σ that keeps some rows, every row, none,
//! one that overflows on a middle row, one that reads a column the scan
//! does not emit, and a relation of no rows.

use mpq_algebra::value::DataType;
use mpq_algebra::{ArithOp, AttrId, Catalog, CmpOp, Date, Expr, Operator, QueryPlan, Value};
use mpq_crypto::keyring::KeyRing;
use mpq_exec::{execute_region, Batches, Database, ExecCtx, SchemePlan, Table, TableSchema};
use std::collections::HashMap;

/// 100 rows of `T(k, s, d, x, y)`; `x` is 0 but on rows 50 and 75,
/// where adding `i64::MAX` to it overflows.
fn fixture(rows: usize) -> (Catalog, Database) {
    let mut cat = Catalog::new();
    let columns = [
        ("k", DataType::Int),
        ("s", DataType::Str),
        ("d", DataType::Date),
        ("x", DataType::Int),
        ("y", DataType::Int),
    ];
    cat.add_relation("T", &columns).expect("a fresh name");
    let data = (0..rows as i64).map(|r| {
        vec![
            Value::Int(r - 50),
            Value::str(&"ab".repeat(r as usize % 7)),
            Value::Date(Date(9_000 + (r % 11) as i32)),
            Value::Int(match r {
                50 => 3,
                75 => 5,
                _ => 0,
            }),
            Value::Int(r),
        ]
    });
    let mut db = Database::new();
    db.load(&cat, "T", data.collect());
    (cat, db)
}

#[test]
fn a_scan_filters_in_place_as_sigma_filters_a_delivered_table() {
    let attr = |cat: &Catalog, name: &str| cat.attr(name).expect("a column of T");
    let col = |a: AttrId| Box::new(Expr::Col(a));
    let int = |i: i64| Box::new(Expr::Lit(Value::Int(i)));
    for rows in [100, 0] {
        let (cat, db) = fixture(rows);
        let [k, s, d, x, y] = ["k", "s", "d", "x", "y"].map(|n| attr(&cat, n));
        let scanned = vec![k, s, d, x];
        let some = Expr::Or(vec![
            Expr::Cmp(col(k), CmpOp::Gt, int(10)),
            Expr::Cmp(col(s), CmpOp::Eq, Box::new(Expr::Lit(Value::str("ab")))),
        ]);
        let overflow = Expr::Cmp(
            Box::new(Expr::Arith(col(x), ArithOp::Add, int(i64::MAX))),
            CmpOp::Gt,
            int(0),
        );
        let preds = [
            ("some", some),
            ("every", Expr::Cmp(col(k), CmpOp::Ge, int(-50))),
            (
                "none",
                Expr::Cmp(col(d), CmpOp::Lt, Box::new(Expr::Lit(Value::Date(Date(0))))),
            ),
            ("overflow", overflow),
            ("unscanned", Expr::Cmp(col(y), CmpOp::Gt, int(3))),
        ];
        let rel = cat.relation("T").expect("T").rel;
        let stored = db.table(rel).expect("loaded");
        let delivered = || {
            let cols = scanned
                .iter()
                .map(|a| stored.column(stored.col_index(*a).unwrap()));
            let table =
                Table::from_columns(TableSchema::new(scanned.clone()), cols.cloned().collect());
            Batches {
                schema: table.schema().clone(),
                batches: vec![table],
            }
        };
        let (keys, schemes, koa) = (KeyRing::new(), SchemePlan::default(), HashMap::new());
        for (name, pred) in preds {
            let mut plan = QueryPlan::new();
            let base = plan.add_base(rel, scanned.clone());
            let sel = plan.add(Operator::Select { pred }, vec![base]);
            for batch_rows in [1, 7, 4096] {
                let ctx = ExecCtx::builder(&cat, &db, &keys, &schemes, &koa)
                    .batch_rows(batch_rows)
                    .build();
                let run = |inputs: &mut HashMap<_, _>| {
                    execute_region(&plan, sel, &|_| true, inputs, &ctx).map(|b| b.batches)
                };
                let in_place = run(&mut HashMap::new());
                let filtered = run(&mut HashMap::from([(base, delivered())]));
                assert_eq!(
                    in_place, filtered,
                    "{name}, {rows} rows, batches of {batch_rows}"
                );
                let kept = in_place
                    .as_ref()
                    .map(|b| b.iter().map(Table::len).sum::<usize>());
                let want = match (name, rows) {
                    ("overflow" | "unscanned", 100) => None,
                    ("some", 100) => Some(39 + 9),
                    ("every", _) => Some(rows),
                    _ => Some(0),
                };
                assert_eq!(
                    kept.ok(),
                    want,
                    "{name}, {rows} rows, batches of {batch_rows}"
                );
                // The first failing row is the middle one, x = 3.
                if let (Err(e), "overflow") = (&in_place, name) {
                    assert!(e.to_string().contains("Int(3) Add"), "{e}");
                }
            }
        }
    }
}
