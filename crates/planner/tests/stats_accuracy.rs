//! Accuracy tests for `mpq_planner::stats`: collected statistics must
//! predict executed cardinalities, not merely exist.
//!
//! * histogram selectivity on skewed data (heavy values vs tail);
//! * join-cardinality bounds on FK-shaped joins;
//! * a property test: on random select/join/group-by plans over random
//!   dense data, every node's estimated row count stays within a
//!   bounded factor of the executed row count.

use mpq_algebra::expr::{AggExpr, AggFunc};
use mpq_algebra::stats::StatsCatalog;
use mpq_algebra::{Catalog, CmpOp, DataType, Expr, JoinKind, NodeId, Operator, QueryPlan, Value};
use mpq_crypto::KeyRing;
use mpq_exec::{Database, ExecCtx, SchemePlan};
use mpq_planner::stats::{collect_stats, estimates_for, SampleConfig};
use proptest::prelude::*;
use std::collections::HashMap;

/// Two-relation catalog: R1(a0 int, a1 int), R2(b0 int, b1 int).
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_relation("R1", &[("a0", DataType::Int), ("a1", DataType::Int)])
        .unwrap();
    c.add_relation("R2", &[("b0", DataType::Int), ("b1", DataType::Int)])
        .unwrap();
    c
}

fn int_rows(vals: impl Iterator<Item = (i64, i64)>) -> Vec<Vec<Value>> {
    vals.map(|(a, b)| vec![Value::Int(a), Value::Int(b)])
        .collect()
}

/// Execute `plan` over `db` (plaintext, no keys) and return the actual
/// output row count of every node, indexed by `NodeId::index()`.
fn node_cardinalities(
    plan: &QueryPlan,
    catalog: &Catalog,
    db: &Database,
) -> Result<Vec<usize>, mpq_exec::ExecError> {
    let ring = KeyRing::new();
    let schemes = SchemePlan::default();
    let koa = HashMap::new();
    let ctx = ExecCtx::new(catalog, db, &ring, &schemes, &koa);
    let mut results: HashMap<NodeId, mpq_exec::Table> = HashMap::new();
    let mut counts = vec![0usize; plan.len()];
    for id in plan.postorder() {
        let table = mpq_exec::execute_step(plan, id, &mut results, &ctx)?;
        counts[id.index()] = table.len();
        results.insert(id, table);
    }
    Ok(counts)
}

/// The q-error of an estimate: `max(est/actual, actual/est)`, both
/// sides floored at one row. 1.0 is a perfect estimate.
fn q_error(estimated: f64, actual: usize) -> f64 {
    let e = estimated.max(1.0);
    let a = (actual as f64).max(1.0);
    (e / a).max(a / e)
}

/// Worst q-error across all nodes of a plan, pairing [`estimates_for`]
/// with [`node_cardinalities`].
fn max_q_error(
    plan: &QueryPlan,
    catalog: &Catalog,
    db: &Database,
    stats: &StatsCatalog,
) -> Result<f64, mpq_exec::ExecError> {
    let est = estimates_for(plan, catalog, stats);
    let actual = node_cardinalities(plan, catalog, db)?;
    Ok(plan
        .postorder()
        .into_iter()
        .map(|id| q_error(est[id.index()].rows, actual[id.index()]))
        .fold(1.0, f64::max))
}

#[test]
fn q_error_is_symmetric_and_floored() {
    assert_eq!(q_error(10.0, 10), 1.0);
    assert_eq!(q_error(100.0, 10), 10.0);
    assert_eq!(q_error(10.0, 100), 10.0);
    assert_eq!(q_error(0.0, 0), 1.0);
}

#[test]
fn skewed_histogram_beats_ndv_average() {
    let cat = catalog();
    let mut db = Database::new();
    // 90% of a0 is the value 7; the rest is uniform on 100..200.
    let rows: Vec<(i64, i64)> = (0..2000)
        .map(|i| {
            if i % 10 != 0 {
                (7, i % 5)
            } else {
                (100 + (i / 10) % 100, i % 5)
            }
        })
        .collect();
    db.load(&cat, "R1", int_rows(rows.into_iter()));
    let stats = collect_stats(&cat, &db, &SampleConfig::default());

    let r1 = cat.relation("R1").unwrap();
    let a0 = cat.attr("a0").unwrap();
    let eq_plan = |lit: i64| {
        let mut p = QueryPlan::new();
        let b = p.add_base(r1.rel, r1.attrs());
        p.add(
            Operator::Select {
                pred: Expr::cmp(Expr::Col(a0), CmpOp::Eq, Expr::Lit(Value::Int(lit))),
            },
            vec![b],
        );
        p
    };

    // Heavy value: executed 1800 rows; an ndv-average guess
    // (2000/101 ≈ 20) would be off by 90×. The histogram must land
    // within a factor of two.
    let plan = eq_plan(7);
    let est = estimates_for(&plan, &cat, &stats);
    let actual = node_cardinalities(&plan, &cat, &db).unwrap();
    let root = plan.root().index();
    assert!(actual[root] >= 1700, "data setup: {}", actual[root]);
    let q = q_error(est[root].rows, actual[root]);
    assert!(
        q <= 2.0,
        "heavy-value estimate off by {q}: est {} actual {}",
        est[root].rows,
        actual[root]
    );

    // Tail value: executed 2 rows; the estimate must not predict the
    // heavy mass.
    let plan = eq_plan(150);
    let est = estimates_for(&plan, &cat, &stats);
    assert!(
        est[plan.root().index()].rows < 100.0,
        "tail estimate {}",
        est[plan.root().index()].rows
    );
}

#[test]
fn range_selectivity_follows_histogram() {
    let cat = catalog();
    let mut db = Database::new();
    // a0 uniform on 0..1000.
    db.load(&cat, "R1", int_rows((0..1000).map(|i| (i, 0))));
    let stats = collect_stats(&cat, &db, &SampleConfig::default());
    let r1 = cat.relation("R1").unwrap();
    let a0 = cat.attr("a0").unwrap();
    let mut plan = QueryPlan::new();
    let b = plan.add_base(r1.rel, r1.attrs());
    plan.add(
        Operator::Select {
            pred: Expr::cmp(Expr::Col(a0), CmpOp::Lt, Expr::Lit(Value::Int(250))),
        },
        vec![b],
    );
    let est = estimates_for(&plan, &cat, &stats);
    let actual = node_cardinalities(&plan, &cat, &db).unwrap();
    let root = plan.root().index();
    assert_eq!(actual[root], 250);
    let q = q_error(est[root].rows, actual[root]);
    assert!(q <= 1.25, "range estimate off by {q}");
}

#[test]
fn fk_join_cardinality_is_bounded() {
    let cat = catalog();
    let mut db = Database::new();
    // R1: 60 "dimension" rows, key dense 0..60. R2: 600 "fact" rows,
    // FK uniform over 0..60 → join yields exactly 600 rows.
    db.load(&cat, "R1", int_rows((0..60).map(|i| (i, i % 5))));
    db.load(&cat, "R2", int_rows((0..600).map(|i| (i % 60, i % 50))));
    let stats = collect_stats(&cat, &db, &SampleConfig::default());
    let r1 = cat.relation("R1").unwrap();
    let r2 = cat.relation("R2").unwrap();
    let a0 = cat.attr("a0").unwrap();
    let b0 = cat.attr("b0").unwrap();
    let mut plan = QueryPlan::new();
    let l = plan.add_base(r1.rel, r1.attrs());
    let r = plan.add_base(r2.rel, r2.attrs());
    plan.add(
        Operator::Join {
            kind: JoinKind::Inner,
            on: vec![(a0, CmpOp::Eq, b0)],
            residual: None,
        },
        vec![l, r],
    );
    let est = estimates_for(&plan, &cat, &stats);
    let actual = node_cardinalities(&plan, &cat, &db).unwrap();
    let root = plan.root().index();
    assert_eq!(actual[root], 600);
    let q = q_error(est[root].rows, actual[root]);
    assert!(
        q <= 1.5,
        "FK join estimate off by {q}: est {}",
        est[root].rows
    );
    // The joint key's distinct count is bounded by the smaller side.
    assert!(est[root].ndv[&a0] <= 60.0 + 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random select/join/group-by plans over random dense data: every
    /// node's estimate stays within a bounded factor of execution.
    /// Dense value domains (every residue populated) keep the property
    /// sharp — the claim under test is propagation accuracy, not
    /// out-of-domain extrapolation.
    #[test]
    fn estimates_track_execution_on_random_plans(
        rows1 in 40..400usize,
        rows2 in 40..300usize,
        off1 in 0..20i64,
        off2 in 0..20i64,
        sel_lit in 0..20i64,
        sel_op in 0..3usize,
        with_join in any::<bool>(),
        with_group in any::<bool>(),
    ) {
        let cat = catalog();
        let mut db = Database::new();
        // Dense uniform domains: a0/b0 cover all residues mod 20. a1
        // varies with i/20 so it stays independent of a0's residue
        // class (the estimator assumes column independence; perfectly
        // correlated columns are out of scope for this property).
        db.load(&cat, "R1", int_rows((0..rows1 as i64).map(|i| ((i * 7 + off1) % 20, (i / 20) % 5))));
        db.load(&cat, "R2", int_rows((0..rows2 as i64).map(|i| ((i + off2) % 20, i % 50))));
        let stats = collect_stats(&cat, &db, &SampleConfig::default());

        let r1 = cat.relation("R1").unwrap();
        let r2 = cat.relation("R2").unwrap();
        let a0 = cat.attr("a0").unwrap();
        let a1 = cat.attr("a1").unwrap();
        let b0 = cat.attr("b0").unwrap();

        let mut plan = QueryPlan::new();
        let base = plan.add_base(r1.rel, r1.attrs());
        let op = [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge][sel_op];
        let mut top = plan.add(
            Operator::Select {
                pred: Expr::cmp(Expr::Col(a0), op, Expr::Lit(Value::Int(sel_lit))),
            },
            vec![base],
        );
        if with_join {
            let rbase = plan.add_base(r2.rel, r2.attrs());
            top = plan.add(
                Operator::Join {
                    kind: JoinKind::Inner,
                    on: vec![(a0, CmpOp::Eq, b0)],
                    residual: None,
                },
                vec![top, rbase],
            );
        }
        if with_group {
            plan.add(
                Operator::GroupBy {
                    keys: vec![a1],
                    aggs: vec![AggExpr {
                        func: AggFunc::Count,
                        input: Expr::Lit(Value::Int(1)),
                        output: a1,
                    }],
                },
                vec![top],
            );
        }

        let q = max_q_error(&plan, &cat, &db, &stats).unwrap();
        prop_assert!(
            q <= 4.0,
            "worst node q-error {q} on rows1={rows1} rows2={rows2} op={op:?} lit={sel_lit} join={with_join} group={with_group}"
        );
    }
}
