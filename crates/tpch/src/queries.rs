//! The 22 TPC-H query plans.
//!
//! Plans are hand-built in the decorrelated shape PostgreSQL produces
//! (the paper's tool consumed PostgreSQL plans: "the mapping from
//! relational algebra operators … to the physical PostgreSQL operators
//! was immediate"):
//!
//! * projections are pushed into the leaves;
//! * single-relation selections sit directly above their leaf;
//! * scalar subqueries become separate aggregate branches joined back
//!   (Q2, Q11, Q15, Q17, Q22);
//! * `EXISTS` / `IN` / `NOT EXISTS` become semi-/anti-joins
//!   (Q4, Q16, Q18, Q20, Q21, Q22);
//! * repeated scans of a table use the alias relations of
//!   [`crate::schema::ALIASES`];
//! * computed group keys (`extract(year …)`) are materialized by µ
//!   nodes, matching the paper's udf operator;
//! * aggregate outputs are named after one of their input attributes
//!   (the paper's renaming simplification).

use mpq_algebra::expr::{AggExpr, AggFunc, DateField};
use mpq_algebra::{
    ArithOp, AttrId, Catalog, CmpOp, Date, Expr, JoinKind, NodeId, Operator, QueryPlan, Value,
};

/// Number of TPC-H queries.
pub const QUERY_COUNT: usize = 22;

/// Build the plan for query `q` (1-based, as in the paper's figures).
pub fn query_plan(catalog: &Catalog, q: usize) -> QueryPlan {
    let mut b = QB::new(catalog);
    match q {
        1 => q1(&mut b),
        2 => q2(&mut b),
        3 => q3(&mut b),
        4 => q4(&mut b),
        5 => q5(&mut b),
        6 => q6(&mut b),
        7 => q7(&mut b),
        8 => q8(&mut b),
        9 => q9(&mut b),
        10 => q10(&mut b),
        11 => q11(&mut b),
        12 => q12(&mut b),
        13 => q13(&mut b),
        14 => q14(&mut b),
        15 => q15(&mut b),
        16 => q16(&mut b),
        17 => q17(&mut b),
        18 => q18(&mut b),
        19 => q19(&mut b),
        20 => q20(&mut b),
        21 => q21(&mut b),
        22 => q22(&mut b),
        other => panic!("TPC-H defines queries 1–22, got {other}"),
    }
    // The paper assumes plans with classical optimizations applied;
    // narrow intermediate tuples after each operator's last use of a
    // column (PostgreSQL does the same).
    mpq_algebra::builder::prune_columns(&b.plan, catalog)
}

// ---------------------------------------------------------------------------
// Builder DSL
// ---------------------------------------------------------------------------

struct QB<'a> {
    cat: &'a Catalog,
    plan: QueryPlan,
}

impl<'a> QB<'a> {
    fn new(cat: &'a Catalog) -> Self {
        QB {
            cat,
            plan: QueryPlan::new(),
        }
    }

    fn a(&self, name: &str) -> AttrId {
        self.cat.attr(name).expect("known TPC-H attribute")
    }

    fn col(&self, name: &str) -> Expr {
        Expr::Col(self.a(name))
    }

    fn base(&mut self, table: &str, cols: &[&str]) -> NodeId {
        let rel = self.cat.relation(table).expect("known TPC-H table").rel;
        let attrs = cols.iter().map(|c| self.a(c)).collect();
        self.plan.add_base(rel, attrs)
    }

    fn select(&mut self, child: NodeId, pred: Expr) -> NodeId {
        self.plan.add(Operator::Select { pred }, vec![child])
    }

    fn join_on(&mut self, l: NodeId, r: NodeId, on: &[(&str, &str)]) -> NodeId {
        self.join_full(l, r, JoinKind::Inner, on, None)
    }

    fn join_full(
        &mut self,
        l: NodeId,
        r: NodeId,
        kind: JoinKind,
        on: &[(&str, &str)],
        residual: Option<Expr>,
    ) -> NodeId {
        let conds = on
            .iter()
            .map(|(a, b)| (self.a(a), CmpOp::Eq, self.a(b)))
            .collect();
        self.plan.add(
            Operator::Join {
                kind,
                on: conds,
                residual,
            },
            vec![l, r],
        )
    }

    fn product(&mut self, l: NodeId, r: NodeId) -> NodeId {
        self.plan.add(Operator::Product, vec![l, r])
    }

    fn group(&mut self, child: NodeId, keys: &[&str], aggs: Vec<AggExpr>) -> NodeId {
        let keys = keys.iter().map(|k| self.a(k)).collect();
        self.plan.add(Operator::GroupBy { keys, aggs }, vec![child])
    }

    fn having(&mut self, child: NodeId, pred: Expr) -> NodeId {
        self.plan.add(Operator::Having { pred }, vec![child])
    }

    fn udf_year(&mut self, child: NodeId, date_col: &str) -> NodeId {
        let a = self.a(date_col);
        self.plan.add(
            Operator::Udf {
                name: format!("year_of_{date_col}"),
                inputs: vec![a],
                output: a,
                body: Some(Expr::Extract {
                    field: DateField::Year,
                    expr: Box::new(Expr::Col(a)),
                }),
            },
            vec![child],
        )
    }

    fn sort(&mut self, child: NodeId, keys: Vec<(Expr, bool)>) -> NodeId {
        self.plan.add(Operator::Sort { keys }, vec![child])
    }

    fn limit(&mut self, child: NodeId, n: u64) -> NodeId {
        self.plan.add(Operator::Limit { n }, vec![child])
    }

    fn project(&mut self, child: NodeId, cols: &[&str]) -> NodeId {
        let attrs = cols.iter().map(|c| self.a(c)).collect();
        self.plan.add(Operator::Project { attrs }, vec![child])
    }

    // Aggregate helpers (outputs named after an input attribute).

    fn sum_col(&self, col: &str) -> AggExpr {
        AggExpr::over_col(AggFunc::Sum, self.a(col))
    }

    fn avg_col(&self, col: &str) -> AggExpr {
        AggExpr::over_col(AggFunc::Avg, self.a(col))
    }

    fn min_col(&self, col: &str) -> AggExpr {
        AggExpr::over_col(AggFunc::Min, self.a(col))
    }

    fn max_col(&self, col: &str) -> AggExpr {
        AggExpr::over_col(AggFunc::Max, self.a(col))
    }

    fn sum_expr(&self, e: Expr, out: &str) -> AggExpr {
        AggExpr {
            func: AggFunc::Sum,
            input: e,
            output: self.a(out),
        }
    }

    fn count_star(&self, out: &str) -> AggExpr {
        AggExpr::count_star(self.a(out))
    }

    fn count_col(&self, col: &str) -> AggExpr {
        AggExpr {
            func: AggFunc::Count,
            input: self.col(col),
            output: self.a(col),
        }
    }

    fn count_distinct(&self, col: &str) -> AggExpr {
        AggExpr {
            func: AggFunc::CountDistinct,
            input: self.col(col),
            output: self.a(col),
        }
    }

    /// `col · (1 − discount)` — the ubiquitous revenue expression.
    fn revenue(&self, price: &str, discount: &str) -> Expr {
        Expr::arith(
            self.col(price),
            ArithOp::Mul,
            Expr::arith(Expr::Lit(Value::Num(1.0)), ArithOp::Sub, self.col(discount)),
        )
    }
}

fn lit_str(s: &str) -> Expr {
    Expr::Lit(Value::str(s))
}

fn lit_num(n: f64) -> Expr {
    Expr::Lit(Value::Num(n))
}

fn lit_int(n: i64) -> Expr {
    Expr::Lit(Value::Int(n))
}

fn date(s: &str) -> Date {
    Date::parse(s).expect("valid date literal")
}

fn lit_date(s: &str) -> Expr {
    Expr::Lit(Value::Date(date(s)))
}

fn cmp(a: Expr, op: CmpOp, b: Expr) -> Expr {
    Expr::cmp(a, op, b)
}

fn between(e: Expr, lo: Expr, hi: Expr) -> Expr {
    Expr::Between {
        expr: Box::new(e),
        lo: Box::new(lo),
        hi: Box::new(hi),
        negated: false,
    }
}

fn in_list(e: Expr, vals: Vec<Value>) -> Expr {
    Expr::InList {
        expr: Box::new(e),
        list: vals,
        negated: false,
    }
}

fn like(e: Expr, pat: &str) -> Expr {
    Expr::Like {
        expr: Box::new(e),
        pattern: pat.to_string(),
        negated: false,
    }
}

fn not_like(e: Expr, pat: &str) -> Expr {
    Expr::Like {
        expr: Box::new(e),
        pattern: pat.to_string(),
        negated: true,
    }
}

// ---------------------------------------------------------------------------
// The queries
// ---------------------------------------------------------------------------

/// Q1 — pricing summary report.
fn q1(b: &mut QB) {
    let li = b.base(
        "lineitem",
        &[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    );
    let sel = b.select(
        li,
        cmp(
            b.col("l_shipdate"),
            CmpOp::Le,
            lit_date("1998-12-01"), // date '1998-12-01' - interval '90' day folded
        ),
    );
    let disc_price = b.revenue("l_extendedprice", "l_discount");
    let charge = Expr::arith(
        disc_price.clone(),
        ArithOp::Mul,
        Expr::arith(lit_num(1.0), ArithOp::Add, b.col("l_tax")),
    );
    let aggs = vec![
        b.sum_col("l_quantity"),
        b.sum_col("l_extendedprice"),
        b.sum_expr(disc_price, "l_extendedprice"),
        b.sum_expr(charge, "l_extendedprice"),
        b.avg_col("l_quantity"),
        b.avg_col("l_extendedprice"),
        b.avg_col("l_discount"),
        b.count_star("l_returnflag"),
    ];
    let g = b.group(sel, &["l_returnflag", "l_linestatus"], aggs);
    b.sort(
        g,
        vec![(b.col("l_returnflag"), true), (b.col("l_linestatus"), true)],
    );
}

/// Q2 — minimum-cost supplier (correlated MIN subquery → aggregate
/// branch over alias relations, joined back on part key and cost).
fn q2(b: &mut QB) {
    // Main branch: EUROPE suppliers of size-15 %BRASS parts.
    let region = b.base("region", &["r_regionkey", "r_name"]);
    let region = b.select(region, cmp(b.col("r_name"), CmpOp::Eq, lit_str("EUROPE")));
    let nation = b.base("nation", &["n_nationkey", "n_regionkey", "n_name"]);
    let rn = b.join_on(region, nation, &[("r_regionkey", "n_regionkey")]);
    let supplier = b.base(
        "supplier",
        &[
            "s_suppkey",
            "s_nationkey",
            "s_acctbal",
            "s_name",
            "s_address",
            "s_phone",
            "s_comment",
        ],
    );
    let rns = b.join_on(rn, supplier, &[("n_nationkey", "s_nationkey")]);
    let partsupp = b.base("partsupp", &["ps_partkey", "ps_suppkey", "ps_supplycost"]);
    let rnsp = b.join_on(rns, partsupp, &[("s_suppkey", "ps_suppkey")]);
    let part = b.base("part", &["p_partkey", "p_mfgr", "p_size", "p_type"]);
    let part = b.select(
        part,
        cmp(b.col("p_size"), CmpOp::Eq, lit_int(15)).and(like(b.col("p_type"), "%BRASS")),
    );
    let main = b.join_on(rnsp, part, &[("ps_partkey", "p_partkey")]);

    // MIN-cost branch (second scan via alias relations).
    let region2 = b.base("region2", &["r2_regionkey", "r2_name"]);
    let region2 = b.select(region2, cmp(b.col("r2_name"), CmpOp::Eq, lit_str("EUROPE")));
    let nation3 = b.base("nation3", &["n3_nationkey", "n3_regionkey"]);
    let rn2 = b.join_on(region2, nation3, &[("r2_regionkey", "n3_regionkey")]);
    let supplier2 = b.base("supplier2", &["s2_suppkey", "s2_nationkey"]);
    let rns2 = b.join_on(rn2, supplier2, &[("n3_nationkey", "s2_nationkey")]);
    let partsupp2 = b.base(
        "partsupp2",
        &["ps2_partkey", "ps2_suppkey", "ps2_supplycost"],
    );
    let rnsp2 = b.join_on(rns2, partsupp2, &[("s2_suppkey", "ps2_suppkey")]);
    let min_cost = b.group(rnsp2, &["ps2_partkey"], vec![b.min_col("ps2_supplycost")]);

    let joined = b.join_full(
        main,
        min_cost,
        JoinKind::Inner,
        &[
            ("p_partkey", "ps2_partkey"),
            ("ps_supplycost", "ps2_supplycost"),
        ],
        None,
    );
    let proj = b.project(
        joined,
        &[
            "s_acctbal",
            "s_name",
            "n_name",
            "p_partkey",
            "p_mfgr",
            "s_address",
            "s_phone",
            "s_comment",
        ],
    );
    let sorted = b.sort(
        proj,
        vec![
            (b.col("s_acctbal"), false),
            (b.col("n_name"), true),
            (b.col("s_name"), true),
            (b.col("p_partkey"), true),
        ],
    );
    b.limit(sorted, 100);
}

/// Q3 — shipping priority.
fn q3(b: &mut QB) {
    let customer = b.base("customer", &["c_custkey", "c_mktsegment"]);
    let customer = b.select(
        customer,
        cmp(b.col("c_mktsegment"), CmpOp::Eq, lit_str("BUILDING")),
    );
    let orders = b.base(
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
    );
    let orders = b.select(
        orders,
        cmp(b.col("o_orderdate"), CmpOp::Lt, lit_date("1995-03-15")),
    );
    let co = b.join_on(customer, orders, &[("c_custkey", "o_custkey")]);
    let li = b.base(
        "lineitem",
        &["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    );
    let li = b.select(
        li,
        cmp(b.col("l_shipdate"), CmpOp::Gt, lit_date("1995-03-15")),
    );
    let col = b.join_on(co, li, &[("o_orderkey", "l_orderkey")]);
    let rev = b.revenue("l_extendedprice", "l_discount");
    let g = b.group(
        col,
        &["o_orderkey", "o_orderdate", "o_shippriority"],
        vec![b.sum_expr(rev, "l_extendedprice")],
    );
    let sorted = b.sort(
        g,
        vec![(Expr::AggRef(0), false), (b.col("o_orderdate"), true)],
    );
    b.limit(sorted, 10);
}

/// Q4 — order priority checking (EXISTS → semi-join).
fn q4(b: &mut QB) {
    let orders = b.base("orders", &["o_orderkey", "o_orderdate", "o_orderpriority"]);
    let orders = b.select(
        orders,
        cmp(b.col("o_orderdate"), CmpOp::Ge, lit_date("1993-07-01")).and(cmp(
            b.col("o_orderdate"),
            CmpOp::Lt,
            lit_date("1993-10-01"),
        )),
    );
    let li = b.base("lineitem", &["l_orderkey", "l_commitdate", "l_receiptdate"]);
    let li = b.select(
        li,
        cmp(b.col("l_commitdate"), CmpOp::Lt, b.col("l_receiptdate")),
    );
    let semi = b.join_full(
        orders,
        li,
        JoinKind::Semi,
        &[("o_orderkey", "l_orderkey")],
        None,
    );
    let g = b.group(
        semi,
        &["o_orderpriority"],
        vec![b.count_star("o_orderpriority")],
    );
    b.sort(g, vec![(b.col("o_orderpriority"), true)]);
}

/// Q5 — local supplier volume.
fn q5(b: &mut QB) {
    let region = b.base("region", &["r_regionkey", "r_name"]);
    let region = b.select(region, cmp(b.col("r_name"), CmpOp::Eq, lit_str("ASIA")));
    let nation = b.base("nation", &["n_nationkey", "n_regionkey", "n_name"]);
    let rn = b.join_on(region, nation, &[("r_regionkey", "n_regionkey")]);
    let customer = b.base("customer", &["c_custkey", "c_nationkey"]);
    let rnc = b.join_on(rn, customer, &[("n_nationkey", "c_nationkey")]);
    let orders = b.base("orders", &["o_orderkey", "o_custkey", "o_orderdate"]);
    let orders = b.select(
        orders,
        cmp(b.col("o_orderdate"), CmpOp::Ge, lit_date("1994-01-01")).and(cmp(
            b.col("o_orderdate"),
            CmpOp::Lt,
            lit_date("1995-01-01"),
        )),
    );
    let rnco = b.join_on(rnc, orders, &[("c_custkey", "o_custkey")]);
    let li = b.base(
        "lineitem",
        &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    );
    let rncol = b.join_on(rnco, li, &[("o_orderkey", "l_orderkey")]);
    let supplier = b.base("supplier", &["s_suppkey", "s_nationkey"]);
    // The double condition l_suppkey = s_suppkey AND c_nationkey =
    // s_nationkey ensures the supplier is in the customer's nation.
    let all = b.join_full(
        supplier,
        rncol,
        JoinKind::Inner,
        &[("s_suppkey", "l_suppkey"), ("s_nationkey", "c_nationkey")],
        None,
    );
    let rev = b.revenue("l_extendedprice", "l_discount");
    let g = b.group(all, &["n_name"], vec![b.sum_expr(rev, "l_extendedprice")]);
    b.sort(g, vec![(Expr::AggRef(0), false)]);
}

/// Q6 — forecasting revenue change.
fn q6(b: &mut QB) {
    let li = b.base(
        "lineitem",
        &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    );
    let sel = b.select(
        li,
        cmp(b.col("l_shipdate"), CmpOp::Ge, lit_date("1994-01-01"))
            .and(cmp(b.col("l_shipdate"), CmpOp::Lt, lit_date("1995-01-01")))
            .and(between(b.col("l_discount"), lit_num(0.05), lit_num(0.07)))
            .and(cmp(b.col("l_quantity"), CmpOp::Lt, lit_num(24.0))),
    );
    let rev = Expr::arith(b.col("l_extendedprice"), ArithOp::Mul, b.col("l_discount"));
    b.group(sel, &[], vec![b.sum_expr(rev, "l_extendedprice")]);
}

/// Q7 — volume shipping between two nations (two nation scans).
fn q7(b: &mut QB) {
    let supplier = b.base("supplier", &["s_suppkey", "s_nationkey"]);
    let li = b.base(
        "lineitem",
        &[
            "l_orderkey",
            "l_suppkey",
            "l_shipdate",
            "l_extendedprice",
            "l_discount",
        ],
    );
    let li = b.select(
        li,
        between(
            b.col("l_shipdate"),
            lit_date("1995-01-01"),
            lit_date("1996-12-31"),
        ),
    );
    let sl = b.join_on(supplier, li, &[("s_suppkey", "l_suppkey")]);
    let orders = b.base("orders", &["o_orderkey", "o_custkey"]);
    let slo = b.join_on(sl, orders, &[("l_orderkey", "o_orderkey")]);
    let customer = b.base("customer", &["c_custkey", "c_nationkey"]);
    let sloc = b.join_on(slo, customer, &[("o_custkey", "c_custkey")]);
    let n1 = b.base("nation", &["n_nationkey", "n_name"]);
    let j1 = b.join_on(sloc, n1, &[("s_nationkey", "n_nationkey")]);
    let n2 = b.base("nation2", &["n2_nationkey", "n2_name"]);
    let j2 = b.join_on(j1, n2, &[("c_nationkey", "n2_nationkey")]);
    let pair = Expr::Or(vec![
        cmp(b.col("n_name"), CmpOp::Eq, lit_str("FRANCE")).and(cmp(
            b.col("n2_name"),
            CmpOp::Eq,
            lit_str("GERMANY"),
        )),
        cmp(b.col("n_name"), CmpOp::Eq, lit_str("GERMANY")).and(cmp(
            b.col("n2_name"),
            CmpOp::Eq,
            lit_str("FRANCE"),
        )),
    ]);
    let filtered = b.select(j2, pair);
    let year = b.udf_year(filtered, "l_shipdate");
    let rev = b.revenue("l_extendedprice", "l_discount");
    let g = b.group(
        year,
        &["n_name", "n2_name", "l_shipdate"],
        vec![b.sum_expr(rev, "l_extendedprice")],
    );
    b.sort(
        g,
        vec![
            (b.col("n_name"), true),
            (b.col("n2_name"), true),
            (b.col("l_shipdate"), true),
        ],
    );
}

/// Q8 — national market share (two nation scans, CASE aggregate).
fn q8(b: &mut QB) {
    let part = b.base("part", &["p_partkey", "p_type"]);
    let part = b.select(
        part,
        cmp(
            b.col("p_type"),
            CmpOp::Eq,
            lit_str("ECONOMY ANODIZED STEEL"),
        ),
    );
    let li = b.base(
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
        ],
    );
    let pl = b.join_on(part, li, &[("p_partkey", "l_partkey")]);
    let supplier = b.base("supplier", &["s_suppkey", "s_nationkey"]);
    let pls = b.join_on(pl, supplier, &[("l_suppkey", "s_suppkey")]);
    let orders = b.base("orders", &["o_orderkey", "o_custkey", "o_orderdate"]);
    let orders = b.select(
        orders,
        between(
            b.col("o_orderdate"),
            lit_date("1995-01-01"),
            lit_date("1996-12-31"),
        ),
    );
    let plso = b.join_on(pls, orders, &[("l_orderkey", "o_orderkey")]);
    let customer = b.base("customer", &["c_custkey", "c_nationkey"]);
    let plsoc = b.join_on(plso, customer, &[("o_custkey", "c_custkey")]);
    let n1 = b.base("nation", &["n_nationkey", "n_regionkey"]);
    let j1 = b.join_on(plsoc, n1, &[("c_nationkey", "n_nationkey")]);
    let region = b.base("region", &["r_regionkey", "r_name"]);
    let region = b.select(region, cmp(b.col("r_name"), CmpOp::Eq, lit_str("AMERICA")));
    let j2 = b.join_on(j1, region, &[("n_regionkey", "r_regionkey")]);
    let n2 = b.base("nation2", &["n2_nationkey", "n2_name"]);
    let j3 = b.join_on(j2, n2, &[("s_nationkey", "n2_nationkey")]);
    let year = b.udf_year(j3, "o_orderdate");
    let volume = b.revenue("l_extendedprice", "l_discount");
    let brazil_volume = Expr::Case {
        branches: vec![(
            cmp(b.col("n2_name"), CmpOp::Eq, lit_str("BRAZIL")),
            volume.clone(),
        )],
        else_: Some(Box::new(lit_num(0.0))),
    };
    let g = b.group(
        year,
        &["o_orderdate"],
        vec![
            b.sum_expr(brazil_volume, "l_extendedprice"),
            b.sum_expr(volume, "l_extendedprice"),
        ],
    );
    b.sort(g, vec![(b.col("o_orderdate"), true)]);
}

/// Q9 — product type profit measure.
fn q9(b: &mut QB) {
    let part = b.base("part", &["p_partkey", "p_name"]);
    let part = b.select(part, like(b.col("p_name"), "%green%"));
    let li = b.base(
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    );
    let pl = b.join_on(part, li, &[("p_partkey", "l_partkey")]);
    let supplier = b.base("supplier", &["s_suppkey", "s_nationkey"]);
    let pls = b.join_on(pl, supplier, &[("l_suppkey", "s_suppkey")]);
    let partsupp = b.base("partsupp", &["ps_partkey", "ps_suppkey", "ps_supplycost"]);
    let plsp = b.join_full(
        pls,
        partsupp,
        JoinKind::Inner,
        &[("l_partkey", "ps_partkey"), ("l_suppkey", "ps_suppkey")],
        None,
    );
    let orders = b.base("orders", &["o_orderkey", "o_orderdate"]);
    let plspo = b.join_on(plsp, orders, &[("l_orderkey", "o_orderkey")]);
    let nation = b.base("nation", &["n_nationkey", "n_name"]);
    let all = b.join_on(plspo, nation, &[("s_nationkey", "n_nationkey")]);
    let year = b.udf_year(all, "o_orderdate");
    let amount = Expr::arith(
        b.revenue("l_extendedprice", "l_discount"),
        ArithOp::Sub,
        Expr::arith(b.col("ps_supplycost"), ArithOp::Mul, b.col("l_quantity")),
    );
    let g = b.group(
        year,
        &["n_name", "o_orderdate"],
        vec![b.sum_expr(amount, "l_extendedprice")],
    );
    b.sort(
        g,
        vec![(b.col("n_name"), true), (b.col("o_orderdate"), false)],
    );
}

/// Q10 — returned item reporting.
fn q10(b: &mut QB) {
    let customer = b.base(
        "customer",
        &[
            "c_custkey",
            "c_name",
            "c_acctbal",
            "c_phone",
            "c_nationkey",
            "c_address",
            "c_comment",
        ],
    );
    let orders = b.base("orders", &["o_orderkey", "o_custkey", "o_orderdate"]);
    let orders = b.select(
        orders,
        cmp(b.col("o_orderdate"), CmpOp::Ge, lit_date("1993-10-01")).and(cmp(
            b.col("o_orderdate"),
            CmpOp::Lt,
            lit_date("1994-01-01"),
        )),
    );
    let co = b.join_on(customer, orders, &[("c_custkey", "o_custkey")]);
    let li = b.base(
        "lineitem",
        &[
            "l_orderkey",
            "l_returnflag",
            "l_extendedprice",
            "l_discount",
        ],
    );
    let li = b.select(li, cmp(b.col("l_returnflag"), CmpOp::Eq, lit_str("R")));
    let col = b.join_on(co, li, &[("o_orderkey", "l_orderkey")]);
    let nation = b.base("nation", &["n_nationkey", "n_name"]);
    let all = b.join_on(col, nation, &[("c_nationkey", "n_nationkey")]);
    let rev = b.revenue("l_extendedprice", "l_discount");
    let g = b.group(
        all,
        &[
            "c_custkey",
            "c_name",
            "c_acctbal",
            "c_phone",
            "n_name",
            "c_address",
            "c_comment",
        ],
        vec![b.sum_expr(rev, "l_extendedprice")],
    );
    let sorted = b.sort(g, vec![(Expr::AggRef(0), false)]);
    b.limit(sorted, 20);
}

/// Q11 — important stock identification (HAVING against a global
/// scalar aggregate → product with a scalar branch).
fn q11(b: &mut QB) {
    let partsupp = b.base(
        "partsupp",
        &["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"],
    );
    let supplier = b.base("supplier", &["s_suppkey", "s_nationkey"]);
    let ps = b.join_on(partsupp, supplier, &[("ps_suppkey", "s_suppkey")]);
    let nation = b.base("nation", &["n_nationkey", "n_name"]);
    let nation = b.select(nation, cmp(b.col("n_name"), CmpOp::Eq, lit_str("GERMANY")));
    let psn = b.join_on(ps, nation, &[("s_nationkey", "n_nationkey")]);
    let value = Expr::arith(b.col("ps_supplycost"), ArithOp::Mul, b.col("ps_availqty"));
    let per_part = b.group(
        psn,
        &["ps_partkey"],
        vec![b.sum_expr(value, "ps_supplycost")],
    );

    // Scalar branch: the same sum over all German partsupps.
    let partsupp2 = b.base(
        "partsupp2",
        &["ps2_suppkey", "ps2_availqty", "ps2_supplycost"],
    );
    let supplier2 = b.base("supplier2", &["s2_suppkey", "s2_nationkey"]);
    let ps2 = b.join_on(partsupp2, supplier2, &[("ps2_suppkey", "s2_suppkey")]);
    let nation2 = b.base("nation2", &["n2_nationkey", "n2_name"]);
    let nation2 = b.select(
        nation2,
        cmp(b.col("n2_name"), CmpOp::Eq, lit_str("GERMANY")),
    );
    let ps2n = b.join_on(ps2, nation2, &[("s2_nationkey", "n2_nationkey")]);
    let value2 = Expr::arith(b.col("ps2_supplycost"), ArithOp::Mul, b.col("ps2_availqty"));
    let total = b.group(ps2n, &[], vec![b.sum_expr(value2, "ps2_supplycost")]);

    let combined = b.product(per_part, total);
    let filtered = b.select(
        combined,
        cmp(
            b.col("ps_supplycost"),
            CmpOp::Gt,
            Expr::arith(b.col("ps2_supplycost"), ArithOp::Mul, lit_num(0.0001)),
        ),
    );
    let proj = b.project(filtered, &["ps_partkey", "ps_supplycost"]);
    b.sort(proj, vec![(b.col("ps_supplycost"), false)]);
}

/// Q12 — shipping modes and order priority.
fn q12(b: &mut QB) {
    let orders = b.base("orders", &["o_orderkey", "o_orderpriority"]);
    let li = b.base(
        "lineitem",
        &[
            "l_orderkey",
            "l_shipmode",
            "l_commitdate",
            "l_receiptdate",
            "l_shipdate",
        ],
    );
    let li = b.select(
        li,
        in_list(
            b.col("l_shipmode"),
            vec![Value::str("MAIL"), Value::str("SHIP")],
        )
        .and(cmp(
            b.col("l_commitdate"),
            CmpOp::Lt,
            b.col("l_receiptdate"),
        ))
        .and(cmp(b.col("l_shipdate"), CmpOp::Lt, b.col("l_commitdate")))
        .and(cmp(
            b.col("l_receiptdate"),
            CmpOp::Ge,
            lit_date("1994-01-01"),
        ))
        .and(cmp(
            b.col("l_receiptdate"),
            CmpOp::Lt,
            lit_date("1995-01-01"),
        )),
    );
    let ol = b.join_on(orders, li, &[("o_orderkey", "l_orderkey")]);
    let high = Expr::Case {
        branches: vec![(
            in_list(
                b.col("o_orderpriority"),
                vec![Value::str("1-URGENT"), Value::str("2-HIGH")],
            ),
            lit_int(1),
        )],
        else_: Some(Box::new(lit_int(0))),
    };
    let low = Expr::Case {
        branches: vec![(
            in_list(
                b.col("o_orderpriority"),
                vec![Value::str("1-URGENT"), Value::str("2-HIGH")],
            ),
            lit_int(0),
        )],
        else_: Some(Box::new(lit_int(1))),
    };
    let g = b.group(
        ol,
        &["l_shipmode"],
        vec![
            b.sum_expr(high, "o_orderpriority"),
            b.sum_expr(low, "o_orderpriority"),
        ],
    );
    b.sort(g, vec![(b.col("l_shipmode"), true)]);
}

/// Q13 — customer distribution (left outer join + double aggregation).
fn q13(b: &mut QB) {
    let customer = b.base("customer", &["c_custkey"]);
    let orders = b.base("orders", &["o_orderkey", "o_custkey", "o_comment"]);
    let orders = b.select(orders, not_like(b.col("o_comment"), "%special%requests%"));
    let lo = b.join_full(
        customer,
        orders,
        JoinKind::LeftOuter,
        &[("c_custkey", "o_custkey")],
        None,
    );
    let per_customer = b.group(lo, &["c_custkey"], vec![b.count_col("o_orderkey")]);
    // Second aggregation: distribution of counts.
    let dist = b.group(
        per_customer,
        &["o_orderkey"],
        vec![b.count_star("o_orderkey")],
    );
    b.sort(
        dist,
        vec![(Expr::AggRef(0), false), (b.col("o_orderkey"), false)],
    );
}

/// Q14 — promotion effect.
fn q14(b: &mut QB) {
    let li = b.base(
        "lineitem",
        &["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    );
    let li = b.select(
        li,
        cmp(b.col("l_shipdate"), CmpOp::Ge, lit_date("1995-09-01")).and(cmp(
            b.col("l_shipdate"),
            CmpOp::Lt,
            lit_date("1995-10-01"),
        )),
    );
    let part = b.base("part", &["p_partkey", "p_type"]);
    let lp = b.join_on(li, part, &[("l_partkey", "p_partkey")]);
    let volume = b.revenue("l_extendedprice", "l_discount");
    let promo = Expr::Case {
        branches: vec![(like(b.col("p_type"), "PROMO%"), volume.clone())],
        else_: Some(Box::new(lit_num(0.0))),
    };
    b.group(
        lp,
        &[],
        vec![
            b.sum_expr(promo, "l_extendedprice"),
            b.sum_expr(volume, "l_extendedprice"),
        ],
    );
}

/// Q15 — top supplier (revenue view computed twice; MAX branch).
fn q15(b: &mut QB) {
    // revenue view over the main lineitem scan.
    let li = b.base(
        "lineitem",
        &["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    );
    let li = b.select(
        li,
        cmp(b.col("l_shipdate"), CmpOp::Ge, lit_date("1996-01-01")).and(cmp(
            b.col("l_shipdate"),
            CmpOp::Lt,
            lit_date("1996-04-01"),
        )),
    );
    let rev = b.revenue("l_extendedprice", "l_discount");
    let view = b.group(li, &["l_suppkey"], vec![b.sum_expr(rev, "l_extendedprice")]);

    // MAX branch over a second scan.
    let li2 = b.base(
        "lineitem2",
        &[
            "l2_suppkey",
            "l2_shipdate",
            "l2_extendedprice",
            "l2_discount",
        ],
    );
    let li2 = b.select(
        li2,
        cmp(b.col("l2_shipdate"), CmpOp::Ge, lit_date("1996-01-01")).and(cmp(
            b.col("l2_shipdate"),
            CmpOp::Lt,
            lit_date("1996-04-01"),
        )),
    );
    let rev2 = b.revenue("l2_extendedprice", "l2_discount");
    let view2 = b.group(
        li2,
        &["l2_suppkey"],
        vec![b.sum_expr(rev2, "l2_extendedprice")],
    );
    let max_rev = b.group(view2, &[], vec![b.max_col("l2_extendedprice")]);

    let combined = b.product(view, max_rev);
    let filtered = b.select(
        combined,
        cmp(
            b.col("l_extendedprice"),
            CmpOp::Eq,
            b.col("l2_extendedprice"),
        ),
    );
    let supplier = b.base("supplier", &["s_suppkey", "s_name", "s_address", "s_phone"]);
    let joined = b.join_on(supplier, filtered, &[("s_suppkey", "l_suppkey")]);
    let proj = b.project(
        joined,
        &[
            "s_suppkey",
            "s_name",
            "s_address",
            "s_phone",
            "l_extendedprice",
        ],
    );
    b.sort(proj, vec![(b.col("s_suppkey"), true)]);
}

/// Q16 — parts/supplier relationship (NOT IN → anti-join).
fn q16(b: &mut QB) {
    let partsupp = b.base("partsupp", &["ps_partkey", "ps_suppkey"]);
    let part = b.base("part", &["p_partkey", "p_brand", "p_type", "p_size"]);
    let part = b.select(
        part,
        Expr::Not(Box::new(cmp(
            b.col("p_brand"),
            CmpOp::Eq,
            lit_str("Brand#45"),
        )))
        .and(not_like(b.col("p_type"), "MEDIUM POLISHED%"))
        .and(in_list(
            b.col("p_size"),
            vec![
                Value::Int(49),
                Value::Int(14),
                Value::Int(23),
                Value::Int(45),
                Value::Int(19),
                Value::Int(3),
                Value::Int(36),
                Value::Int(9),
            ],
        )),
    );
    let psp = b.join_on(partsupp, part, &[("ps_partkey", "p_partkey")]);
    let bad_suppliers = b.base("supplier", &["s_suppkey", "s_comment"]);
    let bad_suppliers = b.select(
        bad_suppliers,
        like(b.col("s_comment"), "%Customer%Complaints%"),
    );
    let anti = b.join_full(
        psp,
        bad_suppliers,
        JoinKind::Anti,
        &[("ps_suppkey", "s_suppkey")],
        None,
    );
    let g = b.group(
        anti,
        &["p_brand", "p_type", "p_size"],
        vec![b.count_distinct("ps_suppkey")],
    );
    b.sort(
        g,
        vec![
            (Expr::AggRef(0), false),
            (b.col("p_brand"), true),
            (b.col("p_type"), true),
            (b.col("p_size"), true),
        ],
    );
}

/// Q17 — small-quantity-order revenue (correlated AVG → aggregate
/// branch over a second lineitem scan).
fn q17(b: &mut QB) {
    let li = b.base("lineitem", &["l_partkey", "l_quantity", "l_extendedprice"]);
    let part = b.base("part", &["p_partkey", "p_brand", "p_container"]);
    let part = b.select(
        part,
        cmp(b.col("p_brand"), CmpOp::Eq, lit_str("Brand#23")).and(cmp(
            b.col("p_container"),
            CmpOp::Eq,
            lit_str("MED BOX"),
        )),
    );
    let lp = b.join_on(li, part, &[("l_partkey", "p_partkey")]);
    let li2 = b.base("lineitem2", &["l2_partkey", "l2_quantity"]);
    let avg_qty = b.group(li2, &["l2_partkey"], vec![b.avg_col("l2_quantity")]);
    let joined = b.join_full(
        lp,
        avg_qty,
        JoinKind::Inner,
        &[("p_partkey", "l2_partkey")],
        Some(cmp(
            b.col("l_quantity"),
            CmpOp::Lt,
            Expr::arith(lit_num(0.2), ArithOp::Mul, b.col("l2_quantity")),
        )),
    );
    b.group(joined, &[], vec![b.sum_col("l_extendedprice")]);
}

/// Q18 — large-volume customers (IN over a grouped subquery →
/// semi-join against a HAVING branch).
fn q18(b: &mut QB) {
    let li2 = b.base("lineitem2", &["l2_orderkey", "l2_quantity"]);
    let big = b.group(li2, &["l2_orderkey"], vec![b.sum_col("l2_quantity")]);
    let big = b.having(big, cmp(Expr::AggRef(0), CmpOp::Gt, lit_num(300.0)));
    let customer = b.base("customer", &["c_custkey", "c_name"]);
    let orders = b.base(
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    );
    let co = b.join_on(customer, orders, &[("c_custkey", "o_custkey")]);
    let co = b.join_full(
        co,
        big,
        JoinKind::Semi,
        &[("o_orderkey", "l2_orderkey")],
        None,
    );
    let li = b.base("lineitem", &["l_orderkey", "l_quantity"]);
    let col = b.join_on(co, li, &[("o_orderkey", "l_orderkey")]);
    let g = b.group(
        col,
        &[
            "c_name",
            "c_custkey",
            "o_orderkey",
            "o_orderdate",
            "o_totalprice",
        ],
        vec![b.sum_col("l_quantity")],
    );
    let sorted = b.sort(
        g,
        vec![(b.col("o_totalprice"), false), (b.col("o_orderdate"), true)],
    );
    b.limit(sorted, 100);
}

/// Q19 — discounted revenue (disjunction of brand/container/quantity
/// combinations as a join residual).
fn q19(b: &mut QB) {
    let li = b.base(
        "lineitem",
        &[
            "l_partkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipmode",
            "l_shipinstruct",
        ],
    );
    let li = b.select(
        li,
        in_list(
            b.col("l_shipmode"),
            vec![Value::str("AIR"), Value::str("REG AIR")],
        )
        .and(cmp(
            b.col("l_shipinstruct"),
            CmpOp::Eq,
            lit_str("DELIVER IN PERSON"),
        )),
    );
    let part = b.base("part", &["p_partkey", "p_brand", "p_container", "p_size"]);
    let combo = |b: &QB, brand: &str, containers: [&str; 4], qlo: f64, qhi: f64, size_hi: i64| {
        cmp(b.col("p_brand"), CmpOp::Eq, lit_str(brand))
            .and(in_list(
                b.col("p_container"),
                containers.iter().map(|c| Value::str(c)).collect(),
            ))
            .and(between(b.col("l_quantity"), lit_num(qlo), lit_num(qhi)))
            .and(between(
                b.col("p_size"),
                lit_num(1.0),
                lit_num(size_hi as f64),
            ))
    };
    let residual = Expr::Or(vec![
        combo(
            b,
            "Brand#12",
            ["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
            1.0,
            11.0,
            5,
        ),
        combo(
            b,
            "Brand#23",
            ["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
            10.0,
            20.0,
            10,
        ),
        combo(
            b,
            "Brand#34",
            ["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
            20.0,
            30.0,
            15,
        ),
    ]);
    let joined = b.join_full(
        li,
        part,
        JoinKind::Inner,
        &[("l_partkey", "p_partkey")],
        Some(residual),
    );
    let rev = b.revenue("l_extendedprice", "l_discount");
    b.group(joined, &[], vec![b.sum_expr(rev, "l_extendedprice")]);
}

/// Q20 — potential part promotion (nested IN/scalar → semi-join chain
/// with an aggregate branch over a second lineitem scan).
fn q20(b: &mut QB) {
    // Aggregate branch: half the shipped quantity per (part, supp).
    let li2 = b.base(
        "lineitem2",
        &["l2_partkey", "l2_suppkey", "l2_shipdate", "l2_quantity"],
    );
    let li2 = b.select(
        li2,
        cmp(b.col("l2_shipdate"), CmpOp::Ge, lit_date("1994-01-01")).and(cmp(
            b.col("l2_shipdate"),
            CmpOp::Lt,
            lit_date("1995-01-01"),
        )),
    );
    let shipped = b.group(
        li2,
        &["l2_partkey", "l2_suppkey"],
        vec![b.sum_col("l2_quantity")],
    );

    // partsupp restricted to forest% parts, with availability above
    // half the shipped quantity.
    let partsupp = b.base("partsupp", &["ps_partkey", "ps_suppkey", "ps_availqty"]);
    let part = b.base("part", &["p_partkey", "p_name"]);
    let part = b.select(part, like(b.col("p_name"), "forest%"));
    let psp = b.join_full(
        partsupp,
        part,
        JoinKind::Semi,
        &[("ps_partkey", "p_partkey")],
        None,
    );
    let with_qty = b.join_full(
        psp,
        shipped,
        JoinKind::Inner,
        &[("ps_partkey", "l2_partkey"), ("ps_suppkey", "l2_suppkey")],
        Some(cmp(
            b.col("ps_availqty"),
            CmpOp::Gt,
            Expr::arith(lit_num(0.5), ArithOp::Mul, b.col("l2_quantity")),
        )),
    );

    let supplier = b.base(
        "supplier",
        &["s_suppkey", "s_name", "s_address", "s_nationkey"],
    );
    let nation = b.base("nation", &["n_nationkey", "n_name"]);
    let nation = b.select(nation, cmp(b.col("n_name"), CmpOp::Eq, lit_str("CANADA")));
    let sn = b.join_on(supplier, nation, &[("s_nationkey", "n_nationkey")]);
    let filtered = b.join_full(
        sn,
        with_qty,
        JoinKind::Semi,
        &[("s_suppkey", "ps_suppkey")],
        None,
    );
    let proj = b.project(filtered, &["s_name", "s_address"]);
    b.sort(proj, vec![(b.col("s_name"), true)]);
}

/// Q21 — suppliers who kept orders waiting (EXISTS → semi-join,
/// NOT EXISTS → anti-join, three lineitem scans).
fn q21(b: &mut QB) {
    let supplier = b.base("supplier", &["s_suppkey", "s_name", "s_nationkey"]);
    let li = b.base(
        "lineitem",
        &["l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"],
    );
    let li = b.select(
        li,
        cmp(b.col("l_receiptdate"), CmpOp::Gt, b.col("l_commitdate")),
    );
    let sl = b.join_on(supplier, li, &[("s_suppkey", "l_suppkey")]);
    let orders = b.base("orders", &["o_orderkey", "o_orderstatus"]);
    let orders = b.select(orders, cmp(b.col("o_orderstatus"), CmpOp::Eq, lit_str("F")));
    let slo = b.join_on(sl, orders, &[("l_orderkey", "o_orderkey")]);
    let nation = b.base("nation", &["n_nationkey", "n_name"]);
    let nation = b.select(
        nation,
        cmp(b.col("n_name"), CmpOp::Eq, lit_str("SAUDI ARABIA")),
    );
    let slon = b.join_on(slo, nation, &[("s_nationkey", "n_nationkey")]);

    // EXISTS: another supplier's lineitem in the same order.
    let li2 = b.base("lineitem2", &["l2_orderkey", "l2_suppkey"]);
    let semi = b.join_full(
        slon,
        li2,
        JoinKind::Semi,
        &[("l_orderkey", "l2_orderkey")],
        Some(Expr::Not(Box::new(cmp(
            b.col("l2_suppkey"),
            CmpOp::Eq,
            b.col("l_suppkey"),
        )))),
    );

    // NOT EXISTS: no other supplier was late on the same order.
    let li3 = b.base(
        "lineitem3",
        &[
            "l3_orderkey",
            "l3_suppkey",
            "l3_receiptdate",
            "l3_commitdate",
        ],
    );
    let li3 = b.select(
        li3,
        cmp(b.col("l3_receiptdate"), CmpOp::Gt, b.col("l3_commitdate")),
    );
    let anti = b.join_full(
        semi,
        li3,
        JoinKind::Anti,
        &[("l_orderkey", "l3_orderkey")],
        Some(Expr::Not(Box::new(cmp(
            b.col("l3_suppkey"),
            CmpOp::Eq,
            b.col("l_suppkey"),
        )))),
    );
    let g = b.group(anti, &["s_name"], vec![b.count_star("s_name")]);
    let sorted = b.sort(g, vec![(Expr::AggRef(0), false), (b.col("s_name"), true)]);
    b.limit(sorted, 100);
}

/// Q22 — global sales opportunity (scalar AVG branch over a second
/// customer scan; NOT EXISTS → anti-join).
fn q22(b: &mut QB) {
    let codes = vec![
        Value::str("13"),
        Value::str("31"),
        Value::str("23"),
        Value::str("29"),
        Value::str("30"),
        Value::str("18"),
        Value::str("17"),
    ];
    let cntry = |col: Expr| Expr::Substring {
        expr: Box::new(col),
        start: 1,
        len: 2,
    };

    let customer = b.base("customer", &["c_custkey", "c_phone", "c_acctbal"]);
    let customer = b.select(customer, in_list(cntry(b.col("c_phone")), codes.clone()));

    // Scalar branch: average positive balance in those country codes.
    let customer2 = b.base("customer2", &["c2_phone", "c2_acctbal"]);
    let customer2 = b.select(
        customer2,
        cmp(b.col("c2_acctbal"), CmpOp::Gt, lit_num(0.0))
            .and(in_list(cntry(b.col("c2_phone")), codes)),
    );
    let avg_bal = b.group(customer2, &[], vec![b.avg_col("c2_acctbal")]);

    let combined = b.product(customer, avg_bal);
    let rich = b.select(
        combined,
        cmp(b.col("c_acctbal"), CmpOp::Gt, b.col("c2_acctbal")),
    );

    // NOT EXISTS orders.
    let orders = b.base("orders", &["o_custkey"]);
    let anti = b.join_full(
        rich,
        orders,
        JoinKind::Anti,
        &[("c_custkey", "o_custkey")],
        None,
    );

    // cntrycode = substring(c_phone, 1, 2) as a µ node, then group.
    let phone_attr = b.a("c_phone");
    let cntry_node = b.plan.add(
        Operator::Udf {
            name: "cntrycode".into(),
            inputs: vec![phone_attr],
            output: phone_attr,
            body: Some(cntry(Expr::Col(phone_attr))),
        },
        vec![anti],
    );
    let g = b.group(
        cntry_node,
        &["c_phone"],
        vec![b.count_star("c_phone"), b.sum_col("c_acctbal")],
    );
    b.sort(g, vec![(b.col("c_phone"), true)]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::tpch_catalog;
    use mpq_core::profile::profile_plan;

    #[test]
    fn all_22_plans_validate() {
        let cat = tpch_catalog();
        for q in 1..=QUERY_COUNT {
            let plan = query_plan(&cat, q);
            plan.validate(&cat).unwrap_or_else(|e| panic!("Q{q}: {e}"));
            assert!(plan.postorder().len() >= 3, "Q{q} suspiciously small");
        }
    }

    #[test]
    fn all_22_plans_profile_cleanly() {
        let cat = tpch_catalog();
        for q in 1..=QUERY_COUNT {
            let plan = query_plan(&cat, q);
            let profiles = profile_plan(&plan);
            let root = &profiles[plan.root().index()];
            assert!(!root.footprint().is_empty(), "Q{q} root profile is empty");
        }
    }

    #[test]
    fn q6_is_single_table() {
        let cat = tpch_catalog();
        let plan = query_plan(&cat, 6);
        let joins = plan
            .postorder()
            .into_iter()
            .filter(|&id| matches!(plan.node(id).op, Operator::Join { .. } | Operator::Product))
            .count();
        assert_eq!(joins, 0);
    }

    #[test]
    fn multi_scan_queries_use_aliases() {
        let cat = tpch_catalog();
        for (q, alias) in [(2, "ps2_partkey"), (7, "n2_name"), (21, "l3_orderkey")] {
            let plan = query_plan(&cat, q);
            let a = cat.attr(alias).unwrap();
            let uses = plan.postorder().into_iter().any(|id| {
                matches!(&plan.node(id).op, Operator::Base { attrs, .. } if attrs.contains(&a))
            });
            assert!(uses, "Q{q} must scan the alias providing {alias}");
        }
    }

    #[test]
    fn semi_anti_shapes() {
        let cat = tpch_catalog();
        let kinds = |q: usize| -> Vec<JoinKind> {
            let plan = query_plan(&cat, q);
            plan.postorder()
                .into_iter()
                .filter_map(|id| match &plan.node(id).op {
                    Operator::Join { kind, .. } => Some(*kind),
                    _ => None,
                })
                .collect()
        };
        assert!(kinds(4).contains(&JoinKind::Semi), "Q4 uses a semi-join");
        assert!(kinds(13).contains(&JoinKind::LeftOuter), "Q13 outer join");
        assert!(kinds(16).contains(&JoinKind::Anti), "Q16 anti-join");
        let q21 = kinds(21);
        assert!(
            q21.contains(&JoinKind::Semi) && q21.contains(&JoinKind::Anti),
            "Q21 uses both"
        );
    }
}
