//! SQL-to-result integration: parse → plan → execute on the running
//! example and on generated TPC-H data, checking concrete answers.

use mpq::algebra::builder::plan_sql;
use mpq::algebra::{Catalog, Date, Value};
use mpq::exec::{Database, SchemePlan, Table};
use mpq_crypto::keyring::KeyRing;
use std::collections::HashMap;

fn run(cat: &Catalog, db: &Database, sql: &str) -> Table {
    let plan = plan_sql(cat, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let keys = KeyRing::new();
    let schemes = SchemePlan::default();
    let koa = HashMap::new();
    let ctx = mpq::exec::engine::ExecCtx::new(cat, db, &keys, &schemes, &koa);
    mpq::exec::execute(&plan, &ctx).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

fn hospital() -> (Catalog, Database) {
    let cat = Catalog::paper_running_example();
    let mut db = Database::new();
    let d = |s: &str| Value::Date(Date::parse(s).unwrap());
    db.load(
        &cat,
        "Hosp",
        vec![
            vec![
                Value::str("s1"),
                d("1970-01-01"),
                Value::str("stroke"),
                Value::str("t1"),
            ],
            vec![
                Value::str("s2"),
                d("1980-02-02"),
                Value::str("stroke"),
                Value::str("t1"),
            ],
            vec![
                Value::str("s3"),
                d("1990-03-03"),
                Value::str("flu"),
                Value::str("t2"),
            ],
            vec![
                Value::str("s4"),
                d("1960-04-04"),
                Value::str("stroke"),
                Value::str("t2"),
            ],
            vec![
                Value::str("s5"),
                d("1955-09-09"),
                Value::str("asthma"),
                Value::str("t3"),
            ],
        ],
    );
    db.load(
        &cat,
        "Ins",
        vec![
            vec![Value::str("s1"), Value::Num(120.0)],
            vec![Value::str("s2"), Value::Num(220.0)],
            vec![Value::str("s3"), Value::Num(60.0)],
            vec![Value::str("s4"), Value::Num(90.0)],
        ],
    );
    (cat, db)
}

#[test]
fn paper_query_returns_expected_row() {
    let (cat, db) = hospital();
    let t = run(
        &cat,
        &db,
        "select T, avg(P) from Hosp join Ins on S=C \
         where D='stroke' group by T having avg(P)>100",
    );
    assert_eq!(t.len(), 1);
    assert!(t.value(0, 0).sql_eq(&Value::str("t1")));
    assert!(t.value(1, 0).sql_eq(&Value::Num(170.0)));
}

#[test]
fn filters_and_projection() {
    let (cat, db) = hospital();
    let t = run(
        &cat,
        &db,
        "select S from Hosp where D <> 'stroke' order by S",
    );
    assert_eq!(t.len(), 2);
    assert!(t.value(0, 0).sql_eq(&Value::str("s3")));
    assert!(t.value(0, 1).sql_eq(&Value::str("s5")));
}

#[test]
fn between_in_and_like() {
    let (cat, db) = hospital();
    let t = run(
        &cat,
        &db,
        "select C, P from Ins where P between 80 and 130 and C in ('s1','s4') order by P desc",
    );
    assert_eq!(t.len(), 2);
    assert!(t.value(1, 0).sql_eq(&Value::Num(120.0)));
    let t = run(&cat, &db, "select S from Hosp where D like 'str%'");
    assert_eq!(t.len(), 3);
}

#[test]
fn date_arithmetic_and_extract() {
    let (cat, db) = hospital();
    let t = run(
        &cat,
        &db,
        "select S from Hosp where B >= date '1960-01-01' + interval '10' year",
    );
    assert_eq!(t.len(), 3, "born on/after 1970-01-01: s1, s2, s3");
    let t = run(
        &cat,
        &db,
        "select extract(year from B) as y, count(*) from Hosp group by y order by y",
    );
    assert_eq!(t.len(), 5);
    assert!(t.value(0, 0).sql_eq(&Value::Int(1955)));
}

#[test]
fn aggregate_aliases_in_having_and_order() {
    let (cat, db) = hospital();
    let t = run(
        &cat,
        &db,
        "select D, count(*) as n from Hosp group by D having n >= 1 order by n desc, D limit 2",
    );
    assert_eq!(t.len(), 2);
    assert!(t.value(0, 0).sql_eq(&Value::str("stroke")));
    assert!(t.value(1, 0).sql_eq(&Value::Int(3)));
}

/// A `WHERE` conjunct over a `LEFT OUTER JOIN`'s right side filters
/// the joined rows: a failed match is dropped, not null-extended.
#[test]
fn where_filters_the_rows_of_an_outer_join() {
    let (cat, db) = hospital();
    let names =
        |t: &Table| -> Vec<String> { (0..t.len()).map(|r| t.value(0, r).to_string()).collect() };
    let t = run(
        &cat,
        &db,
        "select S, P from Hosp left outer join Ins on S = C where P > 100 order by S",
    );
    assert_eq!(names(&t), ["'s1'", "'s2'"]);
    let t = run(
        &cat,
        &db,
        "select S from Hosp left outer join Ins on S = C where P is null",
    );
    assert_eq!(names(&t), ["'s5'"]);
}

/// A sort on a computed item orders by its value, whether the key is
/// the expression or the item's alias.
#[test]
fn a_computed_sort_key_orders_by_its_value() {
    let (cat, db) = hospital();
    for sql in [
        "select 0.0 - P from Ins order by 0.0 - P",
        "select 0.0 - P as x from Ins order by x",
        "select 0.0 - P as x from Ins order by x, 0.0 - P",
    ] {
        let t = run(&cat, &db, sql);
        let got: Vec<String> = (0..t.len()).map(|r| t.value(0, r).to_string()).collect();
        assert_eq!(got, ["-220.00", "-120.00", "-90.00", "-60.00"], "{sql}");
    }
}

#[test]
fn tpch_sql_on_generated_data() {
    // The SQL front-end can express simplified TPC-H queries directly
    // against the generated database.
    let (cat, db) = mpq::tpch::generate(0.002, 99);
    // Q6-style revenue query.
    let t = run(
        &cat,
        &db,
        "select sum(l_extendedprice * l_discount) as revenue \
         from lineitem \
         where l_shipdate >= date '1994-01-01' \
           and l_shipdate < date '1994-01-01' + interval '1' year \
           and l_discount between 0.05 and 0.07 \
           and l_quantity < 24",
    );
    assert_eq!(t.len(), 1);
    // Q1-style summary (reduced column list).
    let t = run(
        &cat,
        &db,
        "select l_returnflag, l_linestatus, sum(l_quantity), count(*) \
         from lineitem where l_shipdate <= date '1998-12-01' \
         group by l_returnflag, l_linestatus \
         order by l_returnflag, l_linestatus",
    );
    assert!(
        t.len() >= 2 && t.len() <= 4,
        "{} flag/status groups",
        t.len()
    );
    // A join across authorities.
    let t = run(
        &cat,
        &db,
        "select n_name, count(*) from supplier join nation on s_nationkey = n_nationkey \
         group by n_name order by count(*) desc limit 5",
    );
    assert!(t.len() <= 5 && !t.is_empty());
}

#[test]
fn semantic_errors_are_reported() {
    let (cat, _) = hospital();
    assert!(plan_sql(&cat, "select Z from Hosp").is_err());
    assert!(plan_sql(&cat, "select S from Nowhere").is_err());
    assert!(plan_sql(&cat, "select S, avg(P) from Hosp, Ins group by T").is_err());
}
