//! The 22 TPC-H queries, as SQL text planned by
//! [`mpq_algebra::builder::plan_sql`].
//!
//! The text is written in the decorrelated shape PostgreSQL produces
//! (the paper's tool consumed PostgreSQL plans: "the mapping from
//! relational algebra operators … to the physical PostgreSQL operators
//! was immediate"), and a table scanned twice is scanned again through
//! an alias relation of `schema::ALIASES` (`nation2`, `lineitem3`, …).
//! The shapes, each with the rule of `mpq_algebra::builder` that fixes
//! it:
//!
//! * projections sit in the leaves and single-relation selections
//!   directly above them (rules 1–2);
//! * comma-separated base relations join left-deep in `FROM` order
//!   through their `WHERE` equalities (rule 3);
//! * a subquery in `FROM` is a derived table `(SELECT …) name` (rule
//!   3), joined through its `JOIN … ON` (Q2, Q5, Q15, Q17, Q18, Q20) or
//!   else a cartesian product under a selection (Q11, Q15, Q22). Q5's
//!   and Q15's supplier is the left side of the last join, so what it
//!   joins is one derived table;
//! * `EXISTS` / `IN` / `NOT EXISTS` become semi-/anti-joins after
//!   their statement's joins (rule 4: Q4, Q16, Q18, Q20, Q21, Q22); a
//!   nested derived table places one lower in the tree (Q18, Q20). Q16's
//!   `NOT IN` is written `NOT EXISTS`, which rule 4 plans as the same
//!   anti join, since it refuses `NOT IN (SELECT …)`;
//! * `LEFT OUTER JOIN … ON` keeps its right-side conjunct below the
//!   join (rule 2: Q13); any other non-equality `ON` conjunct is its
//!   join's residual (rule 3: Q17, Q19, Q20);
//! * computed group keys (`extract(year …)`, `substring(…)`) are
//!   materialized by µ nodes named by their alias (rule 5);
//! * aggregate outputs are named after one of their input attributes,
//!   the paper's renaming simplification: the one their `AS` names (Q9,
//!   Q11, Q14), otherwise the first (rule 6);
//! * a plain outermost select list is projected before its `ORDER BY`
//!   (rule 7: Q2, Q11, Q15, Q20).

use mpq_algebra::builder::{plan_sql, prune_columns};
use mpq_algebra::{Catalog, QueryPlan};

/// Number of TPC-H queries.
pub const QUERY_COUNT: usize = 22;

/// Build the plan for query `q` (1-based, as in the paper's figures).
pub fn query_plan(catalog: &Catalog, q: usize) -> QueryPlan {
    assert!(
        (1..=QUERY_COUNT).contains(&q),
        "TPC-H defines queries 1–22, got {q}"
    );
    let plan = plan_sql(catalog, SQL[q - 1]).unwrap_or_else(|e| panic!("Q{q}: {e}"));
    // The paper assumes plans with classical optimizations applied;
    // narrow intermediate tuples after each operator's last use of a
    // column (PostgreSQL does the same).
    prune_columns(&plan, catalog)
}

/// The text of Q1–Q22.
const SQL: [&str; QUERY_COUNT] = [
    // Q1: pricing summary report.
    "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
        sum(l_extendedprice * (1.0 - l_discount)),
        sum(l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax)),
        avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
     from lineitem
     where l_shipdate <= date '1998-12-01'
     group by l_returnflag, l_linestatus
     order by l_returnflag, l_linestatus",
    // Q2: minimum-cost supplier.
    "select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
     from region, nation, supplier, partsupp, part
       join (select ps2_partkey, min(ps2_supplycost)
             from region2, nation3, supplier2, partsupp2
             where r2_name = 'EUROPE' and r2_regionkey = n3_regionkey
               and n3_nationkey = s2_nationkey and s2_suppkey = ps2_suppkey
             group by ps2_partkey) min_cost
         on p_partkey = ps2_partkey and ps_supplycost = ps2_supplycost
     where r_name = 'EUROPE' and r_regionkey = n_regionkey and n_nationkey = s_nationkey
       and s_suppkey = ps_suppkey and ps_partkey = p_partkey
       and p_size = 15 and p_type like '%BRASS'
     order by s_acctbal desc, n_name, s_name, p_partkey
     limit 100",
    // Q3: shipping priority.
    "select o_orderkey, sum(l_extendedprice * (1.0 - l_discount)) as revenue,
        o_orderdate, o_shippriority
     from customer, orders, lineitem
     where c_mktsegment = 'BUILDING' and c_custkey = o_custkey and l_orderkey = o_orderkey
       and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15'
     group by o_orderkey, o_orderdate, o_shippriority
     order by revenue desc, o_orderdate
     limit 10",
    // Q4: order priority checking.
    "select o_orderpriority, count(*) as order_count
     from orders
     where o_orderdate >= date '1993-07-01'
       and o_orderdate < date '1993-07-01' + interval '3' month
       and exists (select * from lineitem
                   where l_orderkey = o_orderkey and l_commitdate < l_receiptdate)
     group by o_orderpriority
     order by o_orderpriority",
    // Q5: local supplier volume.
    "select n_name, sum(l_extendedprice * (1.0 - l_discount)) as revenue
     from supplier
       join (select * from region, nation, customer, orders, lineitem
             where r_name = 'ASIA' and r_regionkey = n_regionkey and n_nationkey = c_nationkey
               and c_custkey = o_custkey and o_orderkey = l_orderkey
               and o_orderdate >= date '1994-01-01'
               and o_orderdate < date '1994-01-01' + interval '1' year) sales
         on s_suppkey = l_suppkey and s_nationkey = c_nationkey
     group by n_name
     order by revenue desc",
    // Q6: forecasting revenue change.
    "select sum(l_extendedprice * l_discount) as revenue
     from lineitem
     where l_shipdate >= date '1994-01-01'
       and l_shipdate < date '1994-01-01' + interval '1' year
       and l_discount between 0.05 and 0.07 and l_quantity < 24.0",
    // Q7: volume shipping.
    "select n_name, n2_name, extract(year from l_shipdate) as year_of_l_shipdate,
        sum(l_extendedprice * (1.0 - l_discount)) as revenue
     from supplier, lineitem, orders, customer, nation, nation2
     where s_suppkey = l_suppkey and o_orderkey = l_orderkey and c_custkey = o_custkey
       and s_nationkey = n_nationkey and c_nationkey = n2_nationkey
       and ((n_name = 'FRANCE' and n2_name = 'GERMANY')
         or (n_name = 'GERMANY' and n2_name = 'FRANCE'))
       and l_shipdate between date '1995-01-01' and date '1996-12-31'
     group by n_name, n2_name, year_of_l_shipdate
     order by n_name, n2_name, year_of_l_shipdate",
    // Q8: national market share.
    "select extract(year from o_orderdate) as year_of_o_orderdate,
        sum(case when n2_name = 'BRAZIL' then l_extendedprice * (1.0 - l_discount)
            else 0.0 end),
        sum(l_extendedprice * (1.0 - l_discount))
     from part, lineitem, supplier, orders, customer, nation, region, nation2
     where p_partkey = l_partkey and s_suppkey = l_suppkey and l_orderkey = o_orderkey
       and o_custkey = c_custkey and c_nationkey = n_nationkey
       and n_regionkey = r_regionkey and r_name = 'AMERICA' and s_nationkey = n2_nationkey
       and o_orderdate between date '1995-01-01' and date '1996-12-31'
       and p_type = 'ECONOMY ANODIZED STEEL'
     group by year_of_o_orderdate
     order by year_of_o_orderdate",
    // Q9: product type profit measure.
    "select n_name, extract(year from o_orderdate) as year_of_o_orderdate,
        sum(l_extendedprice * (1.0 - l_discount) - ps_supplycost * l_quantity)
          as l_extendedprice
     from part, lineitem, supplier, partsupp, orders, nation
     where p_partkey = l_partkey and s_suppkey = l_suppkey and ps_partkey = l_partkey
       and ps_suppkey = l_suppkey and o_orderkey = l_orderkey and s_nationkey = n_nationkey
       and p_name like '%green%'
     group by n_name, year_of_o_orderdate
     order by n_name, year_of_o_orderdate desc",
    // Q10: returned item reporting.
    "select c_custkey, c_name, sum(l_extendedprice * (1.0 - l_discount)) as revenue,
        c_acctbal, n_name, c_address, c_phone, c_comment
     from customer, orders, lineitem, nation
     where c_custkey = o_custkey and l_orderkey = o_orderkey
       and o_orderdate >= date '1993-10-01'
       and o_orderdate < date '1993-10-01' + interval '3' month
       and l_returnflag = 'R' and c_nationkey = n_nationkey
     group by c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
     order by revenue desc
     limit 20",
    // Q11: important stock identification.
    "select ps_partkey, ps_supplycost
     from (select ps_partkey, sum(ps_supplycost * ps_availqty) as ps_supplycost
           from partsupp, supplier, nation
           where ps_suppkey = s_suppkey and s_nationkey = n_nationkey and n_name = 'GERMANY'
           group by ps_partkey) part_value,
          (select sum(ps2_supplycost * ps2_availqty) as ps2_supplycost
           from partsupp2, supplier2, nation2
           where ps2_suppkey = s2_suppkey and s2_nationkey = n2_nationkey
             and n2_name = 'GERMANY') total_value
     where ps_supplycost > ps2_supplycost * 0.0001
     order by ps_supplycost desc",
    // Q12: shipping modes and order priority.
    "select l_shipmode,
        sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 1 else 0 end),
        sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 0 else 1 end)
     from orders, lineitem
     where o_orderkey = l_orderkey and l_shipmode in ('MAIL', 'SHIP')
       and l_commitdate < l_receiptdate and l_shipdate < l_commitdate
       and l_receiptdate >= date '1994-01-01'
       and l_receiptdate < date '1994-01-01' + interval '1' year
     group by l_shipmode
     order by l_shipmode",
    // Q13: customer distribution.
    "select o_orderkey, count(*) as custdist
     from (select c_custkey, count(o_orderkey)
           from customer left outer join orders
             on c_custkey = o_custkey and o_comment not like '%special%requests%'
           group by c_custkey) c_orders
     group by o_orderkey
     order by custdist desc, o_orderkey desc",
    // Q14: promotion effect.
    "select sum(case when p_type like 'PROMO%' then l_extendedprice * (1.0 - l_discount)
            else 0.0 end) as l_extendedprice,
        sum(l_extendedprice * (1.0 - l_discount))
     from lineitem, part
     where l_partkey = p_partkey and l_shipdate >= date '1995-09-01'
       and l_shipdate < date '1995-09-01' + interval '1' month",
    // Q15: top supplier.
    "select s_suppkey, s_name, s_address, s_phone, l_extendedprice
     from supplier
       join (select *
             from (select l_suppkey, sum(l_extendedprice * (1.0 - l_discount))
                   from lineitem
                   where l_shipdate >= date '1996-01-01'
                     and l_shipdate < date '1996-01-01' + interval '3' month
                   group by l_suppkey) revenue,
                  (select max(l2_extendedprice)
                   from (select l2_suppkey, sum(l2_extendedprice * (1.0 - l2_discount))
                         from lineitem2
                         where l2_shipdate >= date '1996-01-01'
                           and l2_shipdate < date '1996-01-01' + interval '3' month
                         group by l2_suppkey) revenue2) max_revenue
             where l_extendedprice = l2_extendedprice) top_supplier
         on s_suppkey = l_suppkey
     order by s_suppkey",
    // Q16: parts/supplier relationship.
    "select p_brand, p_type, p_size, count(distinct ps_suppkey) as supplier_cnt
     from partsupp, part
     where p_partkey = ps_partkey and not p_brand = 'Brand#45'
       and p_type not like 'MEDIUM POLISHED%' and p_size in (49, 14, 23, 45, 19, 3, 36, 9)
       and not exists (select * from supplier
                       where s_suppkey = ps_suppkey and s_comment like '%Customer%Complaints%')
     group by p_brand, p_type, p_size
     order by supplier_cnt desc, p_brand, p_type, p_size",
    // Q17: small-quantity-order revenue.
    "select sum(l_extendedprice)
     from lineitem, part
       join (select l2_partkey, avg(l2_quantity) from lineitem2 group by l2_partkey) part_avg
         on p_partkey = l2_partkey and l_quantity < 0.2 * l2_quantity
     where p_partkey = l_partkey and p_brand = 'Brand#23' and p_container = 'MED BOX'",
    // Q18: large volume customer.
    "select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, sum(l_quantity)
     from (select * from customer, orders
           where c_custkey = o_custkey
             and o_orderkey in (select l2_orderkey from lineitem2 group by l2_orderkey
                                having sum(l2_quantity) > 300.0)) big_orders
       join lineitem on o_orderkey = l_orderkey
     group by c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
     order by o_totalprice desc, o_orderdate
     limit 100",
    // Q19: discounted revenue.
    "select sum(l_extendedprice * (1.0 - l_discount)) as revenue
     from lineitem
       join part on l_partkey = p_partkey
         and ((p_brand = 'Brand#12' and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
               and l_quantity between 1.0 and 11.0 and p_size between 1.0 and 5.0)
           or (p_brand = 'Brand#23' and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
               and l_quantity between 10.0 and 20.0 and p_size between 1.0 and 10.0)
           or (p_brand = 'Brand#34' and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
               and l_quantity between 20.0 and 30.0 and p_size between 1.0 and 15.0))
     where l_shipmode in ('AIR', 'REG AIR') and l_shipinstruct = 'DELIVER IN PERSON'",
    // Q20: potential part promotion.
    "select s_name, s_address
     from supplier, nation
     where s_nationkey = n_nationkey and n_name = 'CANADA'
       and s_suppkey in (
         select ps_suppkey
         from (select * from partsupp
               where ps_partkey in (select p_partkey from part where p_name like 'forest%')) forest
           join (select l2_partkey, l2_suppkey, sum(l2_quantity)
                 from lineitem2
                 where l2_shipdate >= date '1994-01-01'
                   and l2_shipdate < date '1994-01-01' + interval '1' year
                 group by l2_partkey, l2_suppkey) shipped
             on ps_partkey = l2_partkey and ps_suppkey = l2_suppkey
               and ps_availqty > 0.5 * l2_quantity)
     order by s_name",
    // Q21: suppliers who kept orders waiting.
    "select s_name, count(*) as numwait
     from supplier, lineitem, orders, nation
     where s_suppkey = l_suppkey and o_orderkey = l_orderkey and o_orderstatus = 'F'
       and l_receiptdate > l_commitdate and s_nationkey = n_nationkey
       and n_name = 'SAUDI ARABIA'
       and exists (select * from lineitem2
                   where l2_orderkey = l_orderkey and not l2_suppkey = l_suppkey)
       and not exists (select * from lineitem3
                       where l3_orderkey = l_orderkey and not l3_suppkey = l_suppkey
                         and l3_receiptdate > l3_commitdate)
     group by s_name
     order by numwait desc, s_name
     limit 100",
    // Q22: global sales opportunity.
    "select substring(c_phone from 1 for 2) as cntrycode, count(*), sum(c_acctbal)
     from customer,
          (select avg(c2_acctbal) from customer2
           where c2_acctbal > 0.0
             and substring(c2_phone from 1 for 2) in ('13', '31', '23', '29', '30', '18', '17'))
            avg_balance
     where substring(c_phone from 1 for 2) in ('13', '31', '23', '29', '30', '18', '17')
       and c_acctbal > c2_acctbal
       and not exists (select * from orders where o_custkey = c_custkey)
     group by cntrycode
     order by cntrycode",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::tpch_catalog;
    use mpq_algebra::{JoinKind, Operator};
    use mpq_core::profile::profile_plan;

    /// Each query's plan, before column pruning, is numbered in
    /// postorder: every `FROM` item is built just before it is joined.
    #[test]
    fn sql_plans_are_numbered_in_postorder() {
        let cat = tpch_catalog();
        for (q, sql) in SQL.iter().enumerate() {
            let order = plan_sql(&cat, sql).unwrap().postorder();
            assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "Q{}: {order:?}",
                q + 1
            );
        }
    }

    /// Attribute names are global: a relation scanned twice must be
    /// scanned through an alias relation, and the refusal names one.
    #[test]
    fn a_relation_scanned_twice_names_its_alias() {
        let cat = tpch_catalog();
        let err = plan_sql(&cat, "select n_name from nation, nation").unwrap_err();
        assert!(
            matches!(&err, mpq_algebra::AlgebraError::Semantic(m) if m.contains("nation2")),
            "{err}"
        );
        let sql = "select n_name from nation, nation2, nation where n_nationkey = n2_nationkey";
        let err = plan_sql(&cat, sql).unwrap_err();
        assert!(err.to_string().contains("nation3"), "{err}");
    }

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
