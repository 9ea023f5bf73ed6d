//! The TPC-H schema (plus alias relations for repeated scans).

use mpq_algebra::{Catalog, DataType, Result};

/// Columns of each base table, with TPC-H types mapped to our value
/// types (`decimal` → `Num`, `char`/`varchar` → `Str`).
const REGION: &[(&str, DataType)] = &[
    ("r_regionkey", DataType::Int),
    ("r_name", DataType::Str),
    ("r_comment", DataType::Str),
];

const NATION: &[(&str, DataType)] = &[
    ("n_nationkey", DataType::Int),
    ("n_name", DataType::Str),
    ("n_regionkey", DataType::Int),
    ("n_comment", DataType::Str),
];

const SUPPLIER: &[(&str, DataType)] = &[
    ("s_suppkey", DataType::Int),
    ("s_name", DataType::Str),
    ("s_address", DataType::Str),
    ("s_nationkey", DataType::Int),
    ("s_phone", DataType::Str),
    ("s_acctbal", DataType::Num),
    ("s_comment", DataType::Str),
];

const PART: &[(&str, DataType)] = &[
    ("p_partkey", DataType::Int),
    ("p_name", DataType::Str),
    ("p_mfgr", DataType::Str),
    ("p_brand", DataType::Str),
    ("p_type", DataType::Str),
    ("p_size", DataType::Int),
    ("p_container", DataType::Str),
    ("p_retailprice", DataType::Num),
    ("p_comment", DataType::Str),
];

const PARTSUPP: &[(&str, DataType)] = &[
    ("ps_partkey", DataType::Int),
    ("ps_suppkey", DataType::Int),
    ("ps_availqty", DataType::Int),
    ("ps_supplycost", DataType::Num),
    ("ps_comment", DataType::Str),
];

const CUSTOMER: &[(&str, DataType)] = &[
    ("c_custkey", DataType::Int),
    ("c_name", DataType::Str),
    ("c_address", DataType::Str),
    ("c_nationkey", DataType::Int),
    ("c_phone", DataType::Str),
    ("c_acctbal", DataType::Num),
    ("c_mktsegment", DataType::Str),
    ("c_comment", DataType::Str),
];

const ORDERS: &[(&str, DataType)] = &[
    ("o_orderkey", DataType::Int),
    ("o_custkey", DataType::Int),
    ("o_orderstatus", DataType::Str),
    ("o_totalprice", DataType::Num),
    ("o_orderdate", DataType::Date),
    ("o_orderpriority", DataType::Str),
    ("o_clerk", DataType::Str),
    ("o_shippriority", DataType::Int),
    ("o_comment", DataType::Str),
];

const LINEITEM: &[(&str, DataType)] = &[
    ("l_orderkey", DataType::Int),
    ("l_partkey", DataType::Int),
    ("l_suppkey", DataType::Int),
    ("l_linenumber", DataType::Int),
    ("l_quantity", DataType::Num),
    ("l_extendedprice", DataType::Num),
    ("l_discount", DataType::Num),
    ("l_tax", DataType::Num),
    ("l_returnflag", DataType::Str),
    ("l_linestatus", DataType::Str),
    ("l_shipdate", DataType::Date),
    ("l_commitdate", DataType::Date),
    ("l_receiptdate", DataType::Date),
    ("l_shipinstruct", DataType::Str),
    ("l_shipmode", DataType::Str),
    ("l_comment", DataType::Str),
];

/// Alias relations: a second (or third) scan of a base table in the
/// same plan. `(alias name, prefix to substitute, base columns, base
/// prefix)`.
pub(crate) const ALIASES: &[(&str, &str, &str)] = &[
    // (alias table, alias prefix, base table)
    ("nation2", "n2_", "nation"),
    ("nation3", "n3_", "nation"),
    ("region2", "r2_", "region"),
    ("supplier2", "s2_", "supplier"),
    ("partsupp2", "ps2_", "partsupp"),
    ("lineitem2", "l2_", "lineitem"),
    ("lineitem3", "l3_", "lineitem"),
    ("customer2", "c2_", "customer"),
];

fn base_columns(table: &str) -> &'static [(&'static str, DataType)] {
    match table {
        "region" => REGION,
        "nation" => NATION,
        "supplier" => SUPPLIER,
        "part" => PART,
        "partsupp" => PARTSUPP,
        "customer" => CUSTOMER,
        "orders" => ORDERS,
        "lineitem" => LINEITEM,
        other => panic!("unknown TPC-H table {other}"),
    }
}

fn base_prefix(table: &str) -> &'static str {
    match table {
        "region" => "r_",
        "nation" => "n_",
        "supplier" => "s_",
        "part" => "p_",
        "partsupp" => "ps_",
        "customer" => "c_",
        "orders" => "o_",
        "lineitem" => "l_",
        other => panic!("unknown TPC-H table {other}"),
    }
}

/// Build the TPC-H catalog: the 8 base relations plus the alias
/// relations listed in `ALIASES`.
pub fn tpch_catalog() -> Catalog {
    try_catalog().expect("static TPC-H schema is valid")
}

fn try_catalog() -> Result<Catalog> {
    let mut c = Catalog::new();
    for table in [
        "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
    ] {
        c.add_relation(table, base_columns(table))?;
    }
    for (alias, prefix, base) in ALIASES {
        let cols: Vec<(String, DataType)> = base_columns(base)
            .iter()
            .map(|(name, ty)| {
                let stripped = name
                    .strip_prefix(base_prefix(base))
                    .expect("TPC-H column prefix");
                (format!("{prefix}{stripped}"), *ty)
            })
            .collect();
        let refs: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        c.add_relation(alias, &refs)?;
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_relations() {
        let c = tpch_catalog();
        assert_eq!(c.relations().len(), 8 + ALIASES.len());
        // The canonical 61 columns across the 8 base tables.
        let base_cols: usize = [
            "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
        ]
        .iter()
        .map(|t| c.relation(t).unwrap().columns.len())
        .sum();
        assert_eq!(base_cols, 61);
    }

    #[test]
    fn alias_columns_mirror_base() {
        let c = tpch_catalog();
        let l = c.relation("lineitem").unwrap();
        let l2 = c.relation("lineitem2").unwrap();
        assert_eq!(l.columns.len(), l2.columns.len());
        for (a, b) in l.columns.iter().zip(&l2.columns) {
            assert_eq!(a.ty, b.ty);
            assert!(b.name.starts_with("l2_"), "{}", b.name);
        }
    }

    #[test]
    fn key_attributes_resolve() {
        let c = tpch_catalog();
        for name in [
            "l_orderkey",
            "o_orderkey",
            "ps_partkey",
            "n2_name",
            "l3_suppkey",
            "c2_acctbal",
        ] {
            assert!(c.attr(name).is_ok(), "{name}");
        }
    }
}
