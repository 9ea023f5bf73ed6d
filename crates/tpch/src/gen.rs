//! Deterministic dbgen-style data generator.
//!
//! Produces scale-factor-parameterized data with the distributions the
//! 22 queries rely on: date ranges (1992-01-01 … 1998-08-02), market
//! segments, order priorities, brands `Brand#MN`, the 150 part types
//! (`ECONOMY ANODIZED STEEL`, `PROMO BURNISHED COPPER`, …), containers
//! (`MED BOX`, …), ship modes, nation/region hierarchy, and the comment
//! patterns Q13/Q16/Q21 filter on. Cardinalities follow dbgen:
//! `supplier = 10k·SF`, `customer = 150k·SF`, `part = 200k·SF`,
//! `partsupp = 4·part`, `orders = 1.5M·SF`, `lineitem ≈ 4·orders`.
//!
//! Generation is deterministic for a given `(scale, seed)` so tests and
//! benchmarks are reproducible.

use crate::schema::{tpch_catalog, ALIASES};
use mpq_algebra::{Catalog, Date, Value};
use mpq_exec::{Database, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Value pools (subset of dbgen's, preserving the values queries test).
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// 25 nations with their region index (dbgen's mapping).
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const TYPE_SYLL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYLL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYLL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINER_SYLL1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
const CONTAINER_SYLL2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
const COLORS: [&str; 10] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "green",
    "blue",
];

/// Start of the order-date range.
fn start_date() -> Date {
    Date::from_ymd(1992, 1, 1)
}

/// End of the order-date range (dbgen: 1998-08-02 for orders).
fn end_order_date() -> Date {
    Date::from_ymd(1998, 8, 2)
}

fn money(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    ((rng.gen_range(lo..hi)) * 100.0).round() / 100.0
}

fn phone(rng: &mut StdRng, nationkey: i64) -> String {
    format!(
        "{}-{:03}-{:03}-{:04}",
        nationkey + 10,
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000)
    )
}

fn words(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| COLORS[rng.gen_range(0..COLORS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Table row counts at a scale factor.
fn row_counts(scale: f64) -> [(&'static str, usize); 8] {
    let sf = scale.max(0.0005);
    [
        ("region", 5),
        ("nation", 25),
        ("supplier", ((10_000.0 * sf) as usize).max(2)),
        ("part", ((200_000.0 * sf) as usize).max(4)),
        ("partsupp", ((800_000.0 * sf) as usize).max(8)),
        ("customer", ((150_000.0 * sf) as usize).max(3)),
        ("orders", ((1_500_000.0 * sf) as usize).max(10)),
        // lineitem count is derived (1–7 per order, avg ≈ 4).
        ("lineitem", 0),
    ]
}

/// Generate the full database (including alias tables, which share the
/// base tables' rows) at the given scale factor.
pub fn generate(scale: f64, seed: u64) -> (Catalog, Database) {
    let catalog = tpch_catalog();
    let mut db = Database::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let counts = row_counts(scale);
    let count_of = |name: &str| -> usize {
        counts
            .iter()
            .find(|(t, _)| *t == name)
            .map(|(_, n)| *n)
            .expect("known table")
    };

    let n_supp = count_of("supplier") as i64;
    let n_part = count_of("part") as i64;
    let n_cust = count_of("customer") as i64;
    let n_orders = count_of("orders") as i64;

    // region
    let region_rows: Vec<Vec<Value>> = REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            vec![
                Value::Int(i as i64),
                Value::str(name),
                Value::str("even deposits"),
            ]
        })
        .collect();
    db.load(&catalog, "region", region_rows);

    // nation
    let nation_rows: Vec<Vec<Value>> = NATIONS
        .iter()
        .enumerate()
        .map(|(i, (name, region))| {
            vec![
                Value::Int(i as i64),
                Value::str(name),
                Value::Int(*region),
                Value::str("carefully final packages"),
            ]
        })
        .collect();
    db.load(&catalog, "nation", nation_rows);

    // supplier
    let supplier_rows: Vec<Vec<Value>> = (1..=n_supp)
        .map(|k| {
            let nation = rng.gen_range(0..25) as i64;
            let complaints = rng.gen_bool(0.005);
            let comment = if complaints {
                "slyly Customer brave Complaints haggle".to_string()
            } else {
                format!("supplier comment {}", words(&mut rng, 2))
            };
            vec![
                Value::Int(k),
                Value::str(&format!("Supplier#{k:09}")),
                Value::str(&words(&mut rng, 2)),
                Value::Int(nation),
                Value::str(&phone(&mut rng, nation)),
                Value::Num(money(&mut rng, -999.99, 9999.99)),
                Value::str(&comment),
            ]
        })
        .collect();
    db.load(&catalog, "supplier", supplier_rows);

    // part
    let part_rows: Vec<Vec<Value>> = (1..=n_part)
        .map(|k| {
            let ty = format!(
                "{} {} {}",
                TYPE_SYLL1[rng.gen_range(0..6)],
                TYPE_SYLL2[rng.gen_range(0..5)],
                TYPE_SYLL3[rng.gen_range(0..5)]
            );
            let container = format!(
                "{} {}",
                CONTAINER_SYLL1[rng.gen_range(0..5)],
                CONTAINER_SYLL2[rng.gen_range(0..8)]
            );
            let brand = format!("Brand#{}{}", rng.gen_range(1..6), rng.gen_range(1..6));
            vec![
                Value::Int(k),
                Value::str(&words(&mut rng, 3)),
                Value::str(&format!("Manufacturer#{}", rng.gen_range(1..6))),
                Value::str(&brand),
                Value::str(&ty),
                Value::Int(rng.gen_range(1..51)),
                Value::str(&container),
                Value::Num(900.0 + (k % 1000) as f64 / 10.0),
                Value::str("final part"),
            ]
        })
        .collect();
    db.load(&catalog, "part", part_rows);

    // partsupp: 4 suppliers per part.
    let mut partsupp_rows: Vec<Vec<Value>> = Vec::with_capacity((n_part * 4) as usize);
    for p in 1..=n_part {
        for i in 0..4i64 {
            let s = (p + i * (n_supp / 4 + 1)) % n_supp + 1;
            partsupp_rows.push(vec![
                Value::Int(p),
                Value::Int(s),
                Value::Int(rng.gen_range(1..10_000)),
                Value::Num(money(&mut rng, 1.0, 1000.0)),
                Value::str("quick deposits"),
            ]);
        }
    }
    db.load(&catalog, "partsupp", partsupp_rows);

    // customer
    let customer_rows: Vec<Vec<Value>> = (1..=n_cust)
        .map(|k| {
            let nation = rng.gen_range(0..25) as i64;
            vec![
                Value::Int(k),
                Value::str(&format!("Customer#{k:09}")),
                Value::str(&words(&mut rng, 2)),
                Value::Int(nation),
                Value::str(&phone(&mut rng, nation)),
                Value::Num(money(&mut rng, -999.99, 9999.99)),
                Value::str(SEGMENTS[rng.gen_range(0..5)]),
                Value::str(&format!("customer note {}", words(&mut rng, 2))),
            ]
        })
        .collect();
    db.load(&catalog, "customer", customer_rows);

    // orders + lineitem. The constant-domain string cells (flags,
    // instructions, ship modes, comments) are interned once and
    // cloned per row — an `Arc` refcount bump instead of a fresh
    // allocation, which at SF 1 saves tens of millions of allocations
    // on the two big tables.
    let v_r = Value::str("R");
    let v_a = Value::str("A");
    let v_n = Value::str("N");
    let v_f = Value::str("F");
    let v_o = Value::str("O");
    let v_p = Value::str("P");
    let v_li_comment = Value::str("lineitem comment");
    let v_instructions: Vec<Value> = INSTRUCTIONS.iter().map(|s| Value::str(s)).collect();
    let v_shipmodes: Vec<Value> = SHIPMODES.iter().map(|s| Value::str(s)).collect();
    let v_priorities: Vec<Value> = PRIORITIES.iter().map(|s| Value::str(s)).collect();
    let v_special = Value::str("blithely special packages requests");
    let v_pending = Value::str("furiously pending accounts");
    let date_span = end_order_date().0 - start_date().0;
    let later = |d: Date, days: i32| {
        d.add_days(days.into())
            .expect("generator dates stay in range")
    };
    let attrs_of = |name: &str| -> Vec<mpq_algebra::AttrId> {
        let rel = catalog.relation(name).expect("known relation");
        rel.columns.iter().map(|c| c.attr).collect()
    };
    let mut orders_t = Table::new(attrs_of("orders"));
    let mut lineitem_t = Table::new(attrs_of("lineitem"));
    for k in 1..=n_orders {
        // dbgen uses sparse order keys; keep them dense for simplicity.
        let custkey = rng.gen_range(1..=n_cust);
        let odate = later(start_date(), rng.gen_range(0..=date_span));
        let n_lines = rng.gen_range(1..=7);
        let special = rng.gen_bool(0.01);
        let comment = if special { &v_special } else { &v_pending };
        let mut total = 0.0;
        let mut all_f = true;
        let mut any_f = false;
        let current = Date::from_ymd(1995, 6, 17); // dbgen's CURRENTDATE
        for line in 1..=n_lines {
            let partkey = rng.gen_range(1..=n_part);
            let suppidx = rng.gen_range(0..4i64);
            let suppkey = (partkey + suppidx * (n_supp / 4 + 1)) % n_supp + 1;
            let quantity = rng.gen_range(1..=50) as f64;
            let extended = quantity * (900.0 + (partkey % 1000) as f64 / 10.0);
            let extended = (extended * 100.0).round() / 100.0;
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = later(odate, rng.gen_range(1..=121));
            let commitdate = later(odate, rng.gen_range(30..=90));
            let receiptdate = later(shipdate, rng.gen_range(1..=30));
            let shipped = shipdate <= current;
            let returnflag = if shipped {
                if rng.gen_bool(0.5) {
                    &v_r
                } else {
                    &v_a
                }
            } else {
                &v_n
            };
            let finished = shipped;
            let linestatus = if finished { &v_f } else { &v_o };
            if finished {
                any_f = true;
            } else {
                all_f = false;
            }
            total += extended * (1.0 + tax) * (1.0 - discount);
            lineitem_t.push_row(vec![
                Value::Int(k),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(line),
                Value::Num(quantity),
                Value::Num(extended),
                Value::Num(discount),
                Value::Num(tax),
                returnflag.clone(),
                linestatus.clone(),
                Value::Date(shipdate),
                Value::Date(commitdate),
                Value::Date(receiptdate),
                v_instructions[rng.gen_range(0..4)].clone(),
                v_shipmodes[rng.gen_range(0..7)].clone(),
                v_li_comment.clone(),
            ]);
        }
        let status = if all_f {
            &v_f
        } else if any_f {
            &v_p
        } else {
            &v_o
        };
        orders_t.push_row(vec![
            Value::Int(k),
            Value::Int(custkey),
            status.clone(),
            Value::Num((total * 100.0).round() / 100.0),
            Value::Date(odate),
            v_priorities[rng.gen_range(0..5)].clone(),
            Value::str(&format!("Clerk#{:09}", rng.gen_range(1..1000))),
            Value::Int(0),
            comment.clone(),
        ]);
    }
    let rel_of = |name: &str| catalog.relation(name).expect("known relation").rel;
    db.insert(rel_of("orders"), orders_t);
    db.insert(rel_of("lineitem"), lineitem_t);

    // Alias tables carry the base tables' *columnar* data under the
    // alias relation's own attributes (a `Base` over the alias asks for
    // those): dense Int/Num columns memcpy and Val columns bump `Arc`
    // refcounts, so aliasing never re-materializes row-major copies (at
    // SF 1 the old per-alias row clones dominated generation time and
    // peak memory).
    for (alias, _, base) in ALIASES {
        let base = db.table(rel_of(base)).expect("alias base loaded");
        let table = Table::from_columns(attrs_of(alias).into(), base.columns().to_vec());
        db.insert(rel_of(alias), table);
    }

    (catalog, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_len(catalog: &Catalog, db: &Database, name: &str) -> usize {
        let rel = catalog.relation(name).expect("known relation").rel;
        db.table(rel).map(Table::len).unwrap_or(0)
    }

    #[test]
    fn deterministic_for_seed() {
        let (c1, d1) = generate(0.001, 42);
        let (_, d2) = generate(0.001, 42);
        let l = c1.relation("lineitem").unwrap().rel;
        let a = d1.table(l).unwrap();
        let b = d2.table(l).unwrap();
        assert_eq!(a.len(), b.len());
        assert!(a.value(5, 0).sql_eq(&b.value(5, 0)));
    }

    #[test]
    fn cardinalities_scale() {
        let (c, db) = generate(0.002, 1);
        assert_eq!(table_len(&c, &db, "region"), 5);
        assert_eq!(table_len(&c, &db, "nation"), 25);
        assert_eq!(table_len(&c, &db, "supplier"), 20);
        assert_eq!(table_len(&c, &db, "part"), 400);
        assert_eq!(table_len(&c, &db, "partsupp"), 1600);
        assert_eq!(table_len(&c, &db, "customer"), 300);
        assert_eq!(table_len(&c, &db, "orders"), 3000);
        let li = table_len(&c, &db, "lineitem");
        assert!((3000..=21_000).contains(&li), "{li}");
    }

    #[test]
    fn aliases_mirror_base_data() {
        let (c, db) = generate(0.001, 7);
        for (alias, _, base) in ALIASES {
            let alias_rel = c.relation(alias).unwrap();
            let aliased = db.table(alias_rel.rel).unwrap();
            let base = db.table(c.relation(base).unwrap().rel).unwrap();
            // Scannable under the alias's own attributes, not the base's…
            assert_eq!(aliased.attrs(), alias_rel.attrs(), "{alias}");
            // …and cell for cell the base relation.
            assert!(!base.is_empty(), "{alias}");
            assert_eq!(aliased.columns(), base.columns(), "{alias}");
        }
    }

    #[test]
    fn referential_integrity() {
        let (c, db) = generate(0.001, 3);
        let orders = db.table(c.relation("orders").unwrap().rel).unwrap();
        let n_cust = table_len(&c, &db, "customer") as i64;
        for row in &orders.to_rows() {
            let Value::Int(ck) = row[1] else {
                panic!("o_custkey not an integer")
            };
            assert!(ck >= 1 && ck <= n_cust, "dangling o_custkey {ck}");
        }
        let lineitem = db.table(c.relation("lineitem").unwrap().rel).unwrap();
        let n_orders = orders.len() as i64;
        let n_supp = table_len(&c, &db, "supplier") as i64;
        for row in &lineitem.to_rows() {
            let Value::Int(ok) = row[0] else {
                panic!("l_orderkey not an integer")
            };
            assert!(ok >= 1 && ok <= n_orders);
            let Value::Int(sk) = row[2] else {
                panic!("l_suppkey not an integer")
            };
            assert!(sk >= 1 && sk <= n_supp, "dangling l_suppkey {sk}");
        }
    }

    #[test]
    fn date_ranges_respected() {
        let (c, db) = generate(0.001, 5);
        let orders = db.table(c.relation("orders").unwrap().rel).unwrap();
        for row in &orders.to_rows() {
            if let Value::Date(d) = row[4] {
                assert!(d >= start_date() && d <= end_order_date());
            } else {
                panic!("o_orderdate not a date");
            }
        }
    }

    #[test]
    fn value_pools_present() {
        // The selective values queried by Q3/Q5/Q12/Q19 must occur.
        let (c, db) = generate(0.005, 11);
        let cust = db.table(c.relation("customer").unwrap().rel).unwrap();
        assert!(cust
            .to_rows()
            .iter()
            .any(|r| r[6].sql_eq(&Value::str("BUILDING"))));
        let li = db.table(c.relation("lineitem").unwrap().rel).unwrap();
        assert!(li
            .to_rows()
            .iter()
            .any(|r| r[14].sql_eq(&Value::str("MAIL"))));
        let part = db.table(c.relation("part").unwrap().rel).unwrap();
        assert!(part
            .to_rows()
            .iter()
            .any(|r| { matches!(&r[4], Value::Str(s) if s.ends_with("BRASS")) }));
    }
}
