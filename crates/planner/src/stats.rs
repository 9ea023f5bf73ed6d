//! Statistics collection over live data, and the estimation entry
//! point the cost model consumes.
//!
//! The paper's tool took its cardinalities from "the estimates of the
//! size of the processed data and the processing time … returned by
//! the PostgreSQL optimizer". The original reproduction substituted
//! hand-written analytic guesses; this module replaces those with
//! statistics *measured from the data itself*:
//!
//! * [`collect_stats`] samples every table of an [`mpq_exec::Database`]
//!   and derives, per column: row counts, estimated distinct counts
//!   (Haas–Stokes scale-up from the sample), min/max, NULL
//!   fractions, average stored widths, and equi-depth
//!   [`Histogram`]s on numeric/date columns;
//! * [`estimates_for`] is the estimation entry point `cost.rs` and
//!   `optimize.rs` call: selection/join/group-by propagation with
//!   histogram selectivities, with `Encrypt`/`Decrypt` nodes
//!   cardinality-transparent (encryption changes representation, never
//!   multiplicity — the invariant is asserted in debug builds through
//!   [`QueryPlan::through_crypto`]).
//!
//! `tests/stats_accuracy.rs` holds the estimates to executed row
//! counts, node by node.

use mpq_algebra::stats::{
    estimate_plan, ColumnStats, Estimate, Histogram, StatsCatalog, TableStats,
};
use mpq_algebra::value::{CellRef, DataType};
use mpq_algebra::{Catalog, QueryPlan};
use mpq_exec::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// How tables are sampled by [`collect_stats`].
#[derive(Clone, Copy, Debug)]
pub struct SampleConfig {
    /// Per-table row cap: tables at or below it are scanned in full,
    /// larger ones are Bernoulli-sampled down to roughly this many
    /// rows.
    max_sample_rows: usize,
    /// Target equi-depth bucket count for numeric/date histograms.
    buckets: usize,
    /// Sampling seed (collection is deterministic per seed).
    seed: u64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            max_sample_rows: 50_000,
            buckets: 32,
            seed: 0x5374_6174, // "Stat"
        }
    }
}

/// Collect statistics for every relation of `catalog` that has a table
/// loaded in `db`. Relations without data are left unregistered (the
/// estimator falls back to its type-based defaults for them).
///
/// # Example
///
/// Sample generated TPC-H data, as the Figure 9/10 pipeline does:
///
/// ```
/// use mpq_planner::stats::{collect_stats, SampleConfig};
/// use mpq_tpch::generate;
///
/// let (catalog, db) = generate(0.001, 42);
/// let stats = collect_stats(&catalog, &db, &SampleConfig::default());
/// let lineitem = catalog.relation("lineitem").unwrap().rel;
/// assert!(stats.table(lineitem).unwrap().rows > 0.0);
/// ```
pub fn collect_stats(catalog: &Catalog, db: &Database, cfg: &SampleConfig) -> StatsCatalog {
    let mut out = StatsCatalog::new();
    for rel in catalog.relations() {
        let Some(table) = db.table(rel.rel) else {
            continue;
        };
        let rows = table.len();
        let mut rng = StdRng::seed_from_u64(
            cfg.seed ^ (rel.rel.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // Bernoulli sample: every row kept with probability cap/rows.
        let keep_prob = if rows <= cfg.max_sample_rows {
            1.0
        } else {
            cfg.max_sample_rows as f64 / rows as f64
        };
        let sample_idx: Vec<usize> = (0..rows)
            .filter(|_| keep_prob >= 1.0 || rng.gen::<f64>() < keep_prob)
            .collect();
        let mut columns = HashMap::new();
        for (i, col) in rel.columns.iter().enumerate() {
            columns.insert(
                col.attr,
                column_stats(col.ty, rows, table.column(i), &sample_idx, cfg.buckets),
            );
        }
        out.set_table(
            rel.rel,
            TableStats {
                rows: rows as f64,
                columns,
            },
        );
    }
    out
}

/// Statistics for one sampled column, scanned directly from its
/// [`mpq_exec::ColumnVec`] at the sampled row indices, every cell read
/// where it lies (a string is counted as the `&str` in its column), so
/// a column's statistics do not depend on how it is held. A NaN has no
/// place in an order: like a NULL it counts towards `null_frac` and is
/// no histogram point, no bound and no distinct value.
fn column_stats(
    ty: DataType,
    table_rows: usize,
    col: &mpq_exec::ColumnVec,
    sample_idx: &[usize],
    buckets: usize,
) -> ColumnStats {
    let mut nulls = 0usize;
    let mut width_sum = 0usize;
    let mut numeric: Vec<f64> = Vec::new();
    let mut strings: HashMap<&str, usize> = HashMap::new();
    let mut non_null = 0usize;
    for &r in sample_idx {
        let cell = col.cell_ref(r);
        let point = match cell {
            CellRef::Int(i) => Some(i as f64),
            CellRef::Num(f) => Some(f),
            CellRef::Date(d) => Some(d.0 as f64),
            CellRef::Bool(b) => Some(b as u8 as f64),
            _ => None,
        };
        if matches!(cell, CellRef::Null) || point.is_some_and(f64::is_nan) {
            nulls += 1;
            continue;
        }
        non_null += 1;
        width_sum += cell.width();
        match (point, cell) {
            (Some(x), _) => numeric.push(x),
            (None, CellRef::Str(s)) => *strings.entry(s).or_insert(0) += 1,
            _ => {}
        }
    }
    let sampled = sample_idx.len().max(1);
    let mut s = ColumnStats::default_for(ty, table_rows as f64);
    s.null_frac = nulls as f64 / sampled as f64;
    if non_null > 0 {
        s.avg_width = width_sum as f64 / non_null as f64;
    }
    // Distinct count: the Haas–Stokes `Duj1` estimator (PostgreSQL's
    // ANALYZE uses the same): with `d` distinct values in an `r`-row
    // sample of an `N`-row table, of which `f1` appeared exactly once,
    // D = d / (1 − (1−r/N)·f1/r). A key-like column (f1 ≈ r)
    // extrapolates to ≈ N; a categorical one (f1 ≈ 0) stays at d.
    let (d, f1) = if !numeric.is_empty() {
        numeric.sort_by(f64::total_cmp);
        distinct_and_singletons_sorted(&numeric)
    } else {
        let d = strings.len();
        let f1 = strings.values().filter(|&&c| c == 1).count();
        (d, f1)
    };
    if d > 0 {
        let q = (sampled as f64 / table_rows as f64).min(1.0);
        let denom = 1.0 - (1.0 - q) * f1 as f64 / sampled as f64;
        let est = d as f64 / denom.max(1e-9);
        s.ndv = est.clamp(d as f64, table_rows as f64).max(1.0);
    }
    if !numeric.is_empty() {
        s.min = Some(numeric[0]);
        s.max = Some(numeric[numeric.len() - 1]);
        let mut h = Histogram::from_sorted(&numeric, buckets);
        if let Some(h) = &mut h {
            // Per-bucket distinct counts grow with the same jackknife
            // ratio as the column total.
            if d > 0 && s.ndv > d as f64 {
                h.scale_ndv(s.ndv / d as f64);
            }
        }
        s.histogram = h;
    }
    s
}

/// `(distinct values, values occurring exactly once)` of a sorted
/// slice.
fn distinct_and_singletons_sorted(vals: &[f64]) -> (usize, usize) {
    let (mut d, mut f1) = (0usize, 0usize);
    let mut i = 0;
    while i < vals.len() {
        let mut j = i + 1;
        while j < vals.len() && vals[j] == vals[i] {
            j += 1;
        }
        d += 1;
        if j - i == 1 {
            f1 += 1;
        }
        i = j;
    }
    (d, f1)
}

/// Row/NDV estimates for every node of `plan` — the entry point the
/// cost model and the assignment search use.
///
/// Propagation is [`mpq_algebra::stats::estimate_plan`]'s: histogram
/// selectivities where collected, System-R defaults elsewhere.
/// `Encrypt`/`Decrypt` are cardinality-transparent: encrypting an
/// attribute changes its representation (priced via ciphertext widths
/// in the `PriceBook`), never the row multiplicity.
pub fn estimates_for(plan: &QueryPlan, catalog: &Catalog, stats: &StatsCatalog) -> Vec<Estimate> {
    let est = estimate_plan(plan, catalog, stats);
    #[cfg(debug_assertions)]
    for id in plan.postorder() {
        if matches!(
            plan.node(id).op,
            mpq_algebra::Operator::Encrypt { .. } | mpq_algebra::Operator::Decrypt { .. }
        ) {
            let through = plan.through_crypto(id);
            debug_assert_eq!(
                est[id.index()].rows,
                est[through.index()].rows,
                "crypto nodes must be cardinality-transparent"
            );
        }
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::Value;
    use mpq_core::fixtures::RunningExample;
    use mpq_exec::{ColumnVec, Table};

    fn medical() -> (Catalog, Database) {
        let ex = RunningExample::new();
        let mut db = Database::new();
        db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
        db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
        (ex.catalog, db)
    }

    #[test]
    fn collect_counts_rows_and_ndv_exactly_on_full_scan() {
        let (cat, db) = medical();
        let stats = collect_stats(&cat, &db, &SampleConfig::default());
        let hosp = cat.relation("Hosp").unwrap().rel;
        let t = stats.table(hosp).unwrap();
        assert_eq!(t.rows as usize, db.table(hosp).unwrap().len());
        // SSN column: one distinct value per row.
        let s = cat.attr("S").unwrap();
        assert_eq!(t.columns[&s].ndv, t.rows);
    }

    #[test]
    fn collection_is_deterministic_per_seed() {
        let (cat, db) = medical();
        let a = collect_stats(&cat, &db, &SampleConfig::default());
        let b = collect_stats(&cat, &db, &SampleConfig::default());
        let hosp = cat.relation("Hosp").unwrap().rel;
        let p = cat.attr("T").unwrap();
        assert_eq!(
            a.table(hosp).unwrap().columns[&p].ndv,
            b.table(hosp).unwrap().columns[&p].ndv
        );
    }

    #[test]
    fn sampling_caps_rows_but_keeps_row_count() {
        let (cat, _) = medical();
        let mut db = Database::new();
        let rows: Vec<Vec<Value>> = (0..5000)
            .map(|i| vec![Value::str(&format!("p{i}")), Value::Num((i % 97) as f64)])
            .collect();
        db.load(&cat, "Ins", rows);
        let cfg = SampleConfig {
            max_sample_rows: 500,
            ..SampleConfig::default()
        };
        let stats = collect_stats(&cat, &db, &cfg);
        let ins = cat.relation("Ins").unwrap().rel;
        let t = stats.table(ins).unwrap();
        // Row count is the real population even when sampled.
        assert_eq!(t.rows, 5000.0);
        // The premium column has 97 distinct values; the sampled
        // estimate must land near that, not near the sample size.
        let p = cat.attr("P").unwrap();
        assert!(
            (t.columns[&p].ndv - 97.0).abs() < 20.0,
            "ndv {}",
            t.columns[&p].ndv
        );
        // The key-like customer column extrapolates towards the table.
        let c = cat.attr("C").unwrap();
        assert!(t.columns[&c].ndv > 3000.0, "ndv {}", t.columns[&c].ndv);
    }

    /// A NaN cell used to panic the sort. It now counts as a NULL: the
    /// column's statistics are those of the table without its row,
    /// except `null_frac` (and the table's `rows`).
    #[test]
    fn a_nan_cell_counts_as_a_null() {
        let (cat, _) = medical();
        let ins = cat.relation("Ins").unwrap().rel;
        let p = cat.attr("P").unwrap();
        let stats = |premiums: &[f64]| {
            let rows = premiums.iter().enumerate();
            let rows = rows.map(|(i, &p)| vec![Value::str(&format!("c{i}")), Value::Num(p)]);
            let mut db = Database::new();
            db.load(&cat, "Ins", rows.collect());
            let stats = collect_stats(&cat, &db, &SampleConfig::default());
            let t = stats.table(ins).unwrap();
            (t.rows, t.columns[&p].clone())
        };
        let (rows, with) = stats(&[120.0, f64::NAN, 80.0]);
        let (rows_without, without) = stats(&[120.0, 80.0]);
        assert_eq!((rows, rows_without), (3.0, 2.0));
        assert_eq!((with.null_frac, without.null_frac), (1.0 / 3.0, 0.0));
        assert_eq!(
            (with.ndv, with.min, with.max, with.avg_width),
            (without.ndv, without.min, without.max, without.avg_width)
        );
        assert_eq!(with.histogram, without.histogram);
    }

    /// Cells are read where they lie: a table held in typed columns and
    /// the same cells held as general `Val` columns sample alike.
    #[test]
    fn statistics_do_not_depend_on_how_a_column_is_held() {
        let (cat, db) = medical();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let typed = db.table(hosp).unwrap();
        assert!(typed
            .columns()
            .iter()
            .any(|c| matches!(c, ColumnVec::Str(_))));
        assert!(typed
            .columns()
            .iter()
            .any(|c| matches!(c, ColumnVec::Date(_))));
        let general = typed.columns().iter();
        let general = general.map(|c| ColumnVec::Val(c.clone().into_values()));
        let mut db_val = Database::new();
        db_val.insert(
            hosp,
            Table::from_columns(typed.schema().clone(), general.collect()),
        );
        let cfg = SampleConfig::default();
        let (a, b) = (
            collect_stats(&cat, &db, &cfg),
            collect_stats(&cat, &db_val, &cfg),
        );
        let (a, b) = (a.table(hosp).unwrap(), b.table(hosp).unwrap());
        for attr in typed.attrs() {
            assert_eq!(
                format!("{:?}", a.columns[attr]),
                format!("{:?}", b.columns[attr])
            );
        }
    }
}
