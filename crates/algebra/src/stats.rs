//! Cardinality and size estimation.
//!
//! The paper's tool took "the estimates of the size of the processed
//! data and the processing time … returned by the PostgreSQL
//! optimizer". This module is our stand-in: per-column statistics on
//! base tables (row counts, distinct values, value ranges, average
//! widths) and a System-R style selectivity model that annotates every
//! plan node with estimated output rows and per-attribute distinct
//! counts. `mpq-planner` turns these into bytes, seconds, and USD.

use crate::catalog::Catalog;
use crate::expr::{CmpOp, Expr};
use crate::ids::{AttrId, RelId};
use crate::plan::{JoinKind, Operator, QueryPlan};
use crate::value::{DataType, Value};
use std::collections::HashMap;

/// Default selectivities, PostgreSQL-flavored.
const DEFAULT_EQ_SEL: f64 = 0.005;
const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
const DEFAULT_BETWEEN_SEL: f64 = 0.11;
const DEFAULT_LIKE_SEL: f64 = 0.1;

/// An equi-depth histogram over a numeric (int/num/date) column.
///
/// Buckets hold near-equal row fractions; heavy values may widen a
/// bucket's share. Bucket `i` covers the closed interval
/// `[lo[i], hi[i]]`; intervals are disjoint and ascending.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Lower bound of each bucket (inclusive).
    lo: Vec<f64>,
    /// Upper bound of each bucket (inclusive).
    hi: Vec<f64>,
    /// Fraction of non-null rows in each bucket (sums to 1).
    frac: Vec<f64>,
    /// Distinct values in each bucket (≥ 1).
    ndv: Vec<f64>,
}

impl Histogram {
    /// Build from a **sorted** slice of sampled values with the target
    /// bucket count. Returns `None` on an empty sample.
    pub fn from_sorted(values: &[f64], buckets: usize) -> Option<Histogram> {
        if values.is_empty() {
            return None;
        }
        // Run-length encode so a heavy value never straddles buckets.
        let mut runs: Vec<(f64, usize)> = Vec::new();
        for &v in values {
            match runs.last_mut() {
                Some((rv, n)) if *rv == v => *n += 1,
                _ => runs.push((v, 1)),
            }
        }
        let n = values.len() as f64;
        let buckets = buckets.clamp(1, runs.len());
        let depth = values.len().div_ceil(buckets);
        let mut h = Histogram::default();
        let (mut count, mut ndv, mut lo) = (0usize, 0.0f64, runs[0].0);
        let mut hi = lo;
        let mut flush = |lo: f64, hi: f64, count: usize, ndv: f64| {
            h.lo.push(lo);
            h.hi.push(hi);
            h.frac.push(count as f64 / n);
            h.ndv.push(ndv);
        };
        for (i, &(v, c)) in runs.iter().enumerate() {
            // A value heavy enough to fill a bucket by itself gets a
            // singleton bucket, so its equality fraction is exact
            // rather than averaged into its neighbours.
            if c >= depth {
                if count > 0 {
                    flush(lo, hi, count, ndv);
                    count = 0;
                    ndv = 0.0;
                }
                flush(v, v, c, 1.0);
                continue;
            }
            if count == 0 {
                lo = v;
            }
            count += c;
            ndv += 1.0;
            hi = v;
            if count >= depth || i + 1 == runs.len() {
                flush(lo, hi, count, ndv);
                count = 0;
                ndv = 0.0;
            }
        }
        Some(h)
    }

    /// Number of buckets.
    fn buckets(&self) -> usize {
        self.lo.len()
    }

    /// Scale every per-bucket distinct count by `factor` (used when
    /// extrapolating sampled statistics to a larger population).
    /// Singleton buckets (`lo == hi`) hold exactly one distinct value
    /// by construction — a heavy value's equality fraction is exact
    /// and must not be diluted by the sample scale-up.
    pub fn scale_ndv(&mut self, factor: f64) {
        for i in 0..self.ndv.len() {
            if self.lo[i] == self.hi[i] {
                continue;
            }
            self.ndv[i] = (self.ndv[i] * factor).max(1.0);
        }
    }

    /// Fraction of rows equal to `x` (uniform within the bucket).
    fn eq_fraction(&self, x: f64) -> f64 {
        for i in 0..self.buckets() {
            if x >= self.lo[i] && x <= self.hi[i] {
                return self.frac[i] / self.ndv[i].max(1.0);
            }
        }
        0.0
    }

    /// Fraction of rows strictly below `x` (linear interpolation inside
    /// the containing bucket).
    fn lt_fraction(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.buckets() {
            if x > self.hi[i] {
                acc += self.frac[i];
            } else if x >= self.lo[i] {
                let span = self.hi[i] - self.lo[i];
                let part = if span > 0.0 {
                    (x - self.lo[i]) / span
                } else {
                    0.0
                };
                return acc + self.frac[i] * part;
            } else {
                break;
            }
        }
        acc
    }

    /// Fraction of rows at or below `x`.
    fn le_fraction(&self, x: f64) -> f64 {
        (self.lt_fraction(x) + self.eq_fraction(x)).min(1.0)
    }

    /// Fraction of rows in the closed interval `[a, b]`.
    fn between_fraction(&self, a: f64, b: f64) -> f64 {
        if b < a {
            return 0.0;
        }
        (self.le_fraction(b) - self.lt_fraction(a)).clamp(0.0, 1.0)
    }
}

/// Statistics for one column of a base table.
#[derive(Clone, Debug)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub ndv: f64,
    /// Minimum value, for range selectivity on numeric/date columns.
    pub min: Option<f64>,
    /// Maximum value.
    pub max: Option<f64>,
    /// Average stored width in bytes.
    pub avg_width: f64,
    /// Fraction of NULLs.
    pub null_frac: f64,
    /// Equi-depth histogram on the value distribution, when collected
    /// (`mpq_planner::stats::collect_stats` samples one per numeric
    /// column; analytic statistics leave it empty).
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Reasonable defaults for a column of the given type in a table of
    /// `rows` rows.
    pub fn default_for(ty: DataType, rows: f64) -> ColumnStats {
        let (ndv, width) = match ty {
            DataType::Int => (rows.max(1.0), 8.0),
            DataType::Num => ((rows / 2.0).max(1.0), 8.0),
            DataType::Str => ((rows / 10.0).max(1.0), 16.0),
            DataType::Date => (2500.0_f64.min(rows.max(1.0)), 4.0),
            DataType::Bool => (2.0, 1.0),
        };
        ColumnStats {
            ndv,
            min: None,
            max: None,
            avg_width: width,
            null_frac: 0.0,
            histogram: None,
        }
    }
}

/// Statistics for a base table.
#[derive(Clone, Debug)]
pub struct TableStats {
    /// Row count.
    pub rows: f64,
    /// Per-column statistics.
    pub columns: HashMap<AttrId, ColumnStats>,
}

/// Statistics for all base tables of a catalog.
#[derive(Clone, Debug, Default)]
pub struct StatsCatalog {
    tables: HashMap<RelId, TableStats>,
}

impl StatsCatalog {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table's statistics.
    pub fn set_table(&mut self, rel: RelId, stats: TableStats) {
        self.tables.insert(rel, stats);
    }

    /// Register default statistics for every relation of the catalog,
    /// assuming the given uniform row count.
    pub fn with_defaults(catalog: &Catalog, rows: f64) -> StatsCatalog {
        let mut sc = StatsCatalog::new();
        for rel in catalog.relations() {
            let columns = rel
                .columns
                .iter()
                .map(|c| (c.attr, ColumnStats::default_for(c.ty, rows)))
                .collect();
            sc.set_table(rel.rel, TableStats { rows, columns });
        }
        sc
    }

    /// Table statistics, if registered.
    pub fn table(&self, rel: RelId) -> Option<&TableStats> {
        self.tables.get(&rel)
    }

    /// Column statistics, if registered.
    pub fn column(&self, rel: RelId, attr: AttrId) -> Option<&ColumnStats> {
        self.tables.get(&rel).and_then(|t| t.columns.get(&attr))
    }

    /// Average width in bytes of an attribute (falls back to type-based
    /// defaults when no statistics are registered).
    pub fn attr_width(&self, catalog: &Catalog, attr: AttrId) -> f64 {
        let rel = catalog.attr_owner(attr);
        self.column(rel, attr)
            .map(|c| c.avg_width)
            .unwrap_or_else(|| match catalog.attr_type(attr) {
                DataType::Int | DataType::Num => 8.0,
                DataType::Str => 16.0,
                DataType::Date => 4.0,
                DataType::Bool => 1.0,
            })
    }
}

/// Estimated properties of one plan node's output.
#[derive(Clone, Debug)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated distinct counts per visible attribute.
    pub ndv: HashMap<AttrId, f64>,
}

impl Estimate {
    fn clamp(&mut self) {
        self.rows = self.rows.max(1.0);
        for v in self.ndv.values_mut() {
            *v = v.min(self.rows).max(1.0);
        }
    }
}

/// Annotate each reachable node of `plan` with row/NDV estimates.
/// The result is indexed by `NodeId::index()`; unreachable (detached)
/// nodes keep a default estimate.
pub fn estimate_plan(plan: &QueryPlan, catalog: &Catalog, stats: &StatsCatalog) -> Vec<Estimate> {
    let mut out: Vec<Estimate> = (0..plan.len())
        .map(|_| Estimate {
            rows: 1.0,
            ndv: HashMap::new(),
        })
        .collect();
    for id in plan.postorder() {
        let node = plan.node(id);
        let est = match &node.op {
            Operator::Base { rel, attrs } => {
                let t = stats.table(*rel);
                let rows = t.map(|t| t.rows).unwrap_or(1000.0);
                let ndv = attrs
                    .iter()
                    .map(|a| {
                        let n = t
                            .and_then(|t| t.columns.get(a))
                            .map(|c| c.ndv)
                            .unwrap_or(rows / 10.0);
                        (*a, n)
                    })
                    .collect();
                Estimate { rows, ndv }
            }
            Operator::Project { attrs } => {
                let child = &out[node.children[0].index()];
                let ndv = attrs
                    .iter()
                    .filter_map(|a| child.ndv.get(a).map(|n| (*a, *n)))
                    .collect();
                Estimate {
                    rows: child.rows,
                    ndv,
                }
            }
            Operator::Select { pred } => {
                let child = out[node.children[0].index()].clone();
                let sel = selectivity(pred, &child, catalog, stats);
                let mut est = scale(child, sel);
                refine_ndv(pred, &mut est, catalog, stats);
                est
            }
            Operator::Having { pred } => {
                let child = out[node.children[0].index()].clone();
                // HAVING predicates mostly reference aggregates; use the
                // range default per comparison.
                let sel = selectivity(pred, &child, catalog, stats);
                scale(child, sel)
            }
            Operator::Product => {
                let l = &out[node.children[0].index()];
                let r = &out[node.children[1].index()];
                let mut ndv = l.ndv.clone();
                ndv.extend(r.ndv.iter().map(|(k, v)| (*k, *v)));
                Estimate {
                    rows: l.rows * r.rows,
                    ndv,
                }
            }
            Operator::Join { kind, on, residual } => {
                let l = out[node.children[0].index()].clone();
                let r = out[node.children[1].index()].clone();
                let mut est = join_estimate(*kind, on, &l, &r);
                if let Some(resid) = residual {
                    let sel = selectivity(resid, &est, catalog, stats);
                    est = scale(est, sel);
                }
                est
            }
            Operator::GroupBy { keys, aggs } => {
                let child = &out[node.children[0].index()];
                let mut groups: f64 = 1.0;
                for k in keys {
                    groups *= child.ndv.get(k).copied().unwrap_or(10.0);
                }
                let rows = groups.min(child.rows).max(1.0);
                let mut ndv: HashMap<AttrId, f64> = keys
                    .iter()
                    .map(|k| (*k, child.ndv.get(k).copied().unwrap_or(rows).min(rows)))
                    .collect();
                for a in aggs {
                    ndv.insert(a.output, rows);
                }
                Estimate { rows, ndv }
            }
            Operator::Udf { inputs, output, .. } => {
                let child = &out[node.children[0].index()];
                let mut ndv = child.ndv.clone();
                for a in inputs {
                    if a != output {
                        ndv.remove(a);
                    }
                }
                ndv.insert(*output, child.rows);
                Estimate {
                    rows: child.rows,
                    ndv,
                }
            }
            Operator::Encrypt { .. } | Operator::Decrypt { .. } | Operator::Sort { .. } => {
                out[node.children[0].index()].clone()
            }
            Operator::Limit { n } => {
                let child = out[node.children[0].index()].clone();
                Estimate {
                    rows: child.rows.min(*n as f64),
                    ndv: child.ndv,
                }
            }
        };
        let mut est = est;
        est.clamp();
        out[id.index()] = est;
    }
    out
}

fn scale(mut est: Estimate, sel: f64) -> Estimate {
    let sel = sel.clamp(0.0, 1.0);
    est.rows *= sel;
    est
}

/// Tighten per-attribute distinct counts for columns a predicate
/// constrains directly. Walks top-level conjunctions only: an equality
/// pins the column to one value; a range keeps the covered fraction of
/// its distinct values; an IN keeps at most the list's length.
fn refine_ndv(pred: &Expr, est: &mut Estimate, catalog: &Catalog, stats: &StatsCatalog) {
    match pred {
        Expr::And(v) => {
            for e in v {
                refine_ndv(e, est, catalog, stats);
            }
        }
        Expr::Cmp(a, op, b) => {
            // Normalize to column-on-the-left: `lit < col` constrains
            // the column as `col > lit`.
            let (col, lit, op) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => (*c, v, *op),
                (Expr::Lit(v), Expr::Col(c)) => (*c, v, op.flipped()),
                _ => return,
            };
            if op.is_equality() {
                est.ndv.insert(col, 1.0);
            } else if op != CmpOp::Ne {
                let frac = cmp_col_lit_sel(col, op, lit, est, catalog, stats);
                if let Some(n) = est.ndv.get_mut(&col) {
                    *n = (*n * frac).max(1.0);
                }
            }
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated: false,
        } => {
            if let (Expr::Col(c), Expr::Lit(a), Expr::Lit(b)) =
                (expr.as_ref(), lo.as_ref(), hi.as_ref())
            {
                if let (Some(x), Some(y)) = (value_as_f64(a), value_as_f64(b)) {
                    let frac =
                        range_fraction(*c, x, y, catalog, stats).unwrap_or(DEFAULT_BETWEEN_SEL);
                    if let Some(n) = est.ndv.get_mut(c) {
                        *n = (*n * frac).max(1.0);
                    }
                }
            }
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            if let Expr::Col(c) = expr.as_ref() {
                if let Some(n) = est.ndv.get_mut(c) {
                    *n = n.min(list.len() as f64).max(1.0);
                }
            }
        }
        _ => {}
    }
}

/// Fraction of a column's rows inside `[lo, hi]`, from the histogram
/// when one is collected, else from min/max interpolation.
fn range_fraction(
    col: AttrId,
    lo: f64,
    hi: f64,
    catalog: &Catalog,
    stats: &StatsCatalog,
) -> Option<f64> {
    let rel = catalog.attr_owner(col);
    let cs = stats.column(rel, col)?;
    if let Some(h) = &cs.histogram {
        return Some(h.between_fraction(lo, hi));
    }
    let (mn, mx) = (cs.min?, cs.max?);
    if mx <= mn {
        return None;
    }
    let a = lo.max(mn);
    let b = hi.min(mx);
    Some(((b - a) / (mx - mn)).clamp(0.0, 1.0))
}

fn join_estimate(
    kind: JoinKind,
    on: &[(AttrId, CmpOp, AttrId)],
    l: &Estimate,
    r: &Estimate,
) -> Estimate {
    let mut sel = 1.0;
    for (a, op, b) in on {
        let nl = l.ndv.get(a).copied().unwrap_or(100.0);
        let nr = r.ndv.get(b).copied().unwrap_or(100.0);
        sel *= if op.is_equality() {
            1.0 / nl.max(nr).max(1.0)
        } else {
            DEFAULT_RANGE_SEL
        };
    }
    let inner_rows = (l.rows * r.rows * sel).max(1.0);
    let rows = match kind {
        JoinKind::Inner => inner_rows,
        JoinKind::LeftOuter => inner_rows.max(l.rows),
        JoinKind::Semi => {
            // Fraction of left rows with at least one match.
            let frac = (inner_rows / l.rows.max(1.0)).min(1.0);
            (l.rows * frac.max(0.1)).max(1.0)
        }
        JoinKind::Anti => {
            let frac = (inner_rows / l.rows.max(1.0)).min(1.0);
            (l.rows * (1.0 - frac).max(0.1)).max(1.0)
        }
    };
    let mut ndv = l.ndv.clone();
    if kind.keeps_right() {
        ndv.extend(r.ndv.iter().map(|(k, v)| (*k, *v)));
    }
    // An equi-join keeps only key values present on both sides: both
    // key columns end up with (at most) the smaller distinct count.
    if kind == JoinKind::Inner {
        for (a, op, b) in on {
            if op.is_equality() {
                let nl = l.ndv.get(a).copied().unwrap_or(100.0);
                let nr = r.ndv.get(b).copied().unwrap_or(100.0);
                let joint = nl.min(nr);
                ndv.insert(*a, joint);
                ndv.insert(*b, joint);
            }
        }
    }
    Estimate { rows, ndv }
}

/// Estimate the selectivity of a predicate against a node estimate.
fn selectivity(pred: &Expr, input: &Estimate, catalog: &Catalog, stats: &StatsCatalog) -> f64 {
    match pred {
        Expr::And(v) => v
            .iter()
            .map(|e| selectivity(e, input, catalog, stats))
            .product(),
        Expr::Or(v) => {
            let mut s = 0.0;
            for e in v {
                let se = selectivity(e, input, catalog, stats);
                s = s + se - s * se;
            }
            s
        }
        Expr::Not(e) => 1.0 - selectivity(e, input, catalog, stats),
        Expr::Cmp(a, op, b) => match (a.as_ref(), b.as_ref()) {
            // `lit op col` constrains the column under the flipped
            // operator (`100 > price` ⇔ `price < 100`).
            (Expr::Col(c), Expr::Lit(v)) => cmp_col_lit_sel(*c, *op, v, input, catalog, stats),
            (Expr::Lit(v), Expr::Col(c)) => {
                cmp_col_lit_sel(*c, op.flipped(), v, input, catalog, stats)
            }
            (Expr::Col(c1), Expr::Col(c2)) => {
                if op.is_equality() {
                    let n1 = input.ndv.get(c1).copied().unwrap_or(100.0);
                    let n2 = input.ndv.get(c2).copied().unwrap_or(100.0);
                    1.0 / n1.max(n2).max(1.0)
                } else {
                    DEFAULT_RANGE_SEL
                }
            }
            _ => {
                if op.is_equality() {
                    DEFAULT_EQ_SEL
                } else {
                    DEFAULT_RANGE_SEL
                }
            }
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            if let (Expr::Col(c), Expr::Lit(a), Expr::Lit(b)) =
                (expr.as_ref(), lo.as_ref(), hi.as_ref())
            {
                if let (Some(x), Some(y)) = (value_as_f64(a), value_as_f64(b)) {
                    if let Some(frac) = range_fraction(*c, x, y, catalog, stats) {
                        // NULLs satisfy neither BETWEEN nor NOT
                        // BETWEEN, matching the `>=`/`<=` spelling of
                        // the same predicate.
                        let nonnull = 1.0
                            - stats
                                .column(catalog.attr_owner(*c), *c)
                                .map(|cs| cs.null_frac)
                                .unwrap_or(0.0);
                        let inside = if *negated { 1.0 - frac } else { frac };
                        return (inside * nonnull).clamp(1e-4, 1.0);
                    }
                }
            }
            if *negated {
                1.0 - DEFAULT_BETWEEN_SEL
            } else {
                DEFAULT_BETWEEN_SEL
            }
        }
        Expr::Like { negated, .. } => {
            if *negated {
                1.0 - DEFAULT_LIKE_SEL
            } else {
                DEFAULT_LIKE_SEL
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let base = if let Expr::Col(c) = expr.as_ref() {
                let ndv = input.ndv.get(c).copied().unwrap_or(100.0);
                (list.len() as f64 / ndv.max(1.0)).min(1.0)
            } else {
                (list.len() as f64 * DEFAULT_EQ_SEL).min(1.0)
            };
            if *negated {
                1.0 - base
            } else {
                base
            }
        }
        Expr::IsNull { expr, negated } => {
            let frac = if let Expr::Col(c) = expr.as_ref() {
                let rel = catalog.attr_owner(*c);
                stats.column(rel, *c).map(|s| s.null_frac).unwrap_or(0.01)
            } else {
                0.01
            };
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        // Anything else used as a predicate: neutral default.
        _ => 0.5,
    }
}

fn cmp_col_lit_sel(
    col: AttrId,
    op: CmpOp,
    lit: &Value,
    input: &Estimate,
    catalog: &Catalog,
    stats: &StatsCatalog,
) -> f64 {
    let ndv = input.ndv.get(&col).copied().unwrap_or(100.0);
    let rel = catalog.attr_owner(col);
    let cs = stats.column(rel, col);
    let x = value_as_f64(lit);
    // Histogram path: the collected value distribution answers
    // equality and range predicates directly.
    if let (Some(cs), Some(x)) = (cs, x) {
        if let Some(h) = &cs.histogram {
            let nonnull = 1.0 - cs.null_frac;
            return match op {
                CmpOp::Eq => (h.eq_fraction(x) * nonnull).max(1e-6),
                CmpOp::Ne => ((1.0 - h.eq_fraction(x)) * nonnull).clamp(0.0, 1.0),
                CmpOp::Lt => (h.lt_fraction(x) * nonnull).clamp(1e-4, 1.0),
                CmpOp::Le => (h.le_fraction(x) * nonnull).clamp(1e-4, 1.0),
                CmpOp::Gt => ((1.0 - h.le_fraction(x)) * nonnull).clamp(1e-4, 1.0),
                CmpOp::Ge => ((1.0 - h.lt_fraction(x)) * nonnull).clamp(1e-4, 1.0),
            };
        }
    }
    if op.is_equality() {
        return (1.0 / ndv.max(1.0)).max(DEFAULT_EQ_SEL.min(1.0 / ndv.max(1.0)));
    }
    if op == CmpOp::Ne {
        return 1.0 - 1.0 / ndv.max(1.0);
    }
    // Range: interpolate against min/max when available.
    if let (Some(cs), Some(x)) = (cs, x) {
        if let (Some(lo), Some(hi)) = (cs.min, cs.max) {
            if hi > lo {
                let frac_below = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
                return match op {
                    CmpOp::Lt | CmpOp::Le => frac_below,
                    CmpOp::Gt | CmpOp::Ge => 1.0 - frac_below,
                    _ => DEFAULT_RANGE_SEL,
                }
                .clamp(0.001, 1.0);
            }
        }
    }
    DEFAULT_RANGE_SEL
}

fn value_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Num(f) => Some(*f),
        Value::Date(d) => Some(d.0 as f64),
        _ => None,
    }
}

/// Estimated plaintext row width (bytes) for a set of visible attributes.
pub fn row_width(catalog: &Catalog, stats: &StatsCatalog, attrs: &crate::AttrSet) -> f64 {
    attrs.iter().map(|a| stats.attr_width(catalog, a)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::plan_sql;
    use crate::catalog::Catalog;

    fn setup() -> (Catalog, StatsCatalog) {
        let cat = Catalog::paper_running_example();
        let mut stats = StatsCatalog::with_defaults(&cat, 10_000.0);
        // Refine: 500 distinct diseases, premium range 0..1000.
        let hosp = cat.relation("Hosp").unwrap().rel;
        let d = cat.attr("D").unwrap();
        if let Some(t) = stats.tables.get_mut(&hosp) {
            t.columns.get_mut(&d).unwrap().ndv = 500.0;
        }
        (cat, stats)
    }

    #[test]
    fn base_estimate_uses_table_rows() {
        let (cat, stats) = setup();
        let plan = plan_sql(&cat, "select S, D from Hosp").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        let base = plan.postorder()[0];
        assert_eq!(est[base.index()].rows, 10_000.0);
    }

    #[test]
    fn equality_selection_uses_ndv() {
        let (cat, stats) = setup();
        let plan = plan_sql(&cat, "select S from Hosp where D='stroke'").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        let root = plan.root();
        // 10000 rows / 500 distinct diseases = 20 rows.
        assert!(
            (est[root.index()].rows - 20.0).abs() < 1.0,
            "{}",
            est[root.index()].rows
        );
    }

    #[test]
    fn join_estimate_divides_by_max_ndv() {
        let (cat, stats) = setup();
        let plan = plan_sql(&cat, "select T, P from Hosp, Ins where S=C").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        let root = plan.root();
        // |Hosp|*|Ins| / max(ndv S, ndv C) = 1e8 / 1000 = 1e5.
        let rows = est[root.index()].rows;
        assert!(rows > 1e4 && rows < 1e6, "{rows}");
    }

    #[test]
    fn group_by_caps_at_key_ndv() {
        let (cat, stats) = setup();
        let plan = plan_sql(&cat, "select D, count(*) from Hosp group by D").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        let root = plan.root();
        assert!((est[root.index()].rows - 500.0).abs() < 1.0);
    }

    #[test]
    fn limit_caps_rows() {
        let (cat, stats) = setup();
        let plan = plan_sql(&cat, "select S from Hosp limit 7").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        assert_eq!(est[plan.root().index()].rows, 7.0);
    }

    #[test]
    fn or_selectivity_is_inclusion_exclusion() {
        let (cat, stats) = setup();
        let plan = plan_sql(&cat, "select S from Hosp where D='a' or D='b'").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        let rows = est[plan.root().index()].rows;
        // ~2 * 20 rows.
        assert!(rows > 30.0 && rows < 50.0, "{rows}");
    }

    #[test]
    fn histogram_equi_depth_on_uniform_data() {
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::from_sorted(&vals, 10).unwrap();
        assert_eq!(h.buckets(), 10);
        // lt(500) ≈ 0.5, between(250, 749) ≈ 0.5.
        assert!((h.lt_fraction(500.0) - 0.5).abs() < 0.02);
        assert!((h.between_fraction(250.0, 749.0) - 0.5).abs() < 0.02);
        // Equality on a 1000-distinct-value column ≈ 1/1000.
        assert!((h.eq_fraction(123.0) - 0.001).abs() < 0.0005);
        // Out of range.
        assert_eq!(h.eq_fraction(-5.0), 0.0);
        assert_eq!(h.lt_fraction(-5.0), 0.0);
        assert!((h.lt_fraction(5000.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_isolates_heavy_values() {
        // 90% of the mass on value 7, the rest uniform on 0..100.
        let mut vals: Vec<f64> = vec![7.0; 900];
        vals.extend((0..100).map(|i| i as f64));
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let h = Histogram::from_sorted(&vals, 20).unwrap();
        // The heavy value's equality fraction must reflect its mass,
        // not the 1/ndv average (which would be ~1/101).
        assert!(h.eq_fraction(7.0) > 0.5, "{}", h.eq_fraction(7.0));
        // A light value stays far below the heavy one.
        assert!(h.eq_fraction(93.0) < 0.05);
    }

    #[test]
    fn histogram_overrides_ndv_guess() {
        let (cat, mut stats) = setup();
        // Attach a skewed histogram to the premium column: 90% zeros.
        let ins = cat.relation("Ins").unwrap().rel;
        let p = cat.attr("P").unwrap();
        let mut vals = vec![0.0f64; 9000];
        vals.extend((0..1000).map(|i| i as f64 + 1.0));
        let t = stats.tables.get_mut(&ins).unwrap();
        let c = t.columns.get_mut(&p).unwrap();
        c.histogram = Histogram::from_sorted(&vals, 16);
        let plan = plan_sql(&cat, "select C from Ins where P=0").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        let rows = est[plan.root().index()].rows;
        assert!(rows > 7000.0, "heavy value should estimate high: {rows}");
        let plan = plan_sql(&cat, "select C from Ins where P>500").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        let rows = est[plan.root().index()].rows;
        assert!(rows < 1500.0, "tail range should estimate low: {rows}");
    }

    #[test]
    fn not_between_inverts_the_histogram_fraction() {
        let (cat, mut stats) = setup();
        let ins = cat.relation("Ins").unwrap().rel;
        let p = cat.attr("P").unwrap();
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let cs = stats
            .tables
            .get_mut(&ins)
            .unwrap()
            .columns
            .get_mut(&p)
            .unwrap();
        cs.histogram = Histogram::from_sorted(&vals, 16);
        let plan = plan_sql(&cat, "select C, P from Ins").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        let input = est[plan.root().index()].clone();
        let between = |negated: bool| Expr::Between {
            expr: Box::new(Expr::Col(p)),
            lo: Box::new(Expr::Lit(Value::Num(0.0))),
            hi: Box::new(Expr::Lit(Value::Num(899.0))),
            negated,
        };
        let inside = selectivity(&between(false), &input, &cat, &stats);
        let outside = selectivity(&between(true), &input, &cat, &stats);
        assert!(inside > 0.8, "inside {inside}");
        assert!(outside < 0.2, "NOT BETWEEN must invert: {outside}");
        assert!((inside + outside - 1.0).abs() < 0.01);
    }

    #[test]
    fn scale_ndv_preserves_singleton_heavy_buckets() {
        let mut vals: Vec<f64> = vec![7.0; 900];
        vals.extend((0..100).map(|i| 1000.0 + i as f64));
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut h = Histogram::from_sorted(&vals, 20).unwrap();
        let before = h.eq_fraction(7.0);
        h.scale_ndv(10.0);
        // The heavy value's bucket holds exactly one distinct value;
        // population scale-up must not dilute its equality fraction.
        assert_eq!(h.eq_fraction(7.0), before);
        // Multi-value buckets do scale.
        assert!(h.eq_fraction(1050.0) < 0.01);
    }

    #[test]
    fn literal_on_the_left_flips_the_operator() {
        let (cat, mut stats) = setup();
        let ins = cat.relation("Ins").unwrap().rel;
        let p = cat.attr("P").unwrap();
        // Give the premium column a real range so < and > differ.
        let cs = stats
            .tables
            .get_mut(&ins)
            .unwrap()
            .columns
            .get_mut(&p)
            .unwrap();
        cs.min = Some(0.0);
        cs.max = Some(1000.0);
        let plan = plan_sql(&cat, "select C, P from Ins").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        let input = est[plan.root().index()].clone();
        // `100 > P` must estimate like `P < 100`, not like `P > 100`.
        let lit_left = Expr::cmp(Expr::Lit(Value::Num(100.0)), CmpOp::Gt, Expr::Col(p));
        let col_left = Expr::cmp(Expr::Col(p), CmpOp::Lt, Expr::Lit(Value::Num(100.0)));
        let sel = selectivity(&lit_left, &input, &cat, &stats);
        assert_eq!(sel, selectivity(&col_left, &input, &cat, &stats));
        assert!(sel < 0.2, "P < 100 over 0..1000 should be selective: {sel}");
    }

    #[test]
    fn equality_selection_pins_ndv() {
        let (cat, stats) = setup();
        let plan = plan_sql(&cat, "select S, D from Hosp where D='stroke'").unwrap();
        let est = estimate_plan(&plan, &cat, &stats);
        let d = cat.attr("D").unwrap();
        // After D='stroke' the column has one distinct value, so a
        // group-by over it would estimate a single group.
        assert_eq!(est[plan.root().index()].ndv.get(&d).copied(), Some(1.0));
    }

    #[test]
    fn row_width_sums_attr_widths() {
        let (cat, stats) = setup();
        let s = cat.attr("S").unwrap();
        let p = cat.attr("P").unwrap();
        let set: crate::AttrSet = [s, p].into_iter().collect();
        let w = row_width(&cat, &stats, &set);
        assert_eq!(w, 16.0 + 8.0); // Str default 16 + Num 8
    }
}
