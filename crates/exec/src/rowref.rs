//! Serial row-at-a-time reference engine (differential oracle).
//!
//! [`execute_ref`] evaluates a plan the simplest defensible way: every
//! operator materializes `Vec<Vec<Value>>` rows, joins are nested loops
//! (a product is one without conditions), expressions are walked one
//! materialized row at a time ([`eval`] / [`eval_pred`] over a
//! [`RowCtx`]), and nothing is batched. It exists
//! so the streaming columnar engine in [`crate::engine`] has an
//! independent implementation to be diffed against — the
//! `parallel_differential`, `hash_differential` and `expr_differential`
//! tests assert that rows, first errors *and ciphertext bytes* agree
//! across random plans and batch sizes — and it is the
//! plaintext ground truth `mpq-fuzz` holds both distributed runtimes
//! to.
//!
//! The row walk is the oracle's own: the engine evaluates a column at a
//! time only ([`crate::eval::eval_mask`] / [`crate::eval::eval_column`],
//! a join's residual included). Both traversals apply the same cell
//! rules of [`crate::eval`], so what the differentials compare is the
//! traversal — which rows each sub-expression sees, which error comes
//! first.
//!
//! To make ciphertexts comparable the two engines deliberately share
//! the per-cell RNG discipline (`mix_seed(seed, node, column, row)`
//! via `engine::mix_seed`), the crypto-bearing crate-private kernel
//! `engine::AggAcc` and the join's form refusal (`engine::one_form`);
//! everything *around* them — operator scheduling, batching, hashing
//! (`GroupKey`s in a `HashMap` here, a key table over columns there) —
//! is implemented independently, which is exactly
//! the surface the differential tests exercise.

use crate::engine::{form_of, mix_seed, one_form, udf_layout, AggAcc, ExecCtx, ExecError};
use crate::eval::{
    arith, between, cmp_values, extract_cell, in_list_cell, like_cell, substring_cell, truth_of,
    truth_to_value, EvalError,
};
use crate::table::Table;
use mpq_algebra::value::{CellRef, GroupKey};
use mpq_algebra::{AttrId, CmpOp, Expr, JoinKind, NodeId, Operator, QueryPlan, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// A materialized intermediate in the reference engine: attribute ids
/// plus value rows.
struct Rel {
    attrs: Vec<AttrId>,
    rows: Vec<Vec<Value>>,
}

/// Execute `plan` serially, row at a time. Results (including every
/// ciphertext byte) must equal [`crate::engine::execute`] on the same
/// context whenever both succeed; when either fails, both must fail
/// (the error variants may surface in a different order).
pub fn execute_ref(plan: &QueryPlan, ctx: &ExecCtx<'_>) -> Result<Table, ExecError> {
    let rel = eval_node(plan, plan.root(), ctx)?;
    Ok(Table::from_rows(rel.attrs, rel.rows))
}

fn eval_node(plan: &QueryPlan, id: NodeId, ctx: &ExecCtx<'_>) -> Result<Rel, ExecError> {
    let node = plan.node(id);
    match &node.op {
        Operator::Base { rel, attrs } => {
            let table = ctx
                .db
                .table(*rel)
                .ok_or_else(|| ExecError::MissingTable(ctx.catalog.rel(*rel).name.clone()))?;
            let idx: Vec<usize> = attrs
                .iter()
                .map(|a| {
                    table
                        .col_index(*a)
                        .ok_or_else(|| ExecError::Unsupported(format!("column {a} missing")))
                })
                .collect::<Result<_, _>>()?;
            let rows = (0..table.len())
                .map(|r| idx.iter().map(|&i| table.value(i, r)).collect())
                .collect();
            Ok(Rel {
                attrs: attrs.clone(),
                rows,
            })
        }
        Operator::Project { attrs } => {
            let child = eval_node(plan, node.children[0], ctx)?;
            let idx: Vec<usize> = attrs
                .iter()
                .map(|a| {
                    child
                        .attrs
                        .iter()
                        .position(|c| c == a)
                        .ok_or_else(|| ExecError::Unsupported(format!("column {a} missing")))
                })
                .collect::<Result<_, _>>()?;
            let rows = child
                .rows
                .iter()
                .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
                .collect();
            Ok(Rel {
                attrs: attrs.clone(),
                rows,
            })
        }
        Operator::Select { pred } | Operator::Having { pred } => {
            let mut child = eval_node(plan, node.children[0], ctx)?;
            // A HAVING is a selection that also reads the aggregate
            // outputs of the γ it stands on.
            let agg_base = match (&node.op, plan.agg_scope(id)) {
                (Operator::Select { .. }, _) => None,
                (_, Some(scope)) => Some(scope.base()),
                (_, None) => {
                    return Err(ExecError::Unsupported(
                        "HAVING over a non-GroupBy child".into(),
                    ))
                }
            };
            let attrs = child.attrs.clone();
            let mut rows = Vec::new();
            for row in child.rows.drain(..) {
                let rc = RowCtx::plain(&attrs, &row).with_agg_base(agg_base);
                if eval_pred(pred, &rc)? == Some(true) {
                    rows.push(row);
                }
            }
            Ok(Rel { attrs, rows })
        }
        Operator::Product | Operator::Join { .. } => {
            let left = eval_node(plan, node.children[0], ctx)?;
            let right = eval_node(plan, node.children[1], ctx)?;
            // A product is a join without conditions.
            let (kind, on, residual) = match &node.op {
                Operator::Join { kind, on, residual } => (*kind, &on[..], residual.as_ref()),
                _ => (JoinKind::Inner, &[][..], None),
            };
            nl_join(kind, on, residual, left, right)
        }
        Operator::GroupBy { keys, aggs } => {
            let child = eval_node(plan, node.children[0], ctx)?;
            let key_idx: Vec<usize> = keys
                .iter()
                .map(|k| {
                    child
                        .attrs
                        .iter()
                        .position(|c| c == k)
                        .ok_or_else(|| ExecError::Unsupported(format!("group key {k} missing")))
                })
                .collect::<Result<_, _>>()?;
            // The groups in first-seen order, found again through
            // `index`. A key that equals nothing, itself included (a NaN,
            // a ciphertext certifying no equality), is found by no later
            // row: every such row is a group of its own.
            let mut groups: Vec<(Vec<GroupKey>, Vec<AggAcc>)> = Vec::new();
            let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
            for row in &child.rows {
                let gk: Vec<GroupKey> = key_idx.iter().map(|&i| GroupKey(row[i].clone())).collect();
                let rc = RowCtx::plain(&child.attrs, row);
                let g = match index.get(&gk) {
                    Some(&g) => g,
                    None => {
                        let accs = aggs
                            .iter()
                            .map(|ag| {
                                let v = eval(&ag.input, &rc)?;
                                Ok(AggAcc::new(ag.func, matches!(v, Value::Enc(_))))
                            })
                            .collect::<Result<Vec<_>, ExecError>>()?;
                        index.insert(gk.clone(), groups.len());
                        groups.push((gk, accs));
                        groups.len() - 1
                    }
                };
                for (ag, acc) in aggs.iter().zip(groups[g].1.iter_mut()) {
                    acc.update((&eval(&ag.input, &rc)?).into(), ctx.keys)?;
                }
            }
            if keys.is_empty() && child.rows.is_empty() {
                let defaults = aggs.iter().map(|ag| AggAcc::new(ag.func, false));
                groups.push((Vec::new(), defaults.collect()));
            }
            let mut attrs = keys.to_vec();
            attrs.extend(aggs.iter().map(|a| a.output));
            let mut rows = Vec::with_capacity(groups.len());
            for (gk, accs) in groups {
                let mut row: Vec<Value> = gk.into_iter().map(|k| k.0).collect();
                for (ag, acc) in aggs.iter().zip(accs) {
                    row.push(acc.finish(ag.func)?);
                }
                rows.push(row);
            }
            Ok(Rel { attrs, rows })
        }
        Operator::Udf {
            inputs: udf_inputs,
            output,
            body,
            ..
        } => {
            let child = eval_node(plan, node.children[0], ctx)?;
            let body = body
                .as_ref()
                .ok_or_else(|| ExecError::Unsupported("opaque udf cannot be executed".into()))?;
            let (out_idx, drop_idx, kept) = udf_layout(udf_inputs, *output, &child.attrs)?;
            let mut rows = Vec::with_capacity(child.rows.len());
            for mut row in child.rows {
                row[out_idx] = eval(body, &RowCtx::plain(&child.attrs, &row))?;
                let row = row
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| !drop_idx.contains(i))
                    .map(|(_, v)| v)
                    .collect();
                rows.push(row);
            }
            Ok(Rel { attrs: kept, rows })
        }
        Operator::Encrypt { attrs } | Operator::Decrypt { attrs } => {
            let child = eval_node(plan, node.children[0], ctx)?;
            let encrypt = matches!(node.op, Operator::Encrypt { .. });
            apply_crypto(child, attrs, id, encrypt, ctx)
        }
        Operator::Sort { keys } => {
            let child = eval_node(plan, node.children[0], ctx)?;
            let agg_base = plan.agg_scope(id).map(|scope| scope.base());
            let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(child.rows.len());
            for row in child.rows {
                let rc = RowCtx::plain(&child.attrs, &row).with_agg_base(agg_base);
                let kvals = keys
                    .iter()
                    .map(|(e, _)| eval(e, &rc))
                    .collect::<Result<Vec<_>, _>>()?;
                keyed.push((kvals, row));
            }
            keyed.sort_by(|(ka, _), (kb, _)| {
                for ((va, vb), (_, asc)) in ka.iter().zip(kb).zip(keys) {
                    let ord = CellRef::from(va).sort_cmp(vb.into());
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(Rel {
                attrs: child.attrs,
                rows: keyed.into_iter().map(|(_, r)| r).collect(),
            })
        }
        Operator::Limit { n } => {
            let mut child = eval_node(plan, node.children[0], ctx)?;
            child.rows.truncate(*n as usize);
            Ok(child)
        }
    }
}

// ---------------------------------------------------------------------------
// The row walk
// ---------------------------------------------------------------------------

/// Evaluation context of the row walk: one materialized row, its
/// column layout, and (above a group-by) the base index of aggregate
/// outputs.
pub struct RowCtx<'a> {
    /// Column attribute per position.
    pub attrs: &'a [AttrId],
    row: &'a [Value],
    /// Index of the first aggregate output column (group-by results:
    /// keys first, aggregates after), if applicable.
    pub agg_base: Option<usize>,
}

impl<'a> RowCtx<'a> {
    /// Context over a materialized row, without aggregate outputs.
    pub fn plain(attrs: &'a [AttrId], row: &'a [Value]) -> RowCtx<'a> {
        RowCtx {
            attrs,
            row,
            agg_base: None,
        }
    }

    /// Same context with the aggregate output base set.
    pub fn with_agg_base(mut self, agg_base: Option<usize>) -> RowCtx<'a> {
        self.agg_base = agg_base;
        self
    }

    fn col(&self, a: AttrId) -> Result<&'a Value, EvalError> {
        let pos = self.attrs.iter().position(|c| *c == a);
        pos.and_then(|i| self.row.get(i))
            .ok_or(EvalError::UnknownColumn(a))
    }
}

/// Evaluate an expression to a value on one row.
pub fn eval(e: &Expr, ctx: &RowCtx<'_>) -> Result<Value, EvalError> {
    match e {
        Expr::Col(a) => ctx.col(*a).cloned(),
        Expr::AggRef(i) => {
            let cell = ctx.agg_base.and_then(|base| ctx.row.get(base + i));
            cell.cloned().ok_or(EvalError::AggRefOutsideGroup(*i))
        }
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Cmp(a, op, b) => {
            let va = eval(a, ctx)?;
            let vb = eval(b, ctx)?;
            Ok(truth_to_value(cmp_values(&va, *op, &vb)?))
        }
        Expr::And(parts) => {
            let mut any_unknown = false;
            for p in parts {
                match eval_pred(p, ctx)? {
                    Some(false) => return Ok(Value::Bool(false)),
                    None => any_unknown = true,
                    Some(true) => {}
                }
            }
            Ok(if any_unknown {
                Value::Null
            } else {
                Value::Bool(true)
            })
        }
        Expr::Or(parts) => {
            let mut any_unknown = false;
            for p in parts {
                match eval_pred(p, ctx)? {
                    Some(true) => return Ok(Value::Bool(true)),
                    None => any_unknown = true,
                    Some(false) => {}
                }
            }
            Ok(if any_unknown {
                Value::Null
            } else {
                Value::Bool(false)
            })
        }
        Expr::Not(x) => Ok(truth_to_value(eval_pred(x, ctx)?.map(|b| !b))),
        Expr::Arith(a, op, b) => {
            let va = eval(a, ctx)?;
            let vb = eval(b, ctx)?;
            arith(&va, *op, &vb)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let pattern: Vec<char> = pattern.chars().collect();
            like_cell((&eval(expr, ctx)?).into(), &pattern, *negated).map(truth_to_value)
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let vlo = eval(lo, ctx)?;
            let vhi = eval(hi, ctx)?;
            let ge = cmp_values(&v, CmpOp::Ge, &vlo)?;
            let le = cmp_values(&v, CmpOp::Le, &vhi)?;
            Ok(truth_to_value(between(ge, le, *negated)))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => in_list_cell((&eval(expr, ctx)?).into(), list, *negated).map(truth_to_value),
        Expr::Case { branches, else_ } => {
            for (cond, out) in branches {
                if eval_pred(cond, ctx)? == Some(true) {
                    return eval(out, ctx);
                }
            }
            match else_ {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Extract { field, expr } => extract_cell(*field, &eval(expr, ctx)?),
        Expr::Substring { expr, start, len } => substring_cell(&eval(expr, ctx)?, *start, *len),
    }
}

/// Evaluate as a predicate on one row: `Some(bool)` or `None` for
/// unknown.
pub fn eval_pred(e: &Expr, ctx: &RowCtx<'_>) -> Result<Option<bool>, EvalError> {
    truth_of(&eval(e, ctx)?)
}

/// Encrypt/decrypt `attrs` in place, row at a time. One RNG per
/// (attribute, row), consumed across that attribute's columns in
/// column-index order — the discipline both engines share.
fn apply_crypto(
    mut child: Rel,
    attrs: &[AttrId],
    id: NodeId,
    encrypt: bool,
    ctx: &ExecCtx<'_>,
) -> Result<Rel, ExecError> {
    for attr in attrs {
        let key_id = *ctx
            .key_of_attr
            .get(attr)
            .ok_or(ExecError::NoKeyForAttr(*attr))?;
        let key = ctx.keys.get(key_id).ok_or(ExecError::MissingKey {
            attr: *attr,
            key_id,
        })?;
        let scheme = ctx.schemes.scheme_of(*attr);
        let cipher = mpq_crypto::schemes::ColumnCipher::new(scheme, &key);
        let col_idxs: Vec<usize> = child
            .attrs
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == *attr)
            .map(|(i, _)| i)
            .collect();
        let attr_seed = mix_seed(mix_seed(ctx.seed, id.index() as u64), attr.0 as u64);
        for (r, row) in child.rows.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(mix_seed(attr_seed, r as u64));
            for &i in &col_idxs {
                row[i] = if encrypt {
                    cipher
                        .encrypt(&mut rng, &row[i])
                        .map_err(|e| ExecError::Crypto(e.to_string()))?
                } else {
                    cipher
                        .decrypt(&row[i])
                        .map_err(|e| ExecError::Crypto(e.to_string()))?
                };
            }
        }
    }
    Ok(child)
}

/// Nested-loop join: no hashing, no chunking — just left order × right
/// order with every condition checked by [`cmp_values`] (NULL operands
/// compare to unknown, so NULL keys never match).
fn nl_join(
    kind: JoinKind,
    on: &[(AttrId, CmpOp, AttrId)],
    residual: Option<&Expr>,
    left: Rel,
    right: Rel,
) -> Result<Rel, ExecError> {
    struct Cond {
        lc: usize,
        op: CmpOp,
        rc: usize,
    }
    let mut conds = Vec::with_capacity(on.len());
    for (l, op, r) in on {
        let lc = left
            .attrs
            .iter()
            .position(|c| c == l)
            .ok_or_else(|| ExecError::Unsupported(format!("join key {l} missing")))?;
        let rc = right
            .attrs
            .iter()
            .position(|c| c == r)
            .ok_or_else(|| ExecError::Unsupported(format!("join key {r} missing")))?;
        let form = |rows: &[Vec<Value>], c: usize| form_of(rows.iter().map(|row| (&row[c]).into()));
        one_form(*l, form(&left.rows, lc), form(&right.rows, rc))?;
        conds.push(Cond { lc, op: *op, rc });
    }

    let mut out_attrs = left.attrs.clone();
    if kind.keeps_right() {
        out_attrs.extend(right.attrs.iter().copied());
    }
    let combined_attrs: Vec<AttrId> = left
        .attrs
        .iter()
        .chain(right.attrs.iter())
        .copied()
        .collect();
    let right_width = right.attrs.len();

    let mut rows = Vec::new();
    for l in &left.rows {
        let mut matched = false;
        for r in &right.rows {
            let mut ok = true;
            for c in &conds {
                if cmp_values(&l[c.lc], c.op, &r[c.rc])? != Some(true) {
                    ok = false;
                    break;
                }
            }
            if ok {
                if let Some(resid) = residual {
                    let mut combined = l.clone();
                    combined.extend(r.iter().cloned());
                    ok =
                        eval_pred(resid, &RowCtx::plain(&combined_attrs, &combined))? == Some(true);
                }
            }
            if !ok {
                continue;
            }
            matched = true;
            match kind {
                JoinKind::Inner | JoinKind::LeftOuter => {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    rows.push(row);
                }
                JoinKind::Semi => {
                    rows.push(l.clone());
                    break;
                }
                JoinKind::Anti => break,
            }
        }
        match kind {
            JoinKind::LeftOuter if !matched => {
                let mut row = l.clone();
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                rows.push(row);
            }
            JoinKind::Anti if !matched => rows.push(l.clone()),
            _ => {}
        }
    }
    Ok(Rel {
        attrs: out_attrs,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemePlan;
    use crate::table::Database;
    use mpq_algebra::builder::plan_sql;
    use mpq_algebra::Catalog;
    use mpq_crypto::keyring::KeyRing;

    /// The oracle agrees with the streaming engine on the running
    /// example (the differential proptests widen this to random plans).
    #[test]
    fn oracle_matches_engine_on_running_example() {
        let cat = Catalog::paper_running_example();
        let mut db = Database::new();
        db.load(
            &cat,
            "Hosp",
            vec![
                vec![
                    Value::str("s1"),
                    Value::Date(mpq_algebra::Date::parse("1970-01-01").unwrap()),
                    Value::str("stroke"),
                    Value::str("t1"),
                ],
                vec![
                    Value::str("s2"),
                    Value::Date(mpq_algebra::Date::parse("1980-02-02").unwrap()),
                    Value::str("flu"),
                    Value::str("t2"),
                ],
            ],
        );
        db.load(
            &cat,
            "Ins",
            vec![
                vec![Value::str("s1"), Value::Num(120.0)],
                vec![Value::str("s2"), Value::Num(220.0)],
            ],
        );
        let keys = KeyRing::new();
        let schemes = SchemePlan::default();
        let koa = HashMap::new();
        let ctx = ExecCtx::new(&cat, &db, &keys, &schemes, &koa);
        let sql = "select T, avg(P) from Hosp join Ins on S=C group by T order by T";
        let plan = plan_sql(&cat, sql).unwrap();
        assert_eq!(
            execute_ref(&plan, &ctx).unwrap(),
            crate::engine::execute(&plan, &ctx).unwrap()
        );
    }
}
