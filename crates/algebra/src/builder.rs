//! AST → plan construction with the paper's optimization assumptions.
//!
//! The paper assumes plans "produced with classical optimization
//! criteria and, in particular, … projections … pushed down to avoid
//! retrieving data that are not of interest for the query". The builder
//! therefore:
//!
//! 1. pushes projections into the leaves (each [`Operator::Base`]
//!    retrieves only the attributes the query touches);
//! 2. pushes single-relation selections directly above their leaf;
//! 3. builds a left-deep join tree in `FROM` order, turning
//!    cross-relation equality conjuncts into join conditions (falling
//!    back to a cartesian product when no condition links a table);
//! 4. materializes computed grouping expressions as µ (udf) nodes so
//!    that group keys are always attributes, matching the paper's
//!    operator signatures;
//! 5. lowers aggregates into a γ node and rewrites `HAVING` /
//!    `ORDER BY` references into positional [`Expr::AggRef`]s.

use crate::catalog::Catalog;
use crate::error::{AlgebraError, Result};
use crate::expr::{AggExpr, AggFunc, ArithOp, CmpOp, DateField, Expr};
use crate::ids::{AttrId, NodeId, RelId};
use crate::plan::{JoinKind, Operator, QueryPlan};
use crate::sql::{AstExpr, IntervalUnit, SelectStmt};
use crate::value::Value;
use crate::AttrSet;
use std::collections::HashMap;

/// Parse SQL and build a plan in one step.
pub fn plan_sql(catalog: &Catalog, sql: &str) -> Result<QueryPlan> {
    let stmt = crate::sql::parse_select(sql)?;
    build_plan(catalog, &stmt)
}

/// Build a [`QueryPlan`] from a parsed statement.
fn build_plan(catalog: &Catalog, stmt: &SelectStmt) -> Result<QueryPlan> {
    Builder::new(catalog, stmt)?.run()
}

struct Builder<'a> {
    catalog: &'a Catalog,
    stmt: &'a SelectStmt,
    /// Aggregates discovered in select/having/order-by, deduplicated.
    aggs: Vec<AggExpr>,
    /// Alias → select-item index.
    aliases: HashMap<String, usize>,
}

impl<'a> Builder<'a> {
    fn new(catalog: &'a Catalog, stmt: &'a SelectStmt) -> Result<Self> {
        let mut aliases = HashMap::new();
        for (i, item) in stmt.items.iter().enumerate() {
            if let Some(a) = &item.alias {
                aliases.insert(a.to_ascii_lowercase(), i);
            }
        }
        Ok(Builder {
            catalog,
            stmt,
            aggs: Vec::new(),
            aliases,
        })
    }

    fn run(mut self) -> Result<QueryPlan> {
        // ---- name resolution & per-relation attribute demand ----------
        let mut rels: Vec<RelId> = Vec::new();
        for t in &self.stmt.from {
            rels.push(self.catalog.relation(&t.name)?.rel);
        }
        let mut demand: AttrSet = AttrSet::new();
        let mut scratch = Vec::new();
        for item in &self.stmt.items {
            collect_cols(&item.expr, &mut scratch);
        }
        for t in &self.stmt.from {
            if let Some(on) = &t.join_on {
                collect_cols(on, &mut scratch);
            }
        }
        if let Some(w) = &self.stmt.where_ {
            collect_cols(w, &mut scratch);
        }
        if let Some(h) = &self.stmt.having {
            collect_cols(h, &mut scratch);
        }
        for (e, _) in &self.stmt.order_by {
            collect_cols(e, &mut scratch);
        }
        for g in &self.stmt.group_by {
            if !self.aliases.contains_key(g) {
                scratch.push(g.clone());
            }
        }
        for name in &scratch {
            // Select-item aliases (e.g. HAVING/ORDER BY referencing an
            // aggregate alias) are not base attributes; their underlying
            // columns are already collected from the select items.
            if self.aliases.contains_key(name) {
                continue;
            }
            demand.insert(self.catalog.attr(name)?);
        }

        // ---- leaves with pushed-down projections ----------------------
        let mut plan = QueryPlan::new();
        let mut subtrees: Vec<(NodeId, AttrSet)> = Vec::new();
        for &rel in &rels {
            let rd = self.catalog.rel(rel);
            let attrs: Vec<AttrId> = rd
                .columns
                .iter()
                .map(|c| c.attr)
                .filter(|a| demand.contains(*a))
                .collect();
            if attrs.is_empty() {
                return Err(AlgebraError::Semantic(format!(
                    "relation {} contributes no attributes to the query",
                    rd.name
                )));
            }
            let set: AttrSet = attrs.iter().copied().collect();
            let id = plan.add_base(rel, attrs);
            subtrees.push((id, set));
        }

        // ---- classify WHERE conjuncts ---------------------------------
        let mut local: Vec<(usize, Expr)> = Vec::new(); // (subtree idx, pred)
        let mut join_conds: Vec<(AttrId, CmpOp, AttrId)> = Vec::new();
        let mut residual: Vec<Expr> = Vec::new();
        if let Some(w) = &self.stmt.where_ {
            let pred = self.lower_scalar(w)?;
            for conj in flatten_and(pred) {
                self.place_conjunct(conj, &subtrees, &mut local, &mut join_conds, &mut residual);
            }
        }

        // Push single-relation selections onto their leaves.
        // Group conjuncts per subtree to emit one Select per leaf.
        let mut per_tree: Vec<Vec<Expr>> = vec![Vec::new(); subtrees.len()];
        for (i, e) in local {
            per_tree[i].push(e);
        }
        for (i, preds) in per_tree.into_iter().enumerate() {
            if !preds.is_empty() {
                let pred = preds
                    .into_iter()
                    .reduce(Expr::and)
                    .expect("non-empty preds");
                let (node, set) = subtrees[i].clone();
                let sel = plan.add(Operator::Select { pred }, vec![node]);
                subtrees[i] = (sel, set);
            }
        }

        // ---- left-deep join tree ---------------------------------------
        let (mut cur, mut cur_set) = subtrees[0].clone();
        for (i, t) in self.stmt.from.iter().enumerate().skip(1) {
            let (right, right_set) = subtrees[i].clone();
            let mut on: Vec<(AttrId, CmpOp, AttrId)> = Vec::new();
            let mut res: Vec<Expr> = Vec::new();
            if let Some(cond) = &t.join_on {
                let lowered = self.lower_scalar(cond)?;
                for conj in flatten_and(lowered) {
                    match split_join_cond(&conj, &cur_set, &right_set) {
                        Some(c) => on.push(c),
                        None => res.push(conj),
                    }
                }
            }
            // Pull applicable WHERE-derived join conditions.
            let mut rest = Vec::new();
            for c in join_conds.drain(..) {
                let (l, _, r) = c;
                if cur_set.contains(l) && right_set.contains(r) {
                    on.push(c);
                } else if cur_set.contains(r) && right_set.contains(l) {
                    on.push((c.2, c.1.flipped(), c.0));
                } else {
                    rest.push(c);
                }
            }
            join_conds = rest;
            let combined = cur_set.union(&right_set);
            cur = if on.is_empty() && res.is_empty() {
                plan.add(Operator::Product, vec![cur, right])
            } else {
                let residual_pred = res.into_iter().reduce(Expr::and);
                plan.add(
                    Operator::Join {
                        kind: JoinKind::Inner,
                        on,
                        residual: residual_pred,
                    },
                    vec![cur, right],
                )
            };
            cur_set = combined;
        }
        // Any join condition never absorbed becomes a residual selection,
        // as do multi-relation non-equi conjuncts.
        for (l, op, r) in join_conds {
            residual.push(Expr::cmp(Expr::Col(l), op, Expr::Col(r)));
        }
        if let Some(pred) = residual.into_iter().reduce(Expr::and) {
            cur = plan.add(Operator::Select { pred }, vec![cur]);
        }

        // ---- grouping & aggregation ------------------------------------
        let has_aggs = self.statement_has_aggregates();
        if has_aggs || !self.stmt.group_by.is_empty() {
            // Materialize computed group keys as µ nodes.
            let mut keys: Vec<AttrId> = Vec::new();
            for g in &self.stmt.group_by {
                if let Some(&idx) = self.aliases.get(g) {
                    let expr = self.lower_scalar(&self.stmt.items[idx].expr)?;
                    match expr {
                        Expr::Col(a) => keys.push(a),
                        computed => {
                            let inputs: Vec<AttrId> = computed.attrs().iter().collect();
                            let output = *inputs.first().ok_or_else(|| {
                                AlgebraError::Semantic(format!(
                                    "group key {g} references no attributes"
                                ))
                            })?;
                            cur = plan.add(
                                Operator::Udf {
                                    name: g.clone(),
                                    inputs,
                                    output,
                                    body: Some(computed),
                                },
                                vec![cur],
                            );
                            keys.push(output);
                        }
                    }
                } else {
                    keys.push(self.catalog.attr(g)?);
                }
            }
            // Collect aggregates from select, having, order-by.
            for item in &self.stmt.items {
                self.collect_aggs(&item.expr, &keys)?;
            }
            if let Some(h) = &self.stmt.having {
                self.collect_aggs(h, &keys)?;
            }
            for (e, _) in &self.stmt.order_by {
                self.collect_aggs(e, &keys)?;
            }
            // Non-aggregate select items must be group keys.
            for item in &self.stmt.items {
                if !contains_agg(&item.expr) {
                    let lowered = self.lower_scalar(&item.expr)?;
                    if let Expr::Col(a) = lowered {
                        if !keys.contains(&a) {
                            return Err(AlgebraError::Semantic(format!(
                                "column {} appears outside GROUP BY",
                                self.catalog.attr_name(a)
                            )));
                        }
                    }
                }
            }
            cur = plan.add(
                Operator::GroupBy {
                    keys,
                    aggs: self.aggs.clone(),
                },
                vec![cur],
            );
            if let Some(h) = &self.stmt.having {
                let pred = self.lower_with_agg_refs(h)?;
                cur = plan.add(Operator::Having { pred }, vec![cur]);
            }
        } else if self.stmt.having.is_some() {
            return Err(AlgebraError::Semantic("HAVING requires aggregation".into()));
        }

        // ---- order by / limit / final projection ------------------------
        if !self.stmt.order_by.is_empty() {
            let mut sort_keys = Vec::new();
            for (e, asc) in &self.stmt.order_by {
                sort_keys.push((self.lower_with_agg_refs(e)?, *asc));
            }
            cur = plan.add(Operator::Sort { keys: sort_keys }, vec![cur]);
        }
        if let Some(n) = self.stmt.limit {
            cur = plan.add(Operator::Limit { n }, vec![cur]);
        }
        if !has_aggs && self.stmt.group_by.is_empty() {
            // Plain projection queries: project to the select list.
            let mut attrs = Vec::new();
            let mut all_plain = true;
            for item in &self.stmt.items {
                match self.lower_scalar(&item.expr)? {
                    Expr::Col(a) => attrs.push(a),
                    computed => {
                        // Computed select item: materialize as µ.
                        let inputs: Vec<AttrId> = computed.attrs().iter().collect();
                        if let Some(&out) = inputs.first() {
                            cur = plan.add(
                                Operator::Udf {
                                    name: item.alias.clone().unwrap_or_else(|| "expr".to_string()),
                                    inputs,
                                    output: out,
                                    body: Some(computed),
                                },
                                vec![cur],
                            );
                            attrs.push(out);
                        } else {
                            all_plain = false;
                        }
                    }
                }
            }
            let schema = plan.schemas()[cur.index()].clone();
            let target: AttrSet = attrs.iter().copied().collect();
            if all_plain && target != schema && !attrs.is_empty() {
                cur = plan.add(Operator::Project { attrs }, vec![cur]);
            }
        }
        plan.set_root(cur);
        plan.validate(self.catalog)?;
        Ok(plan)
    }

    fn statement_has_aggregates(&self) -> bool {
        self.stmt.items.iter().any(|i| contains_agg(&i.expr))
            || self.stmt.having.as_ref().is_some_and(contains_agg)
            || self.stmt.order_by.iter().any(|(e, _)| contains_agg(e))
    }

    fn place_conjunct(
        &self,
        conj: Expr,
        subtrees: &[(NodeId, AttrSet)],
        local: &mut Vec<(usize, Expr)>,
        join_conds: &mut Vec<(AttrId, CmpOp, AttrId)>,
        residual: &mut Vec<Expr>,
    ) {
        let attrs = conj.attrs();
        // Single-relation conjunct?
        if let Some((i, _)) = subtrees
            .iter()
            .enumerate()
            .find(|(_, (_, set))| attrs.is_subset(set))
        {
            local.push((i, conj));
            return;
        }
        // Cross-relation simple comparison?
        if let Expr::Cmp(a, op, b) = &conj {
            if let (Expr::Col(l), Expr::Col(r)) = (a.as_ref(), b.as_ref()) {
                join_conds.push((*l, *op, *r));
                return;
            }
        }
        residual.push(conj);
    }

    /// Lower an AST expression that must not contain aggregates.
    fn lower_scalar(&self, e: &AstExpr) -> Result<Expr> {
        if contains_agg(e) {
            return Err(AlgebraError::Semantic(
                "aggregate in scalar-only context".into(),
            ));
        }
        self.lower(e, None)
    }

    /// Lower an expression replacing aggregates with [`Expr::AggRef`].
    fn lower_with_agg_refs(&self, e: &AstExpr) -> Result<Expr> {
        self.lower(e, Some(&self.aggs))
    }

    fn lower(&self, e: &AstExpr, aggs: Option<&Vec<AggExpr>>) -> Result<Expr> {
        Ok(match e {
            AstExpr::Col(name) => {
                // Aliases of select items resolve through the item:
                // aggregates become AggRefs; computed scalar items
                // resolve to the attribute their µ node outputs.
                if let Some(&idx) = self.aliases.get(name) {
                    let item = &self.stmt.items[idx].expr;
                    match item {
                        AstExpr::Agg(f, inner, distinct) => {
                            if let Some(aggs) = aggs {
                                let target = self.make_agg(f, inner, *distinct, &[])?;
                                if let Some(pos) = aggs.iter().position(|a| *a == target) {
                                    return Ok(Expr::AggRef(pos));
                                }
                            }
                        }
                        AstExpr::CountStar => {
                            if let Some(aggs) = aggs {
                                if let Some(pos) = aggs.iter().position(|a| {
                                    a.func == AggFunc::Count && a.input == Expr::Lit(Value::Int(1))
                                }) {
                                    return Ok(Expr::AggRef(pos));
                                }
                            }
                        }
                        other if !contains_agg(other) => {
                            let lowered = self.lower(other, None)?;
                            return Ok(match lowered {
                                Expr::Col(a) => Expr::Col(a),
                                computed => {
                                    // The µ node materializing this item
                                    // names its output after the first
                                    // referenced attribute.
                                    match computed.attrs().iter().next() {
                                        Some(a) => Expr::Col(a),
                                        None => computed,
                                    }
                                }
                            });
                        }
                        _ => {}
                    }
                }
                Expr::Col(self.catalog.attr(name)?)
            }
            AstExpr::Lit(v) => Expr::Lit(v.clone()),
            AstExpr::Interval(..) => {
                return Err(AlgebraError::Semantic(
                    "INTERVAL literal outside date arithmetic".into(),
                ))
            }
            AstExpr::Agg(f, inner, distinct) => match aggs {
                Some(list) => {
                    let target = self.make_agg(f, inner, *distinct, &[])?;
                    let pos = list
                        .iter()
                        .position(|a| *a == target)
                        .ok_or_else(|| AlgebraError::Semantic("aggregate not registered".into()))?;
                    Expr::AggRef(pos)
                }
                None => {
                    return Err(AlgebraError::Semantic(
                        "aggregate in scalar-only context".into(),
                    ))
                }
            },
            AstExpr::CountStar => match aggs {
                Some(list) => {
                    let pos = list
                        .iter()
                        .position(|a| {
                            a.func == AggFunc::Count && a.input == Expr::Lit(Value::Int(1))
                        })
                        .ok_or_else(|| AlgebraError::Semantic("count(*) not registered".into()))?;
                    Expr::AggRef(pos)
                }
                None => {
                    return Err(AlgebraError::Semantic(
                        "count(*) in scalar-only context".into(),
                    ))
                }
            },
            AstExpr::Cmp(a, op, b) => Expr::cmp(self.lower(a, aggs)?, *op, self.lower(b, aggs)?),
            AstExpr::And(v) => Expr::And(
                v.iter()
                    .map(|x| self.lower(x, aggs))
                    .collect::<Result<_>>()?,
            ),
            AstExpr::Or(v) => Expr::Or(
                v.iter()
                    .map(|x| self.lower(x, aggs))
                    .collect::<Result<_>>()?,
            ),
            AstExpr::Not(x) => Expr::Not(Box::new(self.lower(x, aggs)?)),
            AstExpr::Arith(a, op, b) => {
                // Constant-fold date ± interval at build time.
                let la = self.lower_interval_side(a, aggs)?;
                let lb = self.lower_interval_side(b, aggs)?;
                match (la, lb) {
                    (IntervalOr::Expr(Expr::Lit(Value::Date(d))), IntervalOr::Interval(n, u)) => {
                        let folded = apply_interval(d, n, u, *op)?;
                        Expr::Lit(Value::Date(folded))
                    }
                    (IntervalOr::Expr(x), IntervalOr::Expr(y)) => Expr::arith(x, *op, y),
                    _ => {
                        return Err(AlgebraError::Semantic(
                            "INTERVAL arithmetic requires a date literal left-hand side".into(),
                        ))
                    }
                }
            }
            AstExpr::Like(x, pat, neg) => Expr::Like {
                expr: Box::new(self.lower(x, aggs)?),
                pattern: pat.clone(),
                negated: *neg,
            },
            AstExpr::Between(x, lo, hi, neg) => Expr::Between {
                expr: Box::new(self.lower(x, aggs)?),
                lo: Box::new(self.lower(lo, aggs)?),
                hi: Box::new(self.lower(hi, aggs)?),
                negated: *neg,
            },
            AstExpr::InList(x, list, neg) => Expr::InList {
                expr: Box::new(self.lower(x, aggs)?),
                list: list.clone(),
                negated: *neg,
            },
            AstExpr::Case(branches, else_) => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((self.lower(c, aggs)?, self.lower(v, aggs)?)))
                    .collect::<Result<_>>()?,
                else_: match else_ {
                    Some(x) => Some(Box::new(self.lower(x, aggs)?)),
                    None => None,
                },
            },
            AstExpr::IsNull(x, neg) => Expr::IsNull {
                expr: Box::new(self.lower(x, aggs)?),
                negated: *neg,
            },
            AstExpr::ExtractYear(x) => Expr::Extract {
                field: DateField::Year,
                expr: Box::new(self.lower(x, aggs)?),
            },
            AstExpr::Substring(x, s, l) => Expr::Substring {
                expr: Box::new(self.lower(x, aggs)?),
                start: *s,
                len: *l,
            },
        })
    }

    fn lower_interval_side(&self, e: &AstExpr, aggs: Option<&Vec<AggExpr>>) -> Result<IntervalOr> {
        match e {
            AstExpr::Interval(n, u) => Ok(IntervalOr::Interval(*n, *u)),
            other => Ok(IntervalOr::Expr(self.lower(other, aggs)?)),
        }
    }

    fn make_agg(
        &self,
        f: &AggFunc,
        inner: &AstExpr,
        _distinct: bool,
        keys: &[AttrId],
    ) -> Result<AggExpr> {
        let input = self.lower_scalar(inner)?;
        let ins = input.attrs();
        let output = ins
            .iter()
            .next()
            .or_else(|| keys.first().copied())
            .ok_or_else(|| AlgebraError::Semantic("aggregate references no attribute".into()))?;
        Ok(AggExpr {
            func: *f,
            input,
            output,
        })
    }

    fn collect_aggs(&mut self, e: &AstExpr, keys: &[AttrId]) -> Result<()> {
        match e {
            AstExpr::Agg(f, inner, distinct) => {
                let ag = self.make_agg(f, inner, *distinct, keys)?;
                if !self.aggs.contains(&ag) {
                    self.aggs.push(ag);
                }
            }
            AstExpr::CountStar => {
                let output = keys.first().copied().ok_or_else(|| {
                    AlgebraError::Semantic(
                        "count(*) without GROUP BY keys needs a named column".into(),
                    )
                })?;
                let ag = AggExpr::count_star(output);
                if !self.aggs.contains(&ag) {
                    self.aggs.push(ag);
                }
            }
            AstExpr::Cmp(a, _, b) | AstExpr::Arith(a, _, b) => {
                self.collect_aggs(a, keys)?;
                self.collect_aggs(b, keys)?;
            }
            AstExpr::And(v) | AstExpr::Or(v) => {
                for x in v {
                    self.collect_aggs(x, keys)?;
                }
            }
            AstExpr::Not(x)
            | AstExpr::Like(x, _, _)
            | AstExpr::IsNull(x, _)
            | AstExpr::ExtractYear(x)
            | AstExpr::Substring(x, _, _) => self.collect_aggs(x, keys)?,
            AstExpr::Between(a, lo, hi, _) => {
                self.collect_aggs(a, keys)?;
                self.collect_aggs(lo, keys)?;
                self.collect_aggs(hi, keys)?;
            }
            AstExpr::InList(x, _, _) => self.collect_aggs(x, keys)?,
            AstExpr::Case(branches, else_) => {
                for (c, v) in branches {
                    self.collect_aggs(c, keys)?;
                    self.collect_aggs(v, keys)?;
                }
                if let Some(x) = else_ {
                    self.collect_aggs(x, keys)?;
                }
            }
            AstExpr::Col(_) | AstExpr::Lit(_) | AstExpr::Interval(..) => {}
        }
        Ok(())
    }
}

enum IntervalOr {
    Expr(Expr),
    Interval(i64, IntervalUnit),
}

fn apply_interval(
    d: crate::value::Date,
    n: i64,
    u: IntervalUnit,
    op: ArithOp,
) -> Result<crate::value::Date> {
    let n = match op {
        ArithOp::Add => n,
        ArithOp::Sub => -n,
        _ => return Err(AlgebraError::Semantic("INTERVAL only supports +/-".into())),
    } as i32;
    Ok(match u {
        IntervalUnit::Day => d.add_days(n),
        IntervalUnit::Month => d.add_months(n),
        IntervalUnit::Year => d.add_years(n),
    })
}

fn flatten_and(e: Expr) -> Vec<Expr> {
    match e {
        Expr::And(v) => v.into_iter().flat_map(flatten_and).collect(),
        other => vec![other],
    }
}

fn split_join_cond(e: &Expr, left: &AttrSet, right: &AttrSet) -> Option<(AttrId, CmpOp, AttrId)> {
    if let Expr::Cmp(a, op, b) = e {
        if let (Expr::Col(l), Expr::Col(r)) = (a.as_ref(), b.as_ref()) {
            if left.contains(*l) && right.contains(*r) {
                return Some((*l, *op, *r));
            }
            if left.contains(*r) && right.contains(*l) {
                return Some((*r, op.flipped(), *l));
            }
        }
    }
    None
}

fn collect_cols(e: &AstExpr, out: &mut Vec<String>) {
    match e {
        AstExpr::Col(n) => out.push(n.clone()),
        AstExpr::Lit(_) | AstExpr::Interval(..) | AstExpr::CountStar => {}
        AstExpr::Agg(_, x, _)
        | AstExpr::Not(x)
        | AstExpr::Like(x, _, _)
        | AstExpr::IsNull(x, _)
        | AstExpr::ExtractYear(x)
        | AstExpr::Substring(x, _, _) => collect_cols(x, out),
        AstExpr::Cmp(a, _, b) | AstExpr::Arith(a, _, b) => {
            collect_cols(a, out);
            collect_cols(b, out);
        }
        AstExpr::And(v) | AstExpr::Or(v) => {
            for x in v {
                collect_cols(x, out);
            }
        }
        AstExpr::Between(a, lo, hi, _) => {
            collect_cols(a, out);
            collect_cols(lo, out);
            collect_cols(hi, out);
        }
        AstExpr::InList(x, _, _) => collect_cols(x, out),
        AstExpr::Case(branches, else_) => {
            for (c, v) in branches {
                collect_cols(c, out);
                collect_cols(v, out);
            }
            if let Some(x) = else_ {
                collect_cols(x, out);
            }
        }
    }
}

fn contains_agg(e: &AstExpr) -> bool {
    match e {
        AstExpr::Agg(..) | AstExpr::CountStar => true,
        AstExpr::Col(_) | AstExpr::Lit(_) | AstExpr::Interval(..) => false,
        AstExpr::Not(x)
        | AstExpr::Like(x, _, _)
        | AstExpr::IsNull(x, _)
        | AstExpr::ExtractYear(x)
        | AstExpr::Substring(x, _, _) => contains_agg(x),
        AstExpr::Cmp(a, _, b) | AstExpr::Arith(a, _, b) => contains_agg(a) || contains_agg(b),
        AstExpr::And(v) | AstExpr::Or(v) => v.iter().any(contains_agg),
        AstExpr::Between(a, lo, hi, _) => contains_agg(a) || contains_agg(lo) || contains_agg(hi),
        AstExpr::InList(x, _, _) => contains_agg(x),
        AstExpr::Case(branches, else_) => {
            branches
                .iter()
                .any(|(c, v)| contains_agg(c) || contains_agg(v))
                || else_.as_deref().is_some_and(contains_agg)
        }
    }
}

// ---------------------------------------------------------------------------
// Column pruning
// ---------------------------------------------------------------------------

/// Insert mid-plan projections dropping columns after their last use
/// (the paper assumes plans "produced with classical optimization
/// criteria"; PostgreSQL likewise narrows intermediate tuples). Only
/// *visible* columns are affected — implicit attributes and equivalence
/// classes in relation profiles are untouched, so authorization
/// semantics are preserved while intermediate results (and hence
/// transfer/encryption costs) shrink.
pub fn prune_columns(plan: &QueryPlan, catalog: &Catalog) -> QueryPlan {
    use crate::plan::Operator as Op;
    let schemas = plan.schemas();
    // needed[child]: attributes the parent chain requires from `child`.
    let mut needed: Vec<AttrSet> = vec![AttrSet::new(); plan.len()];
    let order = plan.postorder();
    needed[plan.root().index()] = schemas[plan.root().index()].clone();
    for &id in order.iter().rev() {
        let node = plan.node(id);
        let pass = needed[id.index()].clone();
        match &node.op {
            Op::Base { .. } => {}
            Op::Project { attrs } => {
                let set: AttrSet = attrs.iter().copied().collect();
                needed[node.children[0].index()] = set;
            }
            Op::Select { pred } | Op::Having { pred } => {
                let mut n = pass;
                n.union_with(&pred.attrs());
                needed[node.children[0].index()] = n.intersect(&schemas[node.children[0].index()]);
            }
            Op::Product => {
                for &c in &node.children {
                    needed[c.index()] = pass.intersect(&schemas[c.index()]);
                }
            }
            Op::Join { on, residual, .. } => {
                let mut n = pass;
                for (l, _, r) in on {
                    n.insert(*l);
                    n.insert(*r);
                }
                if let Some(resid) = residual {
                    n.union_with(&resid.attrs());
                }
                for &c in &node.children {
                    needed[c.index()] = n.intersect(&schemas[c.index()]);
                }
            }
            Op::GroupBy { keys, aggs } => {
                let mut n: AttrSet = keys.iter().copied().collect();
                for ag in aggs {
                    n.union_with(&ag.input.attrs());
                    n.insert(ag.output);
                }
                needed[node.children[0].index()] = n.intersect(&schemas[node.children[0].index()]);
            }
            Op::Udf { inputs, output, .. } => {
                let mut n = pass;
                n.remove(*output);
                for a in inputs {
                    n.insert(*a);
                }
                needed[node.children[0].index()] = n.intersect(&schemas[node.children[0].index()]);
            }
            Op::Encrypt { attrs } | Op::Decrypt { attrs } => {
                let mut n = pass;
                for a in attrs {
                    n.insert(*a);
                }
                needed[node.children[0].index()] = n.intersect(&schemas[node.children[0].index()]);
            }
            Op::Sort { keys } => {
                let mut n = pass;
                for (e, _) in keys {
                    n.union_with(&e.attrs());
                }
                needed[node.children[0].index()] = n.intersect(&schemas[node.children[0].index()]);
            }
            Op::Limit { .. } => {
                needed[node.children[0].index()] = pass;
            }
        }
    }
    // Splice projections where a child produces more than its parent
    // consumes. Keep leaves and existing projections untouched.
    let mut out = plan.clone();
    let parents = plan.parents();
    for &id in &order {
        let node = plan.node(id);
        // Leaves and projections are already narrow; group-by/having
        // outputs must stay intact because parents reference aggregate
        // results positionally (HAVING/ORDER BY `AggRef`s).
        if matches!(
            node.op,
            Op::Base { .. } | Op::Project { .. } | Op::GroupBy { .. } | Op::Having { .. }
        ) {
            continue;
        }
        // Never separate a HAVING or aggregate-sorting node from its
        // group-by child.
        if let Some(p) = parents[id.index()] {
            if matches!(plan.node(p).op, Op::Having { .. } | Op::Sort { .. }) {
                continue;
            }
        }
        let want = &needed[id.index()];
        let have = &schemas[id.index()];
        if !want.is_empty() && want != have && want.is_subset(have) {
            out.splice_above(
                id,
                Op::Project {
                    attrs: want.iter().collect(),
                },
            );
        }
    }
    debug_assert!(out.validate(catalog).is_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::plan::Operator as Op;

    fn ops(plan: &QueryPlan) -> Vec<&'static str> {
        plan.postorder()
            .into_iter()
            .map(|id| plan.node(id).op.name())
            .collect()
    }

    #[test]
    fn builds_running_example() {
        let cat = Catalog::paper_running_example();
        let plan = plan_sql(
            &cat,
            "select T, avg(P) from Hosp join Ins on S=C \
             where D='stroke' group by T having avg(P)>100",
        )
        .unwrap();
        // Expected shape: Base(Hosp) → σ → ⋈ with Base(Ins) → γ → having.
        assert_eq!(ops(&plan), vec!["Base", "σ", "Base", "⋈", "γ", "σᵧ"]);
        // Projection pushdown: Hosp leaf retrieves only S, D, T.
        let base = plan
            .postorder()
            .into_iter()
            .find(|&id| matches!(plan.node(id).op, Op::Base { .. }))
            .unwrap();
        if let Op::Base { attrs, .. } = &plan.node(base).op {
            let names: Vec<&str> = attrs.iter().map(|a| cat.attr_name(*a)).collect();
            assert_eq!(names, vec!["S", "D", "T"]);
        }
    }

    #[test]
    fn where_join_condition_discovered() {
        let cat = Catalog::paper_running_example();
        let plan = plan_sql(
            &cat,
            "select T, avg(P) from Hosp, Ins where S=C and D='stroke' group by T",
        )
        .unwrap();
        assert!(ops(&plan).contains(&"⋈"));
        assert!(!ops(&plan).contains(&"×"));
    }

    #[test]
    fn cartesian_product_when_unlinked() {
        let cat = Catalog::paper_running_example();
        let plan = plan_sql(&cat, "select T, P from Hosp, Ins").unwrap();
        assert!(ops(&plan).contains(&"×"));
    }

    #[test]
    fn plain_projection_query() {
        let cat = Catalog::paper_running_example();
        let plan = plan_sql(&cat, "select S, T from Hosp where D='stroke'").unwrap();
        let o = ops(&plan);
        // D is needed by the σ, so the leaf retrieves it; the explicit
        // final projection then drops it.
        assert_eq!(o, vec!["Base", "σ", "π"]);
        let schemas = plan.schemas();
        let root_schema = &schemas[plan.root().index()];
        assert!(root_schema.len() >= 2);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let cat = Catalog::paper_running_example();
        let err = plan_sql(&cat, "select S, avg(P) from Hosp, Ins group by T").unwrap_err();
        assert!(matches!(err, AlgebraError::Semantic(_)));
    }

    #[test]
    fn having_without_aggregate_rejected() {
        let cat = Catalog::paper_running_example();
        let err = plan_sql(&cat, "select S from Hosp having S > 1").unwrap_err();
        assert!(matches!(err, AlgebraError::Semantic(_)));
    }

    #[test]
    fn interval_folding() {
        let mut cat = Catalog::new();
        cat.add_relation("t", &[("d1", crate::DataType::Date)])
            .unwrap();
        let plan = plan_sql(
            &cat,
            "select d1 from t where d1 < date '1994-01-01' + interval '1' year",
        )
        .unwrap();
        let sel = plan
            .postorder()
            .into_iter()
            .find(|&id| matches!(plan.node(id).op, Op::Select { .. }))
            .unwrap();
        if let Op::Select { pred } = &plan.node(sel).op {
            let s = pred.to_string();
            assert!(s.contains("1995-01-01"), "{s}");
        }
    }

    #[test]
    fn order_and_limit_nodes() {
        let cat = Catalog::paper_running_example();
        let plan = plan_sql(
            &cat,
            "select D, count(*) from Hosp group by D order by count(*) desc limit 5",
        )
        .unwrap();
        let o = ops(&plan);
        assert_eq!(o, vec!["Base", "γ", "sort", "limit"]);
    }

    #[test]
    fn computed_group_key_becomes_udf() {
        let mut cat = Catalog::new();
        cat.add_relation(
            "orders2",
            &[
                ("ok", crate::DataType::Int),
                ("odate", crate::DataType::Date),
                ("oprice", crate::DataType::Num),
            ],
        )
        .unwrap();
        let plan = plan_sql(
            &cat,
            "select extract(year from odate) as oyear, sum(oprice) \
             from orders2 group by oyear",
        )
        .unwrap();
        assert!(ops(&plan).contains(&"µ"));
    }

    #[test]
    fn having_references_alias() {
        let cat = Catalog::paper_running_example();
        let plan = plan_sql(
            &cat,
            "select T, avg(P) as ap from Hosp, Ins where S=C group by T having ap > 10",
        )
        .unwrap();
        assert!(ops(&plan).contains(&"σᵧ"));
    }
}

#[cfg(test)]
mod prune_tests {
    use super::*;
    use crate::catalog::Catalog;

    #[test]
    fn drops_filter_columns_after_use() {
        let cat = Catalog::paper_running_example();
        // select S from Hosp where D='stroke': D is dead above the σ.
        let plan = plan_sql(&cat, "select S, T from Hosp where D='stroke'").unwrap();
        let pruned = prune_columns(&plan, &cat);
        pruned.validate(&cat).unwrap();
        let schemas = pruned.schemas();
        let d = cat.attr("D").unwrap();
        // Some node above the σ no longer carries D.
        let sel = pruned
            .postorder()
            .into_iter()
            .find(|&id| matches!(pruned.node(id).op, Operator::Select { .. }))
            .unwrap();
        let parent = pruned.parents()[sel.index()].unwrap();
        assert!(!schemas[parent.index()].contains(d), "D pruned above σ");
    }

    #[test]
    fn preserves_root_schema_and_semantics() {
        let cat = Catalog::paper_running_example();
        let plan = plan_sql(
            &cat,
            "select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by T",
        )
        .unwrap();
        let pruned = prune_columns(&plan, &cat);
        pruned.validate(&cat).unwrap();
        assert_eq!(
            plan.schemas()[plan.root().index()],
            pruned.schemas()[pruned.root().index()]
        );
    }
}
