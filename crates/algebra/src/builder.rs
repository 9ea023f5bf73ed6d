//! AST → plan construction with the paper's optimization assumptions.
//!
//! The paper assumes plans "produced with classical optimization
//! criteria and, in particular, … projections … pushed down to avoid
//! retrieving data that are not of interest for the query". The builder
//! therefore:
//!
//! 1. pushes projections into the leaves (each [`Operator::Base`]
//!    retrieves only the attributes the statement touches, its
//!    subqueries included);
//! 2. pushes single-relation selections directly above their leaf, and
//!    an `ON` conjunct over the joined item alone below its join; a
//!    `WHERE` conjunct reading the right side of a `LEFT OUTER JOIN`
//!    stays in the selection above the joins;
//! 3. builds a left-deep join tree in `FROM` order, each item's subtree
//!    (a leaf, or a derived table `(SELECT …) name`) built just before
//!    it is joined, so node ids come out in postorder. A comparison of
//!    two base relations' columns in `WHERE` becomes a join condition;
//!    a derived table joins through its own `[LEFT OUTER] JOIN … ON`
//!    only. An item no condition links is a cartesian product, and the
//!    remaining multi-relation conjuncts a selection above the joins;
//! 4. plans each `[NOT] EXISTS (…)` and `x IN (SELECT y …)` conjunct as
//!    a Semi (Anti) join, after its statement's `FROM` joins and their
//!    selection, in `WHERE` order: `x = y` and a correlated outer =
//!    inner equality become its condition, any other correlated
//!    conjunct its residual. `x NOT IN (SELECT …)` is refused: it
//!    returns no row once the subquery yields a NULL;
//! 5. materializes computed grouping expressions as µ (udf) nodes so
//!    that group keys are always attributes, matching the paper's
//!    operator signatures;
//! 6. lowers aggregates into a γ node, each output named after one of
//!    its input attributes (the one its `AS` names, else the first), and
//!    rewrites `HAVING` / `ORDER BY` references into positional
//!    [`Expr::AggRef`]s;
//! 7. projects a plain outermost `SELECT` to its list, before `ORDER BY`
//!    / `LIMIT` when every sort key is a listed column or a select
//!    item's alias, and after them otherwise (an alias key then sorting
//!    by its item's expression); a subquery's select list adds no
//!    projection, and only a subquery may select `*`.
//!
//! Attribute names are global, so a relation appears at most once in a
//! statement, subqueries included; a second scan reads an alias
//! relation of the catalog.

use crate::catalog::Catalog;
use crate::error::{AlgebraError, Result};
use crate::expr::{AggExpr, AggFunc, ArithOp, CmpOp, DateField, Expr};
use crate::ids::{AttrId, NodeId};
use crate::plan::{JoinKind, Operator, QueryPlan};
use crate::sql::{AstExpr, IntervalUnit, SelectStmt, TableRef};
use crate::value::{Date, Value};
use crate::AttrSet;
use std::collections::HashMap;

/// Parse SQL and build a plan in one step.
pub fn plan_sql(catalog: &Catalog, sql: &str) -> Result<QueryPlan> {
    let stmt = crate::sql::parse_select(sql)?;
    if stmt.items.is_empty() {
        return Err(AlgebraError::Semantic(
            "SELECT * is read only in a subquery; list the columns to return".into(),
        ));
    }
    let mut names = Names::default();
    names.stmt(&stmt);
    let mut seen = names.rels.iter().enumerate();
    if let Some((_, rel)) = seen.find(|(i, r)| names.rels[..*i].contains(r)) {
        let alias = (catalog.relations().iter())
            .map(|r| r.name.to_ascii_lowercase())
            .find(|n| {
                let digits = n.strip_prefix(rel.as_str()).unwrap_or("");
                !digits.is_empty()
                    && digits.bytes().all(|b| b.is_ascii_digit())
                    && !names.rels.contains(n)
            });
        return Err(AlgebraError::Semantic(format!(
            "relation {rel} appears twice in one statement; scan it again through an alias \
             relation{}",
            alias.map(|a| format!(" such as {a}")).unwrap_or_default()
        )));
    }
    let mut demand = AttrSet::new();
    for name in &names.cols {
        match catalog.attr(name) {
            Ok(a) => {
                demand.insert(a);
            }
            Err(e) if !names.aliases.contains(name) => return Err(e),
            Err(_) => {}
        }
    }
    let mut tree = Tree {
        plan: QueryPlan::new(),
        demand,
    };
    let (root, _, outer) = Builder::new(catalog, &stmt).build(&mut tree, true)?;
    if !outer.is_empty() {
        return Err(AlgebraError::Semantic(
            "a WHERE conjunct reads a relation its FROM does not name".into(),
        ));
    }
    tree.plan.set_root(root);
    tree.plan.validate(catalog)?;
    Ok(tree.plan)
}

/// Every relation, column and select-item alias a statement names, its
/// subqueries included.
#[derive(Default)]
struct Names {
    rels: Vec<String>,
    cols: Vec<String>,
    aliases: Vec<String>,
}

impl Names {
    fn stmt(&mut self, s: &SelectStmt) {
        for item in &s.items {
            self.expr(&item.expr);
            self.aliases.extend(item.alias.clone());
        }
        for t in &s.from {
            match &t.query {
                Some(q) => self.stmt(q),
                None => self.rels.push(t.name.clone()),
            }
            t.join_on.iter().for_each(|on| self.expr(on));
        }
        let order = s.order_by.iter().map(|(e, _)| e);
        s.where_
            .iter()
            .chain(&s.having)
            .chain(order)
            .for_each(|e| self.expr(e));
        self.cols.extend(s.group_by.iter().cloned());
    }

    fn expr(&mut self, e: &AstExpr) {
        match e {
            AstExpr::Col(n) => self.cols.push(n.clone()),
            AstExpr::Sub(_, q, _) => self.stmt(q),
            _ => {}
        }
        e.children().into_iter().for_each(|c| self.expr(c));
    }
}

/// The plan under construction, and the attributes its statement reads.
struct Tree {
    plan: QueryPlan,
    demand: AttrSet,
}

/// One `SELECT` (the statement, or one of its subqueries) being built.
struct Builder<'a> {
    catalog: &'a Catalog,
    stmt: &'a SelectStmt,
    /// Aggregates discovered in select/having/order-by, deduplicated.
    aggs: Vec<AggExpr>,
    /// Alias → select-item index.
    aliases: HashMap<String, usize>,
}

impl<'a> Builder<'a> {
    fn new(catalog: &'a Catalog, stmt: &'a SelectStmt) -> Self {
        let aliases = (stmt.items.iter().enumerate())
            .filter_map(|(i, item)| Some((item.alias.clone()?, i)))
            .collect();
        Builder {
            catalog,
            stmt,
            aggs: Vec::new(),
            aliases,
        }
    }

    /// The attributes a `FROM` item reads: its relation's demanded
    /// columns, or every such column of a derived table's relations.
    fn reach(&self, t: &TableRef, demand: &AttrSet) -> Result<AttrSet> {
        match &t.query {
            None => Ok(self.catalog.relation(&t.name)?.attr_set().intersect(demand)),
            Some(q) => q.from.iter().try_fold(AttrSet::new(), |acc, t| {
                Ok(acc.union(&self.reach(t, demand)?))
            }),
        }
    }

    /// Build this statement's subtree. Returns its root, the attributes
    /// its `FROM` items read, and the `WHERE` conjuncts that read an
    /// enclosing statement's relations (a subquery's correlation).
    fn build(&mut self, tree: &mut Tree, top: bool) -> Result<(NodeId, AttrSet, Vec<Expr>)> {
        let from = &self.stmt.from;
        let sets = (from.iter())
            .map(|t| self.reach(t, &tree.demand))
            .collect::<Result<Vec<_>>>()?;
        let own = sets.iter().fold(AttrSet::new(), |acc, s| acc.union(s));
        // The null-supplying side of every LEFT OUTER JOIN: a WHERE
        // conjunct reading it filters the joined rows, so it stays above.
        let nullable = (from.iter().zip(&sets))
            .filter(|(t, _)| t.outer)
            .fold(AttrSet::new(), |acc, (_, s)| acc.union(s));

        // ---- classify ON and WHERE conjuncts ----------------------------
        let mut local: Vec<Vec<Expr>> = vec![Vec::new(); from.len()];
        let mut on: Vec<Vec<(AttrId, CmpOp, AttrId)>> = vec![Vec::new(); from.len()];
        let mut res: Vec<Vec<Expr>> = vec![Vec::new(); from.len()];
        let mut left = AttrSet::new();
        for (i, t) in from.iter().enumerate() {
            for conj in t.join_on.iter().map(|c| self.lower_scalar(c)) {
                for conj in flatten_and(conj?) {
                    if conj.attrs().is_subset(&sets[i]) {
                        local[i].push(conj);
                    } else if let Some(c) = split_join_cond(&conj, &left, &sets[i]) {
                        on[i].push(c);
                    } else {
                        res[i].push(conj);
                    }
                }
            }
            left.union_with(&sets[i]);
        }
        let base = |a: &Expr| match a {
            Expr::Col(a) => {
                (from.iter().zip(&sets)).any(|(t, s)| t.query.is_none() && s.contains(*a))
            }
            _ => false,
        };
        let (mut join_conds, mut residual, mut correlated, mut subs) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for conj in self.stmt.where_.iter().flat_map(ast_conjuncts) {
            if let AstExpr::Sub(lhs, query, negated) = conj {
                subs.push((lhs, query, *negated));
                continue;
            }
            for e in flatten_and(self.lower_scalar(conj)?) {
                let attrs = e.attrs();
                if !attrs.is_subset(&own) {
                    correlated.push(e);
                } else if attrs.intersects(&nullable) {
                    residual.push(e);
                } else if let Some(i) = sets.iter().position(|s| attrs.is_subset(s)) {
                    local[i].push(e);
                } else if matches!(&e, Expr::Cmp(a, _, b) if base(a) && base(b)) {
                    join_conds.push(e);
                } else {
                    residual.push(e);
                }
            }
        }

        // ---- left-deep join tree, each item built just before its join --
        let mut cur: Option<(NodeId, AttrSet)> = None;
        for (i, t) in from.iter().enumerate() {
            let mut node = match &t.query {
                None => {
                    let rd = self.catalog.relation(&t.name)?;
                    let attrs: Vec<AttrId> = rd
                        .attrs()
                        .into_iter()
                        .filter(|a| sets[i].contains(*a))
                        .collect();
                    if attrs.is_empty() {
                        return Err(AlgebraError::Semantic(format!(
                            "relation {} contributes no attributes to the query",
                            rd.name
                        )));
                    }
                    tree.plan.add_base(rd.rel, attrs)
                }
                Some(q) => {
                    let (node, _, outer) = Builder::new(self.catalog, q).build(tree, false)?;
                    if !outer.is_empty() {
                        return Err(AlgebraError::Semantic(format!(
                            "derived table {} reads a relation its FROM does not name",
                            t.name
                        )));
                    }
                    node
                }
            };
            if let Some(pred) = std::mem::take(&mut local[i]).into_iter().reduce(Expr::and) {
                node = tree.plan.add(Operator::Select { pred }, vec![node]);
            }
            cur = Some(match cur {
                None => (node, sets[i].clone()),
                Some((l, lset)) => {
                    let mut conds = std::mem::take(&mut on[i]);
                    if t.query.is_none() {
                        join_conds.retain(|c| match split_join_cond(c, &lset, &sets[i]) {
                            Some(c) => {
                                conds.push(c);
                                false
                            }
                            None => true,
                        });
                    }
                    let residual = std::mem::take(&mut res[i]).into_iter().reduce(Expr::and);
                    let kind = if t.outer {
                        JoinKind::LeftOuter
                    } else {
                        JoinKind::Inner
                    };
                    let op = if conds.is_empty() && residual.is_none() && !t.outer {
                        Operator::Product
                    } else {
                        Operator::Join {
                            kind,
                            on: conds,
                            residual,
                        }
                    };
                    (tree.plan.add(op, vec![l, node]), lset.union(&sets[i]))
                }
            });
        }
        let (mut cur, _) = cur.expect("the parser reads at least one FROM item");
        // Any join condition never absorbed becomes a residual selection,
        // as do multi-relation non-equi conjuncts.
        if let Some(pred) = residual.into_iter().chain(join_conds).reduce(Expr::and) {
            cur = tree.plan.add(Operator::Select { pred }, vec![cur]);
        }

        // ---- [NOT] EXISTS / [NOT] IN subqueries as Semi/Anti joins ---------
        for (lhs, query, negated) in subs {
            if lhs.is_some() && negated {
                return Err(AlgebraError::Semantic(
                    "NOT IN (SELECT …) is refused: it returns no row once the subquery yields \
                     a NULL, which an anti join does not; write NOT EXISTS with the equality"
                        .into(),
                ));
            }
            let mut inner = Builder::new(self.catalog, query);
            let (node, inner_set, outer) = inner.build(tree, false)?;
            let mut conds = Vec::new();
            if let Some(lhs) = lhs {
                let first = query.items.first().map(|i| inner.lower_scalar(&i.expr));
                match (self.lower_scalar(lhs)?, first.transpose()?) {
                    (Expr::Col(x), Some(Expr::Col(y))) => conds.push((x, CmpOp::Eq, y)),
                    _ => {
                        return Err(AlgebraError::Semantic(
                            "IN (SELECT …) compares a column with the subquery's first column"
                                .into(),
                        ))
                    }
                }
            }
            let mut residual = Vec::new();
            for e in outer {
                match split_join_cond(&e, &own, &inner_set) {
                    Some(c) if c.1 == CmpOp::Eq => conds.push(c),
                    _ => residual.push(e),
                }
            }
            let op = Operator::Join {
                kind: if negated {
                    JoinKind::Anti
                } else {
                    JoinKind::Semi
                },
                on: conds,
                residual: residual.into_iter().reduce(Expr::and),
            };
            cur = tree.plan.add(op, vec![cur, node]);
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
                            cur = tree.plan.add(
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
                self.collect_aggs(&item.expr, &keys, item.alias.as_deref())?;
            }
            if let Some(h) = &self.stmt.having {
                self.collect_aggs(h, &keys, None)?;
            }
            for (e, _) in &self.stmt.order_by {
                self.collect_aggs(e, &keys, None)?;
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
            cur = tree.plan.add(
                Operator::GroupBy {
                    keys,
                    aggs: self.aggs.clone(),
                },
                vec![cur],
            );
            if let Some(h) = &self.stmt.having {
                let pred = self.lower_with_agg_refs(h)?;
                cur = tree.plan.add(Operator::Having { pred }, vec![cur]);
            }
        } else if self.stmt.having.is_some() {
            return Err(AlgebraError::Semantic("HAVING requires aggregation".into()));
        }

        // ---- order by / limit / final projection ------------------------
        let plain = top && !has_aggs && self.stmt.group_by.is_empty();
        let mut sort_keys = (self.stmt.order_by.iter())
            .map(|(e, asc)| Ok((self.lower_with_agg_refs(e)?, *asc)))
            .collect::<Result<Vec<_>>>()?;
        // A sort key over the projected tuples must be a listed plain
        // column or a select item's alias: a µ node writes a computed
        // item into its first input attribute, so an expression key
        // would be evaluated over the µ's output.
        let early = plain && {
            let listed = (self.stmt.items.iter())
                .map(|i| self.lower_scalar(&i.expr))
                .collect::<Result<Vec<_>>>()?;
            (self.stmt.order_by.iter().zip(&sort_keys)).all(|((e, _), (k, _))| match e {
                AstExpr::Col(n) => self.aliases.contains_key(n) || listed.contains(k),
                _ => false,
            })
        };
        if early {
            cur = self.project(tree, cur)?;
        } else if plain {
            // The sort runs before the µ nodes: an alias key sorts by
            // its item's own expression.
            for ((e, _), (k, _)) in self.stmt.order_by.iter().zip(&mut sort_keys) {
                let alias = match e {
                    AstExpr::Col(n) => self.aliases.get(n),
                    _ => None,
                };
                if let Some(&idx) = alias {
                    *k = self.item(idx, None)?;
                }
            }
        }
        if !sort_keys.is_empty() {
            cur = tree.plan.add(Operator::Sort { keys: sort_keys }, vec![cur]);
        }
        if let Some(n) = self.stmt.limit {
            cur = tree.plan.add(Operator::Limit { n }, vec![cur]);
        }
        if plain && !early {
            cur = self.project(tree, cur)?;
        }
        Ok((cur, own, correlated))
    }

    /// Project a plain query to its select list, materializing computed
    /// items as µ nodes.
    fn project(&self, tree: &mut Tree, mut cur: NodeId) -> Result<NodeId> {
        let mut attrs = Vec::new();
        let mut all_plain = true;
        for item in &self.stmt.items {
            match self.lower_scalar(&item.expr)? {
                Expr::Col(a) => attrs.push(a),
                computed => {
                    let inputs: Vec<AttrId> = computed.attrs().iter().collect();
                    if let Some(&out) = inputs.first() {
                        cur = tree.plan.add(
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
        let target: AttrSet = attrs.iter().copied().collect();
        if all_plain && target != tree.plan.schemas()[cur.index()] && !attrs.is_empty() {
            cur = tree.plan.add(Operator::Project { attrs }, vec![cur]);
        }
        Ok(cur)
    }
    fn statement_has_aggregates(&self) -> bool {
        self.stmt.items.iter().any(|i| contains_agg(&i.expr))
            || self.stmt.having.as_ref().is_some_and(contains_agg)
            || self.stmt.order_by.iter().any(|(e, _)| contains_agg(e))
    }

    /// Select item `idx` lowered with its names read as columns, never
    /// as aliases.
    fn item(&self, idx: usize, aggs: Option<&Vec<AggExpr>>) -> Result<Expr> {
        let columns = Builder {
            aliases: HashMap::new(),
            aggs: Vec::new(),
            ..*self
        };
        columns.lower(&self.stmt.items[idx].expr, aggs)
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
                // An item's own names are columns, never aliases: `S AS
                // S` must not resolve through itself.
                if let Some(&idx) = self.aliases.get(name) {
                    if !contains_agg(&self.stmt.items[idx].expr) {
                        let lowered = self.item(idx, None)?;
                        return Ok(match lowered.attrs().iter().next() {
                            Some(a) => Expr::Col(a),
                            None => lowered,
                        });
                    } else if aggs.is_some() {
                        return self.item(idx, aggs);
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
            AstExpr::Agg(..) | AstExpr::CountStar => {
                let Some(list) = aggs else {
                    return Err(AlgebraError::Semantic(
                        "aggregate in scalar-only context".into(),
                    ));
                };
                let (func, input) = match e {
                    AstExpr::Agg(f, inner) => (*f, self.lower_scalar(inner)?),
                    _ => (AggFunc::Count, Expr::Lit(Value::Int(1))),
                };
                let pos = (list.iter())
                    .position(|a| a.func == func && a.input == input)
                    .ok_or_else(|| AlgebraError::Semantic("aggregate not registered".into()))?;
                Expr::AggRef(pos)
            }
            AstExpr::Sub(..) => {
                return Err(AlgebraError::Semantic(
                    "a subquery stands only as a WHERE conjunct".into(),
                ))
            }
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

    /// The aggregate `f(inner)`, its output named `alias` when that is
    /// one of its input attributes, else its first input attribute, else
    /// the first group key.
    fn make_agg(
        &self,
        f: AggFunc,
        inner: &AstExpr,
        keys: &[AttrId],
        alias: Option<&str>,
    ) -> Result<AggExpr> {
        let input = self.lower_scalar(inner)?;
        let ins = input.attrs();
        let named = alias.and_then(|a| self.catalog.attr(a).ok());
        let output = (named.filter(|a| ins.contains(*a)))
            .or_else(|| ins.iter().next())
            .or_else(|| keys.first().copied())
            .ok_or_else(|| AlgebraError::Semantic("aggregate references no attribute".into()))?;
        Ok(AggExpr {
            func: f,
            input,
            output,
        })
    }

    fn collect_aggs(&mut self, e: &AstExpr, keys: &[AttrId], alias: Option<&str>) -> Result<()> {
        let ag = match e {
            AstExpr::Agg(f, inner) => self.make_agg(*f, inner, keys, alias)?,
            AstExpr::CountStar => AggExpr::count_star(keys.first().copied().ok_or_else(|| {
                AlgebraError::Semantic("count(*) without GROUP BY keys needs a named column".into())
            })?),
            other => {
                for c in other.children() {
                    self.collect_aggs(c, keys, None)?;
                }
                return Ok(());
            }
        };
        if !(self.aggs.iter()).any(|a| a.func == ag.func && a.input == ag.input) {
            self.aggs.push(ag);
        }
        Ok(())
    }
}

enum IntervalOr {
    Expr(Expr),
    Interval(i64, IntervalUnit),
}

/// `d ± n unit`, refused when the result leaves the date range.
fn apply_interval(d: Date, n: i64, u: IntervalUnit, op: ArithOp) -> Result<Date> {
    let n = match op {
        ArithOp::Add => Some(n),
        ArithOp::Sub => n.checked_neg(),
        _ => return Err(AlgebraError::Semantic("INTERVAL only supports +/-".into())),
    };
    let folded = n.and_then(|n| match u {
        IntervalUnit::Day => d.add_days(n),
        IntervalUnit::Month => d.add_months(n),
        IntervalUnit::Year => d.add_years(n),
    });
    folded.ok_or_else(|| {
        AlgebraError::Semantic(format!(
            "{d} {op} INTERVAL {n:?} {u:?} leaves the date range"
        ))
    })
}

/// The conjuncts of a `WHERE`, before lowering.
fn ast_conjuncts(e: &AstExpr) -> Vec<&AstExpr> {
    match e {
        AstExpr::And(v) => v.iter().flat_map(ast_conjuncts).collect(),
        other => vec![other],
    }
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

fn contains_agg(e: &AstExpr) -> bool {
    matches!(e, AstExpr::Agg(..) | AstExpr::CountStar) || e.children().into_iter().any(contains_agg)
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
    /// A catalog of three relations, `t2` an alias relation of `t`.
    fn three() -> Catalog {
        let mut cat = Catalog::new();
        let int = crate::DataType::Int;
        cat.add_relation("t", &[("a", int), ("b", crate::DataType::Date)])
            .unwrap();
        cat.add_relation("t2", &[("a2", int), ("b2", crate::DataType::Date)])
            .unwrap();
        cat.add_relation("u", &[("c", int), ("d", int)]).unwrap();
        cat
    }

    /// A date past its month's end and interval arithmetic past the
    /// date range are typed errors, never a silently different date.
    #[test]
    fn bad_dates_are_refused_at_plan_time() {
        let cat = three();
        let err = plan_sql(&cat, "select a from t where b < date '1995-02-30'").unwrap_err();
        assert!(matches!(err, AlgebraError::Parse { .. }), "{err}");
        for interval in [
            "'4294967296' day",
            "'2147483647' year",
            "'9223372036854775807' month",
        ] {
            let sql = format!("select a from t where b > date '1995-01-01' + interval {interval}");
            let err = plan_sql(&cat, &sql).unwrap_err();
            assert!(
                matches!(err, AlgebraError::Semantic(_)),
                "{interval}: {err}"
            );
        }
        let sql =
            "select a from t where b > date '1995-01-01' - interval '-9223372036854775808' day";
        assert!(matches!(
            plan_sql(&cat, sql),
            Err(AlgebraError::Semantic(_))
        ));
    }

    /// A relation named twice in one statement, subqueries included, is
    /// refused with the alias relation to scan instead.
    #[test]
    fn a_relation_named_twice_is_refused() {
        let cat = three();
        for sql in [
            "select a from t, t",
            "select a from t where exists (select * from t where a = 1)",
            "select a from t, (select c from u, t) v",
        ] {
            let err = plan_sql(&cat, sql).unwrap_err();
            assert!(
                matches!(&err, AlgebraError::Semantic(m) if m.contains("relation t ") && m.contains("t2")),
                "{sql}: {err}"
            );
        }
        assert!(plan_sql(&cat, "select a from t, t2 where a = a2").is_ok());
    }

    /// Subqueries: EXISTS / IN become semi joins after the FROM joins, a
    /// correlated equality their condition and any other correlated
    /// conjunct their residual; NOT EXISTS becomes an anti join.
    #[test]
    fn subqueries_become_semi_and_anti_joins() {
        let cat = three();
        let plan = plan_sql(
            &cat,
            "select a from t, u where a = c \
             and exists (select * from t2 where a2 = a and b2 > b) \
             and d not in (select a2 from t2)",
        );
        assert!(plan.is_err(), "t2 twice");
        let plan = plan_sql(
            &cat,
            "select a from t, u where a = c and exists (select * from t2 where a2 = a and b2 > b)",
        )
        .unwrap();
        assert_eq!(ops(&plan), vec!["Base", "Base", "⋈", "Base", "⋈", "π"]);
        let semi = plan.node(plan.node(plan.root()).children[0]);
        let [a, a2, b, b2] = ["a", "a2", "b", "b2"].map(|n| cat.attr(n).unwrap());
        assert_eq!(
            semi.op,
            Op::Join {
                kind: JoinKind::Semi,
                on: vec![(a, CmpOp::Eq, a2)],
                residual: Some(Expr::cmp(Expr::Col(b2), CmpOp::Gt, Expr::Col(b))),
            }
        );
        let plan = plan_sql(
            &cat,
            "select c from u where not exists (select * from t where a = c) \
                                   and not exists (select * from t2 where a2 = d)",
        )
        .unwrap();
        let kinds: Vec<JoinKind> = (plan.postorder().into_iter())
            .filter_map(|id| match plan.node(id).op {
                Op::Join { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![JoinKind::Anti, JoinKind::Anti]);
    }

    /// `x NOT IN (SELECT y …)` returns no row once a `y` is NULL, which
    /// an anti join does not reproduce, so it is refused; `SELECT *` is
    /// read only in a subquery.
    #[test]
    fn not_in_a_subquery_and_a_top_level_star_are_refused() {
        let cat = three();
        for sql in [
            "select c from u where d not in (select a2 from t2)",
            "select c from u where not d in (select a2 from t2)",
            "select * from u where c = 1",
            "select * from u",
        ] {
            let err = plan_sql(&cat, sql).unwrap_err();
            assert!(matches!(err, AlgebraError::Semantic(_)), "{sql}: {err}");
        }
        assert!(plan_sql(&cat, "select c from u where d in (select a2 from t2)").is_ok());
    }

    /// Derived tables join through their `ON` only, else as a product
    /// under a selection; a `LEFT OUTER JOIN`'s right-only conjunct is
    /// pushed below it; node ids come out in postorder.
    #[test]
    fn derived_tables_and_outer_joins() {
        let cat = three();
        let plan = plan_sql(
            &cat,
            "select a, c from t, (select c, sum(d) from u group by c) s where a = c",
        )
        .unwrap();
        assert_eq!(ops(&plan), vec!["Base", "Base", "γ", "×", "σ", "π"]);
        let plan = plan_sql(
            &cat,
            "select a from t join (select c, sum(d) from u group by c) s on a = c",
        )
        .unwrap();
        assert_eq!(ops(&plan), vec!["Base", "Base", "γ", "⋈", "π"]);
        let plan = plan_sql(
            &cat,
            "select a, c from t left outer join u on a = c and d > 3",
        )
        .unwrap();
        assert_eq!(ops(&plan), vec!["Base", "Base", "σ", "⋈", "π"]);
        let join = plan.node(plan.node(plan.root()).children[0]);
        assert!(matches!(
            join.op,
            Op::Join {
                kind: JoinKind::LeftOuter,
                ..
            }
        ));
        let order = plan.postorder();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
    }

    /// A `WHERE` conjunct over the right side of a `LEFT OUTER JOIN` —
    /// alone, or compared with the left — filters the null-extended
    /// rows, so it stays in the selection above the join; one over the
    /// left side alone is still pushed below.
    #[test]
    fn where_over_an_outer_join_stays_above_it() {
        let cat = three();
        let [a, c, d] = ["a", "c", "d"].map(|n| cat.attr(n).unwrap());
        for (sql, pred) in [
            (
                "select a, c from t left outer join u on a = c where d > 3",
                Expr::cmp(Expr::Col(d), CmpOp::Gt, Expr::Lit(Value::Int(3))),
            ),
            (
                "select a from t left outer join u on a = c where d is null",
                Expr::IsNull {
                    expr: Box::new(Expr::Col(d)),
                    negated: false,
                },
            ),
            (
                "select a from t left outer join u on a = c where a < d",
                Expr::cmp(Expr::Col(a), CmpOp::Lt, Expr::Col(d)),
            ),
        ] {
            let plan = plan_sql(&cat, sql).unwrap();
            assert_eq!(ops(&plan), vec!["Base", "Base", "⋈", "σ", "π"], "{sql}");
            let sel = plan.node(plan.node(plan.root()).children[0]);
            assert_eq!(sel.op, Op::Select { pred }, "{sql}");
            let join = plan.node(sel.children[0]);
            let on = vec![(a, CmpOp::Eq, c)];
            assert!(
                matches!(&join.op, Op::Join { kind: JoinKind::LeftOuter, on: o, residual: None } if *o == on),
                "{sql}"
            );
        }
        let plan = plan_sql(
            &cat,
            "select a from t left outer join u on a = c where a > 3",
        )
        .unwrap();
        assert_eq!(ops(&plan), vec!["Base", "σ", "Base", "⋈", "π"]);
    }

    /// An alias naming a column, its own included, resolves through its
    /// item once, so a cycle of aliases cannot recurse forever.
    #[test]
    fn aliases_resolve_to_columns_only() {
        let cat = Catalog::paper_running_example();
        for sql in [
            "select S as S from Hosp order by S",
            "select S as T, T as S from Hosp order by S, T",
            "select D as x, count(*) from Hosp group by x order by x",
        ] {
            plan_sql(&cat, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    /// A plain query projects before its sort when every sort key is
    /// listed, and after it otherwise.
    #[test]
    fn projection_before_a_listed_sort() {
        let cat = three();
        let plan = plan_sql(
            &cat,
            "select a from t where b > date '1995-01-01' order by a",
        )
        .unwrap();
        assert_eq!(ops(&plan), vec!["Base", "σ", "π", "sort"]);
        let plan = plan_sql(&cat, "select a from t order by b limit 3").unwrap();
        assert_eq!(ops(&plan), vec!["Base", "sort", "limit", "π"]);
        // A computed key is evaluated over the relation's own columns,
        // before the µ node overwrites them; an alias names the µ output.
        let plan = plan_sql(&cat, "select 0 - a from t order by 0 - a").unwrap();
        assert_eq!(ops(&plan), vec!["Base", "sort", "µ"]);
        let plan = plan_sql(&cat, "select 0 - a as x from t order by x").unwrap();
        assert_eq!(ops(&plan), vec!["Base", "µ", "sort"]);
        // Sorted before the µ node, an alias key is its item's expression.
        let plan = plan_sql(&cat, "select 0 - a as x from t order by x, 0 - a").unwrap();
        assert_eq!(ops(&plan), vec!["Base", "sort", "µ"]);
        let sort = plan.node(plan.node(plan.root()).children[0]);
        let neg = Expr::arith(
            Expr::Lit(Value::Int(0)),
            ArithOp::Sub,
            Expr::Col(cat.attr("a").unwrap()),
        );
        assert_eq!(
            sort.op,
            Op::Sort {
                keys: vec![(neg.clone(), true), (neg, true)]
            }
        );
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
