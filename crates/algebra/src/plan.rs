//! Logical query plans.
//!
//! A [`QueryPlan`] is an arena-allocated operator tree whose leaves are
//! (projections of) base relations and whose internal nodes are the
//! operators of the paper's algebra: projection, selection, cartesian
//! product, join, group-by, user-defined function, and the
//! encryption/decryption operators injected by the authorization layer
//! (§5 of the paper). `Sort` and `Limit` are profile-neutral extras
//! needed to express TPC-H plans.
//!
//! The arena representation (rather than `Box`-nested nodes) lets the
//! authorization layer key per-node data (profiles, candidate sets,
//! assignments, cost tables) by [`NodeId`] and splice encryption /
//! decryption nodes onto edges in O(1).
//!
//! The paper's last selection `σ avg(P)>100` stands on `γ T,avg(P)` and
//! names the aggregate's output; here that reference is positional
//! ([`Expr::AggRef`]), and an extension may splice `decrypt P` between
//! the two (Fig. 7). Which γ a `HAVING` predicate or a sort key stands
//! on is answered in one place, [`QueryPlan::agg_scope`]; the
//! [`AggScope`] it returns says where the outputs lie
//! ([`AggScope::base`]), what `AggRef(i)` names ([`AggScope::output`],
//! bounds-checked) and how the expression reads over the γ's output
//! attributes ([`AggScope::resolve`]). [`QueryPlan::validate`] refuses
//! a reference no γ in scope answers.

use crate::attrset::AttrSet;
use crate::catalog::Catalog;
use crate::error::{AlgebraError, Result};
use crate::expr::{AggExpr, CmpOp, Expr};
use crate::ids::{AttrId, NodeId, RelId};
use std::fmt::Write as _;

/// Join variants. All variants share the paper's profile rule (the
/// join condition establishes equivalence classes); they differ in the
/// output schema and execution semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Inner equi-/theta-join.
    Inner,
    /// Left outer join (TPC-H Q13).
    LeftOuter,
    /// Left semi-join (EXISTS / IN subqueries, Q4).
    Semi,
    /// Left anti-join (NOT EXISTS / NOT IN, Q16, Q21, Q22).
    Anti,
}

impl JoinKind {
    /// `true` if the right input's columns appear in the output.
    pub fn keeps_right(self) -> bool {
        matches!(self, JoinKind::Inner | JoinKind::LeftOuter)
    }
}

/// A plan operator.
#[derive(Clone, Debug, PartialEq)]
pub enum Operator {
    /// Leaf: the projection of a base relation, held by its data
    /// authority. The paper represents leaves as "(the projection of) a
    /// source relation" — projection pushdown is baked into the leaf.
    Base {
        /// Base relation.
        rel: RelId,
        /// Projected attributes, in output order.
        attrs: Vec<AttrId>,
    },
    /// π — projection onto a subset of the input attributes.
    Project {
        /// Retained attributes, in output order.
        attrs: Vec<AttrId>,
    },
    /// σ — selection by an arbitrary predicate. The profile layer
    /// decomposes the predicate into constant comparisons and
    /// attribute-attribute comparisons (Fig. 2 rules).
    Select {
        /// Predicate.
        pred: Expr,
    },
    /// × — cartesian product.
    Product,
    /// ⋈ — join on a conjunction of attribute comparisons, optionally
    /// with an extra residual predicate over the combined schema.
    Join {
        /// Join variant.
        kind: JoinKind,
        /// Equi-/theta-conditions `l op r` with `l` from the left input
        /// and `r` from the right input.
        on: Vec<(AttrId, CmpOp, AttrId)>,
        /// Residual predicate evaluated on joined rows.
        residual: Option<Expr>,
    },
    /// γ — group-by with aggregates. With an empty key list this is a
    /// scalar aggregation (whole input = one group).
    GroupBy {
        /// Grouping attributes.
        keys: Vec<AttrId>,
        /// Aggregates (outputs named after input attributes, per the
        /// paper's renaming simplification).
        aggs: Vec<AggExpr>,
    },
    /// Predicate over a `GroupBy` result that may reference aggregate
    /// outputs positionally via [`Expr::AggRef`] (SQL `HAVING`).
    Having {
        /// Predicate; `AggRef(i)` refers to the i-th aggregate of the
        /// child group-by.
        pred: Expr,
    },
    /// µ — user-defined function elaborating attributes `inputs` and
    /// emitting an attribute named `output` (∈ `inputs`).
    Udf {
        /// Display name.
        name: String,
        /// Consumed attributes.
        inputs: Vec<AttrId>,
        /// Output attribute (must appear in `inputs`).
        output: AttrId,
        /// Optional executable body; opaque udfs are cost-model-only.
        body: Option<Expr>,
    },
    /// On-the-fly encryption of a set of attributes (§5).
    Encrypt {
        /// Attributes to encrypt.
        attrs: Vec<AttrId>,
    },
    /// On-the-fly decryption of a set of attributes (§5).
    Decrypt {
        /// Attributes to decrypt.
        attrs: Vec<AttrId>,
    },
    /// ORDER BY (profile-neutral).
    Sort {
        /// Sort keys with ascending flags; `Expr` so aggregate outputs
        /// can be referenced.
        keys: Vec<(Expr, bool)>,
    },
    /// LIMIT (profile-neutral).
    Limit {
        /// Row cap.
        n: u64,
    },
}

impl Operator {
    /// Number of children this operator requires.
    pub fn arity(&self) -> usize {
        match self {
            Operator::Base { .. } => 0,
            Operator::Product | Operator::Join { .. } => 2,
            _ => 1,
        }
    }

    /// Short operator name for display.
    pub fn name(&self) -> &'static str {
        match self {
            Operator::Base { .. } => "Base",
            Operator::Project { .. } => "π",
            Operator::Select { .. } => "σ",
            Operator::Product => "×",
            Operator::Join { .. } => "⋈",
            Operator::GroupBy { .. } => "γ",
            Operator::Having { .. } => "σᵧ",
            Operator::Udf { .. } => "µ",
            Operator::Encrypt { .. } => "encrypt",
            Operator::Decrypt { .. } => "decrypt",
            Operator::Sort { .. } => "sort",
            Operator::Limit { .. } => "limit",
        }
    }
}

/// A node of the plan arena.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanNode {
    /// The operator at this node.
    pub op: Operator,
    /// Children (operands), left to right.
    pub children: Vec<NodeId>,
}

/// The γ in scope at a node ([`QueryPlan::agg_scope`]): what the
/// positional [`Expr::AggRef`]s of a `HAVING` predicate or a sort key
/// stand for.
#[derive(Clone, Copy, Debug, Default)]
pub struct AggScope<'a> {
    keys: &'a [AttrId],
    aggs: &'a [AggExpr],
}

impl<'a> AggScope<'a> {
    /// Column of the γ's first aggregate output: its rows are the
    /// grouping keys, then the aggregates — the evaluator's `agg_base`.
    pub fn base(&self) -> usize {
        self.keys.len()
    }

    /// The aggregate `AggRef(i)` names; `None` when `i` is out of range.
    pub fn output(&self, i: usize) -> Option<&'a AggExpr> {
        self.aggs.get(i)
    }

    /// `e` with every `AggRef(i)` replaced by the attribute that names
    /// the i-th aggregate's output (the paper's renaming: `avg(P)` is
    /// called `P`), so a `HAVING` predicate reads as an ordinary
    /// selection over the γ's result. Total: a reference out of range
    /// stays as written — [`QueryPlan::validate`] is what refuses it.
    pub fn resolve(&self, e: &Expr) -> Expr {
        e.map(|e| match e {
            Expr::AggRef(i) => self.output(*i).map(|ag| Expr::Col(ag.output)),
            _ => None,
        })
    }

    /// Whether every `AggRef` in `e` names an aggregate of this γ.
    fn covers(&self, e: &Expr) -> bool {
        match e {
            Expr::AggRef(i) => self.output(*i).is_some(),
            _ => e.children().into_iter().all(|c| self.covers(c)),
        }
    }
}

/// An operator tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryPlan {
    nodes: Vec<PlanNode>,
    root: Option<NodeId>,
}

impl QueryPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; the last node added is the root unless
    /// [`QueryPlan::set_root`] overrides it.
    pub fn add(&mut self, op: Operator, children: Vec<NodeId>) -> NodeId {
        debug_assert_eq!(op.arity(), children.len(), "operator arity mismatch");
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(PlanNode { op, children });
        self.root = Some(id);
        id
    }

    /// Leaf helper.
    pub fn add_base(&mut self, rel: RelId, attrs: Vec<AttrId>) -> NodeId {
        self.add(Operator::Base { rel, attrs }, vec![])
    }

    /// Explicitly set the root.
    pub fn set_root(&mut self, root: NodeId) {
        self.root = Some(root);
    }

    /// Root node id. Panics on an empty plan.
    pub fn root(&self) -> NodeId {
        self.root.expect("empty plan")
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.index()]
    }

    /// Mutable node accessor.
    pub fn node_mut(&mut self, id: NodeId) -> &mut PlanNode {
        &mut self.nodes[id.index()]
    }

    /// Number of nodes (including detached ones after splicing).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no node was added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of nodes reachable from the root in post-order (children
    /// before parents) — the paper's visit order for candidate
    /// computation and plan extension.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        // Iterative post-order; (node, child_cursor) stack.
        let mut stack = vec![(self.root(), 0usize)];
        while let Some((id, cursor)) = stack.pop() {
            let kids = &self.nodes[id.index()].children;
            if cursor < kids.len() {
                stack.push((id, cursor + 1));
                stack.push((kids[cursor], 0));
            } else {
                out.push(id);
            }
        }
        out
    }

    /// The node feeding `id` after looking through the
    /// schema-preserving `Encrypt`/`Decrypt` operators that plan
    /// extension splices in, so extended plans behave exactly like
    /// their originals. The γ a `HAVING` or a sort stands on is found
    /// by [`QueryPlan::agg_scope`], which is built on this.
    pub fn through_crypto(&self, mut id: NodeId) -> NodeId {
        loop {
            match &self.nodes[id.index()].op {
                Operator::Encrypt { .. } | Operator::Decrypt { .. } => {
                    id = self.nodes[id.index()].children[0];
                }
                _ => return id,
            }
        }
    }

    /// The γ whose outputs an [`Expr::AggRef`] at node `id` names: the
    /// `GroupBy` reached from the node's first operand through the
    /// operators that keep a group-by's row layout — spliced
    /// `Encrypt`/`Decrypt`, and a `Having` (a sort may stand on a
    /// `HAVING` that stands on the γ). A `Having` itself stands on its
    /// γ directly, with only crypto between them: [`QueryPlan::validate`]
    /// refuses a stacked one. `None` away from any γ. This is the only
    /// place that walks from a node down to "its" group-by; it borrows
    /// the γ's lists and allocates nothing.
    pub fn agg_scope(&self, id: NodeId) -> Option<AggScope<'_>> {
        let node = self.node(id);
        let from_having = matches!(node.op, Operator::Having { .. });
        let mut below = *node.children.first()?;
        loop {
            below = self.through_crypto(below);
            match &self.node(below).op {
                Operator::Having { .. } if !from_having => below = self.node(below).children[0],
                Operator::GroupBy { keys, aggs } => return Some(AggScope { keys, aggs }),
                _ => return None,
            }
        }
    }

    /// Parent of each reachable node (`None` for the root and for
    /// detached nodes).
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let mut p = vec![None; self.nodes.len()];
        for id in self.postorder() {
            for &c in &self.nodes[id.index()].children {
                p[c.index()] = Some(id);
            }
        }
        p
    }

    /// Splice a new single-child operator onto the edge above `child`:
    /// the new node adopts `child`, and whatever referenced `child`
    /// (its parent, or the root slot) now references the new node.
    pub fn splice_above(&mut self, child: NodeId, op: Operator) -> NodeId {
        debug_assert_eq!(op.arity(), 1);
        let parent = self.parents()[child.index()];
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(PlanNode {
            op,
            children: vec![child],
        });
        match parent {
            Some(p) => {
                for c in &mut self.nodes[p.index()].children {
                    if *c == child {
                        *c = id;
                        break; // only the first edge; trees have one edge per child
                    }
                }
            }
            None => self.root = Some(id),
        }
        id
    }

    /// The *visible* attribute schema of every node (what the paper
    /// calls `R^vp ∪ R^ve` — the attributes in the relation's schema).
    /// Indexed by `NodeId`; detached nodes keep their last schema.
    pub fn schemas(&self) -> Vec<AttrSet> {
        let mut out = vec![AttrSet::new(); self.nodes.len()];
        for id in self.postorder() {
            let node = &self.nodes[id.index()];
            let schema = match &node.op {
                Operator::Base { attrs, .. } | Operator::Project { attrs } => {
                    attrs.iter().copied().collect()
                }
                Operator::Select { .. }
                | Operator::Having { .. }
                | Operator::Encrypt { .. }
                | Operator::Decrypt { .. }
                | Operator::Sort { .. }
                | Operator::Limit { .. } => out[node.children[0].index()].clone(),
                Operator::Product => {
                    out[node.children[0].index()].union(&out[node.children[1].index()])
                }
                Operator::Join { kind, .. } => {
                    if kind.keeps_right() {
                        out[node.children[0].index()].union(&out[node.children[1].index()])
                    } else {
                        out[node.children[0].index()].clone()
                    }
                }
                Operator::GroupBy { keys, aggs } => {
                    let mut s: AttrSet = keys.iter().copied().collect();
                    for a in aggs {
                        s.insert(a.output);
                    }
                    s
                }
                Operator::Udf { inputs, output, .. } => {
                    let mut s = out[node.children[0].index()].clone();
                    for a in inputs {
                        if a != output {
                            s.remove(*a);
                        }
                    }
                    s.insert(*output);
                    s
                }
            };
            out[id.index()] = schema;
        }
        out
    }

    /// Structural validation: arities, tree-ness (every reachable node
    /// has exactly one parent), attribute scoping (operators only
    /// reference attributes visible in their operands), and aggregate
    /// output naming.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        if self.root.is_none() {
            return Err(AlgebraError::InvalidPlan("empty plan".into()));
        }
        let order = self.postorder();
        let mut seen = vec![0u32; self.nodes.len()];
        for &id in &order {
            for &c in &self.nodes[id.index()].children {
                seen[c.index()] += 1;
                if seen[c.index()] > 1 {
                    return Err(AlgebraError::InvalidPlan(format!(
                        "node {c} has multiple parents"
                    )));
                }
            }
        }
        let schemas = self.schemas();
        let in_schema = |set: &AttrSet, of: NodeId| set.is_subset(&schemas[of.index()]);
        for &id in &order {
            let node = &self.nodes[id.index()];
            if node.op.arity() != node.children.len() {
                return Err(AlgebraError::InvalidPlan(format!(
                    "node {id}: arity mismatch"
                )));
            }
            let child = |i: usize| node.children[i];
            match &node.op {
                Operator::Base { rel, attrs } => {
                    let rel_attrs = catalog.rel(*rel).attr_set();
                    if !attrs.iter().all(|a| rel_attrs.contains(*a)) {
                        return Err(AlgebraError::InvalidPlan(format!(
                            "node {id}: base projection outside relation schema"
                        )));
                    }
                }
                Operator::Project { attrs } => {
                    let set: AttrSet = attrs.iter().copied().collect();
                    if !in_schema(&set, child(0)) {
                        return Err(AlgebraError::InvalidPlan(format!(
                            "node {id}: projection of non-visible attributes"
                        )));
                    }
                }
                Operator::Select { pred } | Operator::Having { pred } => {
                    if !in_schema(&pred.attrs(), child(0)) {
                        return Err(AlgebraError::InvalidPlan(format!(
                            "node {id}: predicate references non-visible attributes"
                        )));
                    }
                    if let Operator::Having { .. } = node.op {
                        // Through spliced crypto operators: an extended
                        // plan may interpose Encrypt/Decrypt between
                        // HAVING and its GROUP BY.
                        let Some(scope) = self.agg_scope(id) else {
                            return Err(AlgebraError::InvalidPlan(format!(
                                "node {id}: HAVING over a non-GroupBy child"
                            )));
                        };
                        if !scope.covers(pred) {
                            return Err(AlgebraError::InvalidPlan(format!(
                                "node {id}: HAVING references an aggregate its GROUP BY lacks"
                            )));
                        }
                    }
                }
                Operator::Product => {}
                Operator::Join { on, residual, .. } => {
                    for (l, _, r) in on {
                        if !schemas[child(0).index()].contains(*l)
                            || !schemas[child(1).index()].contains(*r)
                        {
                            return Err(AlgebraError::InvalidPlan(format!(
                                "node {id}: join keys not visible in respective operands"
                            )));
                        }
                    }
                    if let Some(res) = residual {
                        let combined = schemas[child(0).index()].union(&schemas[child(1).index()]);
                        if !res.attrs().is_subset(&combined) {
                            return Err(AlgebraError::InvalidPlan(format!(
                                "node {id}: residual references non-visible attributes"
                            )));
                        }
                    }
                }
                Operator::GroupBy { keys, aggs } => {
                    let key_set: AttrSet = keys.iter().copied().collect();
                    if !in_schema(&key_set, child(0)) {
                        return Err(AlgebraError::InvalidPlan(format!(
                            "node {id}: group keys not visible"
                        )));
                    }
                    for ag in aggs {
                        if !in_schema(&ag.input.attrs(), child(0)) {
                            return Err(AlgebraError::InvalidPlan(format!(
                                "node {id}: aggregate input not visible"
                            )));
                        }
                        let ins = ag.input.attrs();
                        if !ins.contains(ag.output)
                            && !key_set.contains(ag.output)
                            && !ins.is_empty()
                        {
                            return Err(AlgebraError::InvalidPlan(format!(
                                "node {id}: aggregate output {} must be named after an input or key attribute",
                                ag.output
                            )));
                        }
                        if ins.is_empty() && !schemas[child(0).index()].contains(ag.output) {
                            return Err(AlgebraError::InvalidPlan(format!(
                                "node {id}: count(*) output must reuse a visible attribute name"
                            )));
                        }
                    }
                }
                Operator::Udf { inputs, output, .. } => {
                    let set: AttrSet = inputs.iter().copied().collect();
                    if !in_schema(&set, child(0)) {
                        return Err(AlgebraError::InvalidPlan(format!(
                            "node {id}: udf inputs not visible"
                        )));
                    }
                    if !inputs.contains(output) {
                        return Err(AlgebraError::InvalidPlan(format!(
                            "node {id}: udf output must be named after an input"
                        )));
                    }
                }
                Operator::Encrypt { attrs } | Operator::Decrypt { attrs } => {
                    let set: AttrSet = attrs.iter().copied().collect();
                    if !in_schema(&set, child(0)) {
                        return Err(AlgebraError::InvalidPlan(format!(
                            "node {id}: encrypt/decrypt of non-visible attributes"
                        )));
                    }
                }
                Operator::Sort { keys } => {
                    for (e, _) in keys {
                        if !in_schema(&e.attrs(), child(0)) {
                            return Err(AlgebraError::InvalidPlan(format!(
                                "node {id}: sort key references non-visible attributes"
                            )));
                        }
                        if !self.agg_scope(id).unwrap_or_default().covers(e) {
                            return Err(AlgebraError::InvalidPlan(format!(
                                "node {id}: sort key references an aggregate no GROUP BY in scope has"
                            )));
                        }
                    }
                }
                Operator::Limit { .. } => {}
            }
        }
        Ok(())
    }

    /// Pretty-print the plan as an indented tree, paper-style.
    pub fn display(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        self.fmt_node(self.root(), catalog, 0, &mut out);
        out
    }

    fn fmt_node(&self, id: NodeId, catalog: &Catalog, depth: usize, out: &mut String) {
        let node = &self.nodes[id.index()];
        let indent = "  ".repeat(depth);
        let render = |attrs: &[AttrId]| {
            let set: AttrSet = attrs.iter().copied().collect();
            catalog.render_attrs(&set)
        };
        let label = match &node.op {
            Operator::Base { rel, attrs } => {
                format!("{}[{}]", catalog.rel(*rel).name, render(attrs))
            }
            Operator::Project { attrs } => format!("π {}", render(attrs)),
            Operator::Select { pred } => format!("σ {}", pred.display(catalog)),
            Operator::Having { pred } => format!("σᵧ {}", pred.display(catalog)),
            Operator::Product => "×".to_string(),
            Operator::Join { kind, on, .. } => {
                let conds: Vec<String> = on
                    .iter()
                    .map(|(l, op, r)| {
                        format!("{}{}{}", catalog.attr_name(*l), op, catalog.attr_name(*r))
                    })
                    .collect();
                format!("⋈{:?} {}", kind, conds.join(" AND "))
            }
            Operator::GroupBy { keys, aggs } => {
                let ags: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{}({})", a.func, a.input.display(catalog)))
                    .collect();
                format!("γ {} ; {}", render(keys), ags.join(", "))
            }
            Operator::Udf { name, inputs, .. } => {
                format!("µ {name}({})", render(inputs))
            }
            Operator::Encrypt { attrs } => format!("encrypt {}", render(attrs)),
            Operator::Decrypt { attrs } => format!("decrypt {}", render(attrs)),
            Operator::Sort { .. } => "sort".to_string(),
            Operator::Limit { n } => format!("limit {n}"),
        };
        let _ = writeln!(out, "{indent}{label}");
        for &c in &node.children {
            self.fmt_node(c, catalog, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, CmpOp};
    use crate::value::Value;

    /// Build the paper's running-example plan (Fig. 1a):
    /// σ_{avg(P)>100}(γ_{T,avg(P)}(σ_{D='stroke'}(π_{S,D,T}(Hosp)) ⋈_{S=C} Ins)).
    pub(crate) fn running_example(catalog: &Catalog) -> QueryPlan {
        let hosp = catalog.relation("Hosp").unwrap().rel;
        let ins = catalog.relation("Ins").unwrap().rel;
        let s = catalog.attr("S").unwrap();
        let d = catalog.attr("D").unwrap();
        let t = catalog.attr("T").unwrap();
        let c = catalog.attr("C").unwrap();
        let p = catalog.attr("P").unwrap();

        let mut plan = QueryPlan::new();
        let base_h = plan.add_base(hosp, vec![s, d, t]);
        let sel = plan.add(
            Operator::Select {
                pred: Expr::col_eq(d, Value::str("stroke")),
            },
            vec![base_h],
        );
        let base_i = plan.add_base(ins, vec![c, p]);
        let join = plan.add(
            Operator::Join {
                kind: JoinKind::Inner,
                on: vec![(s, CmpOp::Eq, c)],
                residual: None,
            },
            vec![sel, base_i],
        );
        let gby = plan.add(
            Operator::GroupBy {
                keys: vec![t],
                aggs: vec![AggExpr::over_col(AggFunc::Avg, p)],
            },
            vec![join],
        );
        plan.add(
            Operator::Having {
                pred: Expr::cmp(Expr::AggRef(0), CmpOp::Gt, Expr::Lit(Value::Num(100.0))),
            },
            vec![gby],
        );
        plan
    }

    #[test]
    fn running_example_validates() {
        let c = Catalog::paper_running_example();
        let plan = running_example(&c);
        plan.validate(&c).unwrap();
        assert_eq!(plan.postorder().len(), 6);
    }

    #[test]
    fn schemas_match_paper() {
        let cat = Catalog::paper_running_example();
        let plan = running_example(&cat);
        let schemas = plan.schemas();
        let order = plan.postorder();
        // Root schema: T and P (avg output named P).
        let root_schema = &schemas[plan.root().index()];
        assert_eq!(cat.render_attrs(root_schema), "TP");
        // Join schema: SDTCP.
        let join = order
            .iter()
            .find(|&&id| matches!(plan.node(id).op, Operator::Join { .. }))
            .copied()
            .unwrap();
        assert_eq!(schemas[join.index()].len(), 5);
    }

    #[test]
    fn postorder_children_first() {
        let cat = Catalog::paper_running_example();
        let plan = running_example(&cat);
        let order = plan.postorder();
        let pos: Vec<usize> = (0..plan.len())
            .map(|i| order.iter().position(|n| n.index() == i).unwrap())
            .collect();
        for id in order {
            for &c in &plan.node(id).children {
                assert!(pos[c.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn splice_above_mid_edge() {
        let cat = Catalog::paper_running_example();
        let mut plan = running_example(&cat);
        let d = cat.attr("D").unwrap();
        // Find σ D='stroke' and splice an encrypt above it.
        let sel = plan
            .postorder()
            .into_iter()
            .find(|&id| matches!(plan.node(id).op, Operator::Select { .. }))
            .unwrap();
        let parents_before = plan.parents();
        let old_parent = parents_before[sel.index()].unwrap();
        let enc = plan.splice_above(sel, Operator::Encrypt { attrs: vec![d] });
        let parents = plan.parents();
        assert_eq!(parents[sel.index()], Some(enc));
        assert_eq!(parents[enc.index()], Some(old_parent));
        plan.validate(&cat).unwrap();
    }

    #[test]
    fn splice_above_root() {
        let cat = Catalog::paper_running_example();
        let mut plan = running_example(&cat);
        let root = plan.root();
        let p = cat.attr("P").unwrap();
        let enc = plan.splice_above(root, Operator::Encrypt { attrs: vec![p] });
        assert_eq!(plan.root(), enc);
        plan.validate(&cat).unwrap();
    }

    /// The one γ look-up, from every place a node can stand.
    #[test]
    fn agg_scope_finds_the_group_by_a_node_stands_on() {
        let cat = Catalog::paper_running_example();
        let mut plan = running_example(&cat);
        let (t, p) = (cat.attr("T").unwrap(), cat.attr("P").unwrap());
        let having = plan.root();
        let gby = plan.node(having).children[0];
        let sort = plan.add(
            Operator::Sort {
                keys: vec![(Expr::AggRef(0), false)],
            },
            vec![having],
        );
        let avg_p_over_t = |plan: &QueryPlan, id| {
            let scope = plan.agg_scope(id).expect("a γ in scope");
            assert_eq!(scope.base(), 1);
            assert_eq!(scope.output(0).map(|ag| ag.output), Some(p));
            assert!(
                scope.output(1).is_none(),
                "out of range is None, not a panic"
            );
            assert_eq!(scope.resolve(&Expr::AggRef(0)), Expr::Col(p));
            assert_eq!(scope.resolve(&Expr::AggRef(7)), Expr::AggRef(7));
            assert_eq!(scope.resolve(&Expr::Col(t)), Expr::Col(t));
        };
        // Directly above the γ, and through a Having.
        avg_p_over_t(&plan, having);
        avg_p_over_t(&plan, sort);
        plan.validate(&cat).unwrap();
        // Through the Decrypt + Encrypt an extension splices in.
        plan.splice_above(gby, Operator::Encrypt { attrs: vec![p] });
        plan.splice_above(gby, Operator::Decrypt { attrs: vec![t] });
        avg_p_over_t(&plan, having);
        avg_p_over_t(&plan, sort);
        // Away from any γ — the γ itself, a leaf, the join — there is
        // none; the spliced crypto operators stand on it too.
        for id in plan.postorder() {
            let spliced = id != gby && plan.through_crypto(id) == gby;
            let stands_on_gamma = id == having || id == sort || spliced;
            assert_eq!(plan.agg_scope(id).is_some(), stands_on_gamma, "{id}");
        }
    }

    /// A positional reference the γ in scope cannot answer is refused,
    /// in a HAVING and in a sort key, as is one with no γ in scope.
    #[test]
    fn validate_rejects_agg_refs_out_of_scope() {
        let cat = Catalog::paper_running_example();
        let invalid = |plan: &QueryPlan, what: &str| {
            assert!(
                matches!(plan.validate(&cat), Err(AlgebraError::InvalidPlan(_))),
                "{what}"
            );
        };
        let mut plan = running_example(&cat);
        let having = plan.root();
        let sort_by = |plan: &mut QueryPlan, below, i| {
            let keys = vec![(Expr::AggRef(i), true)];
            plan.add(Operator::Sort { keys }, vec![below]);
        };
        sort_by(&mut plan, having, 0);
        plan.validate(&cat).unwrap();
        sort_by(&mut plan, having, 1);
        invalid(&plan, "sort key past the γ's one aggregate");
        plan.set_root(having);
        plan.node_mut(having).op = Operator::Having {
            pred: Expr::cmp(Expr::AggRef(7), CmpOp::Gt, Expr::Lit(Value::Num(100.0))),
        };
        invalid(&plan, "HAVING past the γ's one aggregate");
        let mut plan = QueryPlan::new();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let b = plan.add_base(hosp, vec![cat.attr("S").unwrap()]);
        sort_by(&mut plan, b, 0);
        invalid(&plan, "sort key with no γ in scope");
    }

    #[test]
    fn validate_rejects_bad_projection() {
        let cat = Catalog::paper_running_example();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let s = cat.attr("S").unwrap();
        let p = cat.attr("P").unwrap(); // belongs to Ins, not Hosp
        let mut plan = QueryPlan::new();
        let b = plan.add_base(hosp, vec![s]);
        plan.add(Operator::Project { attrs: vec![p] }, vec![b]);
        assert!(plan.validate(&cat).is_err());
    }

    #[test]
    fn validate_rejects_shared_node() {
        let cat = Catalog::paper_running_example();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let s = cat.attr("S").unwrap();
        let mut plan = QueryPlan::new();
        let b = plan.add_base(hosp, vec![s]);
        plan.add(Operator::Product, vec![b, b]);
        assert!(matches!(
            plan.validate(&cat),
            Err(AlgebraError::InvalidPlan(msg)) if msg.contains("multiple parents")
        ));
    }

    #[test]
    fn validate_rejects_fresh_agg_output() {
        let cat = Catalog::paper_running_example();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let s = cat.attr("S").unwrap();
        let p = cat.attr("P").unwrap();
        let mut plan = QueryPlan::new();
        let b = plan.add_base(hosp, vec![s]);
        plan.add(
            Operator::GroupBy {
                keys: vec![],
                aggs: vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Expr::Col(s),
                    output: p, // not an input attribute
                }],
            },
            vec![b],
        );
        assert!(plan.validate(&cat).is_err());
    }

    #[test]
    fn display_is_readable() {
        let cat = Catalog::paper_running_example();
        let plan = running_example(&cat);
        let text = plan.display(&cat);
        assert!(text.contains("σ (D = 'stroke')"), "{text}");
        assert!(text.contains("⋈Inner S=C"), "{text}");
        assert!(text.contains("Hosp[SDT]"), "{text}");
    }
}
