//! What runs on ciphertext: §5's `A_p` and §6's scheme choice, from one
//! table.
//!
//! §5: "For operations that are not supported by cryptographic
//! techniques (not existing or not available to the application), we
//! assume the optimizer to specify the need for maintaining data in
//! plaintext for execution of the operation. For each node we then have
//! a set `A_p` of attributes that are needed in plaintext." §6: "We
//! propose to adopt, for each attribute, the scheme providing highest
//! protection, while supporting the operations to be executed on the
//! attribute's encrypted values." Both read one relation — operation ×
//! attribute → what the attribute's values must support — and this
//! module is the only place that states it:
//!
//! | [`Need`] | asked by | served by |
//! |---|---|---|
//! | `Eq` | `=`, `<>`, `IN` over a column; a grouping key; `COUNT(DISTINCT col)` | deterministic encryption (always available) |
//! | `Ord` | `<` `<=` `>` `>=`, `BETWEEN` over a column; `MIN`/`MAX(col)`; every attribute of a sort key | OPE ([`CapabilityPolicy::allow_ope`]) |
//! | `Add` | `SUM`/`AVG(col)` | Paillier ([`CapabilityPolicy::allow_homomorphic`]) |
//! | `Plain` | a comparison with a computed operand; `LIKE`, `EXTRACT`, `SUBSTRING`, `CASE`, arithmetic; `BETWEEN` bounds; a computed `IN` operand or `SUM`/`AVG`/`MIN`/`MAX` input; udf inputs; a `SUM`/`AVG` output that `HAVING` compares or a sort orders | nothing |
//!
//! `demands` enumerates the table for one node; [`Caps::scheme`] is
//! the one map from accumulated needs to an [`EncScheme`]. The three
//! consumers differ only in which demands they keep:
//!
//! * `plaintext_requirements` (`A_p`) keeps what the
//!   [`CapabilityPolicy`] has no scheme for;
//! * `mpq_exec::assign_schemes` folds, through [`needed_caps`], the
//!   demands on attributes that reach the operation encrypted;
//! * the optimizer's DP prices encryption with the same fold over the
//!   attributes outside `A_p` — the scheme an attribute *would* get.
//!
//! Where an `AggRef` under a `HAVING` or a sort key points is not
//! decided here: `demands` and `implicit_touched` ask
//! [`QueryPlan::agg_scope`] for the γ the node stands on, as the engine
//! that will run the node does.
//!
//! `verify.rs` re-derives the demands on its own (`collect_cap_demands`)
//! and must not import this module: it is the second version the
//! verifier's N-version check compares against.

use mpq_algebra::expr::{AggFunc, Expr};
use mpq_algebra::value::EncScheme;
use mpq_algebra::{AggScope, AttrId, AttrSet, CmpOp, NodeId, Operator, QueryPlan};
use std::collections::HashMap;

/// Which operations the available encryption schemes support.
#[derive(Clone, Copy, Debug)]
pub struct CapabilityPolicy {
    /// Order-preserving encryption is available: range predicates,
    /// MIN/MAX and sorting can run on ciphertexts.
    pub allow_ope: bool,
    /// An additively homomorphic scheme (Paillier) is available:
    /// SUM/AVG over a single encrypted column can run on ciphertexts.
    pub allow_homomorphic: bool,
}

impl Default for CapabilityPolicy {
    fn default() -> Self {
        CapabilityPolicy {
            allow_ope: true,
            allow_homomorphic: true,
        }
    }
}

impl CapabilityPolicy {
    /// The configuration used for the TPC-H economic evaluation:
    /// deterministic equality and OPE ranges run on ciphertexts, but
    /// SUM/AVG inputs require plaintext. Paillier's per-value cost
    /// (~1 ms, three orders of magnitude above symmetric encryption)
    /// prices homomorphic aggregation out of multi-million-row TPC-H
    /// aggregates — the paper's cost-based optimizer would make the
    /// same call, decrypting at the (plaintext-authorized) aggregating
    /// subject instead. The running example keeps
    /// [`CapabilityPolicy::default`], where `avg(P)` does run under
    /// Paillier as in the paper's Figures 7–8.
    pub fn tpch_evaluation() -> Self {
        CapabilityPolicy {
            allow_ope: true,
            allow_homomorphic: false,
        }
    }
}

impl CapabilityPolicy {
    /// Whether an available scheme lets `op` meet `need` on ciphertexts.
    fn serves(&self, need: Need) -> bool {
        match need {
            Need::Eq => true,
            Need::Ord => self.allow_ope,
            Need::Add => self.allow_homomorphic,
            Need::Plain => false,
        }
    }
}

/// What an operation needs of one attribute's values at one site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Need {
    /// Whether two values are equal.
    Eq,
    /// How two values are ordered.
    Ord,
    /// Their sum.
    Add,
    /// The values themselves: no scheme serves the site.
    Plain,
}

/// One row of the table: `attr` must support `need` at some node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Demand {
    /// The attribute.
    pub attr: AttrId,
    /// What the operation needs of it.
    pub need: Need,
    /// The other side of a join condition: the two share one scheme.
    /// Extension encrypts a side arriving in plaintext below the join
    /// when its partner arrives encrypted, so the pair runs on
    /// ciphertext as soon as *either* side does, and both sides'
    /// ciphertexts must come from one scheme.
    pub with: Option<AttrId>,
}

impl Demand {
    fn of(attr: AttrId, need: Need) -> Demand {
        Demand {
            attr,
            need,
            with: None,
        }
    }
}

/// Every demand the operation of node `id` places on the attributes it
/// touches. `plan` may be an original or an extended plan.
///
/// A column that is a direct operand of a comparison states its
/// `Eq`/`Ord` need even where the comparison as a whole needs
/// plaintext (the other operand is computed): a plan that leaves it
/// encrypted there anyway — the verifier's mutants do — still gets the
/// scheme the operator would use.
///
/// Pinned as found, each a site that reads values yet demands nothing:
/// a computed `BETWEEN` operand, `IS NULL` over anything, a computed
/// `COUNT`/`COUNT(DISTINCT)` input, and a `MIN`/`MAX` output a sort
/// names by `AggRef` (a `SUM`/`AVG` output it names is `Plain`).
fn demands(plan: &QueryPlan, id: NodeId) -> Vec<Demand> {
    let node = plan.node(id);
    // The γ an `AggRef` here names, if the node stands on one.
    let scope = plan.agg_scope(id).unwrap_or_default();
    let mut out = Vec::new();
    match &node.op {
        Operator::Base { .. }
        | Operator::Project { .. }
        | Operator::Product
        | Operator::Encrypt { .. }
        | Operator::Decrypt { .. }
        | Operator::Limit { .. } => {}
        Operator::Select { pred } => predicate_demands(pred, &mut out),
        Operator::Having { pred } => {
            summed_output_demands(pred, scope, &mut out);
            // The rest follows the selection rules over the group-by's
            // output; a COUNT there carries its key's or input's name.
            predicate_demands(&scope.resolve(pred), &mut out);
        }
        Operator::Join { on, residual, .. } => {
            for (l, op, r) in on {
                for (attr, with) in [(*l, *r), (*r, *l)] {
                    out.push(Demand {
                        attr,
                        need: comparison_need(*op),
                        with: Some(with),
                    });
                }
            }
            if let Some(res) = residual {
                predicate_demands(res, &mut out);
            }
        }
        Operator::GroupBy { keys, aggs } => {
            out.extend(keys.iter().map(|k| Demand::of(*k, Need::Eq)));
            for ag in aggs {
                let need = match ag.func {
                    AggFunc::Count => continue,
                    AggFunc::CountDistinct => Need::Eq,
                    AggFunc::Sum | AggFunc::Avg => Need::Add,
                    AggFunc::Min | AggFunc::Max => Need::Ord,
                };
                match ag.input {
                    Expr::Col(a) => out.push(Demand::of(a, need)),
                    _ if ag.func == AggFunc::CountDistinct => {}
                    _ => plain_demands(&ag.input, &mut out),
                }
            }
        }
        Operator::Udf { inputs, .. } => {
            out.extend(inputs.iter().map(|a| Demand::of(*a, Need::Plain)));
        }
        Operator::Sort { keys } => {
            for (e, _) in keys {
                out.extend(e.attrs().iter().map(|a| Demand::of(a, Need::Ord)));
                summed_output_demands(e, scope, &mut out);
            }
        }
    }
    out
}

fn comparison_need(op: CmpOp) -> Need {
    match op {
        CmpOp::Eq | CmpOp::Ne => Need::Eq,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => Need::Ord,
    }
}

/// Every attribute of `e` is computed on: `Plain`.
fn plain_demands(e: &Expr, out: &mut Vec<Demand>) {
    out.extend(e.attrs().iter().map(|a| Demand::of(a, Need::Plain)));
}

/// The demands of a predicate: a selection, a join residual, or a
/// `HAVING` whose `AggRef`s are resolved.
fn predicate_demands(e: &Expr, out: &mut Vec<Demand>) {
    match e {
        Expr::And(_) | Expr::Or(_) | Expr::Not(_) => {
            for x in e.children() {
                predicate_demands(x, out);
            }
        }
        Expr::Col(_) | Expr::AggRef(_) | Expr::Lit(_) | Expr::IsNull { .. } => {}
        Expr::Cmp(a, op, b) => {
            for side in [a.as_ref(), b.as_ref()] {
                if let Expr::Col(x) = side {
                    out.push(Demand::of(*x, comparison_need(*op)));
                }
            }
            let operands_as_stored = matches!(
                (a.as_ref(), b.as_ref()),
                (Expr::Col(_), Expr::Col(_))
                    | (Expr::Col(_), Expr::Lit(_))
                    | (Expr::Lit(_), Expr::Col(_))
                    | (Expr::AggRef(_), Expr::Lit(_))
                    | (Expr::Lit(_), Expr::AggRef(_))
            );
            if !operands_as_stored {
                plain_demands(e, out);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            if let Expr::Col(x) = expr.as_ref() {
                out.push(Demand::of(*x, Need::Ord));
            }
            plain_demands(lo, out);
            plain_demands(hi, out);
        }
        // IN over literals is a disjunction of equalities.
        Expr::InList { expr, .. } => match expr.as_ref() {
            Expr::Col(x) => out.push(Demand::of(*x, Need::Eq)),
            computed => plain_demands(computed, out),
        },
        Expr::Like { .. }
        | Expr::Extract { .. }
        | Expr::Substring { .. }
        | Expr::Arith(..)
        | Expr::Case { .. } => plain_demands(e, out),
    }
}

/// A SUM/AVG computed on ciphertexts yields a Paillier ciphertext, which
/// nothing compares or orders: wherever `e` names such an output, the
/// output is `Plain` — whatever the policy says of Paillier, exactly
/// the paper's assumption that the final `avg(P) > 100` views `avg(P)`
/// in plaintext. MIN/MAX outputs keep their OPE form and COUNTs are
/// plain numbers, so neither is asked for here.
fn summed_output_demands(e: &Expr, scope: AggScope<'_>, out: &mut Vec<Demand>) {
    if let Expr::AggRef(i) = e {
        if let Some(ag) = scope.output(*i) {
            if matches!(ag.func, AggFunc::Sum | AggFunc::Avg) {
                out.push(Demand::of(ag.output, Need::Plain));
            }
        }
    }
    for x in e.children() {
        summed_output_demands(x, scope, out);
    }
}

/// What one attribute's ciphertexts must support across a plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Caps {
    /// Equality.
    pub eq: bool,
    /// Order.
    pub ord: bool,
    /// Addition.
    pub add: bool,
}

impl Caps {
    /// Record one more need. `Plain` asks nothing of a ciphertext.
    fn note(&mut self, need: Need) {
        match need {
            Need::Eq => self.eq = true,
            Need::Ord => self.ord = true,
            Need::Add => self.add = true,
            Need::Plain => {}
        }
    }

    /// §6's choice: the scheme of highest protection that still
    /// supports every recorded need. `None` when no scheme does —
    /// addition together with a comparison.
    pub fn scheme(self) -> Option<EncScheme> {
        match (self.add, self.ord, self.eq) {
            (true, false, false) => Some(EncScheme::Paillier),
            (true, _, _) => None,
            (false, true, _) => Some(EncScheme::Ope),
            (false, false, true) => Some(EncScheme::Deterministic),
            (false, false, false) => Some(EncScheme::Random),
        }
    }
}

/// Fold the demands of every node of `plan` per attribute, keeping
/// those on attributes that are `on_ciphertext` at the node (a join
/// pair counts as soon as either side is). Both sides of a counted
/// join pair, and every pair chained to it, then share their folded
/// needs: the engine compares the two sides' ciphertexts, so they
/// must carry one scheme.
pub fn needed_caps(
    plan: &QueryPlan,
    on_ciphertext: impl Fn(NodeId, AttrId) -> bool,
) -> HashMap<AttrId, Caps> {
    let mut caps: HashMap<AttrId, Caps> = HashMap::new();
    let mut pairs = Vec::new();
    for id in plan.postorder() {
        for d in demands(plan, id) {
            if on_ciphertext(id, d.attr) || d.with.is_some_and(|w| on_ciphertext(id, w)) {
                caps.entry(d.attr).or_default().note(d.need);
                pairs.extend(d.with.map(|w| (d.attr, w)));
            }
        }
    }
    // Needs only grow, so this ends.
    while let Some(&(a, b)) = pairs.iter().find(|(a, b)| caps[a] != caps[b]) {
        let (x, y) = (caps[&a], caps[&b]);
        let both = Caps {
            eq: x.eq || y.eq,
            ord: x.ord || y.ord,
            add: x.add || y.add,
        };
        caps.extend([(a, both), (b, both)]);
    }
    caps
}

/// `A_p` for every node: the attributes (of the node's operands) that
/// must be available in plaintext for the node's operation to execute
/// — those with a demand the policy has no scheme for. Indexed by
/// `NodeId::index()`.
///
/// A cross-operation conflict arises when one attribute is aggregated
/// homomorphically (Paillier supports only addition) *and* compared
/// elsewhere in the plan (needing deterministic/OPE form): no single
/// scheme supports both ([`Caps::scheme`]), and Def. 6.1 ties every
/// occurrence of an attribute cluster to one key. Following the paper's
/// running example (the aggregate runs encrypted; `avg(P) > 100` is
/// evaluated on plaintext), the aggregation keeps its encrypted form
/// and every *other* demand on the attribute puts it in that node's
/// `A_p`.
pub(crate) fn plaintext_requirements(plan: &QueryPlan, policy: &CapabilityPolicy) -> Vec<AttrSet> {
    let per_node: Vec<(NodeId, Vec<Demand>)> = plan
        .postorder()
        .into_iter()
        .map(|id| (id, demands(plan, id)))
        .collect();
    // Attributes aggregated homomorphically somewhere in the plan.
    let mut summed = AttrSet::new();
    if policy.allow_homomorphic {
        for d in per_node.iter().flat_map(|(_, ds)| ds) {
            if d.need == Need::Add {
                summed.insert(d.attr);
            }
        }
    }

    let mut out = vec![AttrSet::new(); plan.len()];
    for (id, ds) in per_node {
        for d in ds {
            let conflicts = d.need != Need::Add && summed.contains(d.attr);
            if conflicts || !policy.serves(d.need) {
                out[id.index()].insert(d.attr);
            }
        }
    }
    out
}

/// Attributes the operator *touches* in a way that leaves an implicit
/// trace in the result profile (constant comparisons, grouping). This
/// feeds the `A` term of Def. 5.4 (ii): attributes that the parent's
/// operation will record as implicit, and which must therefore be
/// encrypted *before* that operation runs when a later assignee holds
/// only encrypted visibility over them.
pub(crate) fn implicit_touched(plan: &QueryPlan, id: NodeId) -> AttrSet {
    let node = plan.node(id);
    match &node.op {
        Operator::Select { pred } => pred.const_compared_attrs(),
        Operator::Having { pred } => {
            let scope = plan.agg_scope(id).unwrap_or_default();
            scope.resolve(pred).const_compared_attrs()
        }
        Operator::GroupBy { keys, .. } => keys.iter().copied().collect(),
        Operator::Join { residual, .. } => residual
            .as_ref()
            .map(|r| r.const_compared_attrs())
            .unwrap_or_default(),
        _ => AttrSet::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::RunningExample;
    use mpq_algebra::AggExpr;

    /// The most restrictive policy: every condition, aggregate, and udf
    /// needs plaintext except deterministic equality.
    const DETERMINISTIC_ONLY: CapabilityPolicy = CapabilityPolicy {
        allow_ope: false,
        allow_homomorphic: false,
    };

    #[test]
    fn running_example_requirements_match_paper() {
        // "the execution of the last selection in the query plan needs
        // to view avg(P) in plaintext, while all other attributes can
        // be encrypted".
        let ex = RunningExample::new();
        let ap = plaintext_requirements(&ex.plan, &CapabilityPolicy::default());
        assert!(ap[ex.node("select_d").index()].is_empty());
        assert!(ap[ex.node("join").index()].is_empty());
        assert!(ap[ex.node("group").index()].is_empty());
        assert_eq!(ap[ex.node("having").index()], ex.attrs("P"));
    }

    #[test]
    fn deterministic_only_policy_widens_requirements() {
        let ex = RunningExample::new();
        let ap = plaintext_requirements(&ex.plan, &DETERMINISTIC_ONLY);
        // Equality selection and join still run encrypted…
        assert!(ap[ex.node("select_d").index()].is_empty());
        assert!(ap[ex.node("join").index()].is_empty());
        // …but avg(P) now needs plaintext P at the group-by too.
        assert_eq!(ap[ex.node("group").index()], ex.attrs("P"));
    }

    /// The table, row by row: every `Expr` variant as a predicate
    /// states it and every operator, with the sites pinned as found.
    #[test]
    fn demands_by_shape() {
        use mpq_algebra::expr::{ArithOp, DateField};
        use mpq_algebra::{JoinKind, RelId, Value};
        use Need::{Add, Eq, Ord, Plain};
        /// What the test says, the predicate, the expected demands.
        type Row = (&'static str, Expr, Vec<(u32, Need)>);

        let a = AttrId;
        let col = |i| Expr::Col(a(i));
        let lit = || Expr::Lit(Value::Int(1));
        let plus = |l, r| Expr::arith(l, ArithOp::Add, r);
        let boxed = |e| Box::new(e);
        let between = |expr, lo, hi| Expr::Between {
            expr: boxed(expr),
            lo: boxed(lo),
            hi: boxed(hi),
            negated: false,
        };
        let in_list = |expr| Expr::InList {
            expr: boxed(expr),
            list: vec![Value::Int(1), Value::Int(2)],
            negated: false,
        };
        let is_null = |expr| Expr::IsNull {
            expr: boxed(expr),
            negated: false,
        };
        let substring = |expr| Expr::Substring {
            expr: boxed(expr),
            start: 1,
            len: 2,
        };
        let extract = |expr| Expr::Extract {
            field: DateField::Year,
            expr: boxed(expr),
        };

        // A one-operator plan over base relation(s) of attributes 0..8,
        // and the demands of its root as `(attr, need, with)`.
        let root_demands = |plan: &QueryPlan| -> Vec<(u32, Need, Option<u32>)> {
            demands(plan, plan.root())
                .into_iter()
                .map(|d| (d.attr.0, d.need, d.with.map(|w| w.0)))
                .collect()
        };
        let base = |plan: &mut QueryPlan| plan.add_base(RelId(0), (0..8).map(a).collect());
        let over_base = |op: Operator| {
            let mut plan = QueryPlan::new();
            let b = base(&mut plan);
            plan.add(op, vec![b]);
            root_demands(&plan)
        };
        let alone = |rows: &[(u32, Need)]| -> Vec<(u32, Need, Option<u32>)> {
            rows.iter().map(|&(x, n)| (x, n, None)).collect()
        };

        // ---- predicates (a join residual is the same walk) -----------
        let predicates: Vec<Row> = vec![
            (
                "col = lit",
                Expr::cmp(col(0), CmpOp::Eq, lit()),
                vec![(0, Eq)],
            ),
            (
                "col <> lit is an equality need",
                Expr::cmp(col(0), CmpOp::Ne, lit()),
                vec![(0, Eq)],
            ),
            (
                "lit < col",
                Expr::cmp(lit(), CmpOp::Lt, col(0)),
                vec![(0, Ord)],
            ),
            (
                "col <= col: each side on its own",
                Expr::cmp(col(0), CmpOp::Le, col(1)),
                vec![(0, Ord), (1, Ord)],
            ),
            (
                "col = computed: the column states its need, the site is Plain",
                Expr::cmp(col(0), CmpOp::Eq, plus(col(1), lit())),
                vec![(0, Eq), (0, Plain), (1, Plain)],
            ),
            (
                "computed > lit",
                Expr::cmp(plus(col(0), col(1)), CmpOp::Gt, lit()),
                vec![(0, Plain), (1, Plain)],
            ),
            (
                "extract(col) = lit",
                Expr::cmp(extract(col(0)), CmpOp::Eq, lit()),
                vec![(0, Plain)],
            ),
            ("lit = lit", Expr::cmp(lit(), CmpOp::Eq, lit()), vec![]),
            (
                "an unresolved AggRef against a literal asks nothing",
                Expr::cmp(Expr::AggRef(0), CmpOp::Gt, lit()),
                vec![],
            ),
            (
                "col against an unresolved AggRef is not a ciphertext form",
                Expr::cmp(col(0), CmpOp::Eq, Expr::AggRef(0)),
                vec![(0, Eq), (0, Plain)],
            ),
            (
                "AND / OR / NOT recurse",
                Expr::And(vec![
                    Expr::cmp(col(0), CmpOp::Eq, lit()),
                    Expr::Or(vec![
                        Expr::cmp(col(1), CmpOp::Lt, lit()),
                        Expr::Not(boxed(Expr::cmp(col(2), CmpOp::Eq, lit()))),
                    ]),
                ]),
                vec![(0, Eq), (1, Ord), (2, Eq)],
            ),
            ("a bare boolean column", col(0), vec![]),
            ("a literal", lit(), vec![]),
            (
                "col BETWEEN lit AND lit",
                between(col(0), lit(), lit()),
                vec![(0, Ord)],
            ),
            (
                "BETWEEN bounds are Plain",
                between(col(0), col(1), plus(col(2), lit())),
                vec![(0, Ord), (1, Plain), (2, Plain)],
            ),
            (
                "a computed BETWEEN operand asks nothing (as found)",
                between(plus(col(0), col(1)), lit(), lit()),
                vec![],
            ),
            ("col IN (..)", in_list(col(0)), vec![(0, Eq)]),
            (
                "computed IN (..)",
                in_list(substring(col(0))),
                vec![(0, Plain)],
            ),
            ("IS NULL asks nothing", is_null(col(0)), vec![]),
            (
                "nor over a computed operand (as found)",
                is_null(plus(col(0), col(1))),
                vec![],
            ),
            (
                "LIKE",
                Expr::Like {
                    expr: boxed(col(0)),
                    pattern: "%x".into(),
                    negated: false,
                },
                vec![(0, Plain)],
            ),
            ("EXTRACT", extract(col(0)), vec![(0, Plain)]),
            ("SUBSTRING", substring(col(0)), vec![(0, Plain)]),
            (
                "arithmetic",
                plus(col(0), col(1)),
                vec![(0, Plain), (1, Plain)],
            ),
            (
                "CASE",
                Expr::Case {
                    branches: vec![(Expr::cmp(col(0), CmpOp::Eq, lit()), col(1))],
                    else_: Some(boxed(col(2))),
                },
                vec![(0, Plain), (1, Plain), (2, Plain)],
            ),
        ];
        for (what, pred, expected) in predicates {
            assert_eq!(
                over_base(Operator::Select { pred }),
                alone(&expected),
                "{what}"
            );
        }

        // ---- operators that ask nothing ------------------------------
        for op in [
            Operator::Project { attrs: vec![a(0)] },
            Operator::Encrypt { attrs: vec![a(0)] },
            Operator::Decrypt { attrs: vec![a(0)] },
            Operator::Limit { n: 3 },
        ] {
            assert_eq!(over_base(op.clone()), vec![], "{op:?}");
        }
        let two_bases = |op: Operator| {
            let mut plan = QueryPlan::new();
            let l = plan.add_base(RelId(0), (0..4).map(a).collect());
            let r = plan.add_base(RelId(1), (4..8).map(a).collect());
            plan.add(op, vec![l, r]);
            root_demands(&plan)
        };
        assert_eq!(two_bases(Operator::Product), vec![]);
        let mut leaf = QueryPlan::new();
        base(&mut leaf);
        assert_eq!(root_demands(&leaf), vec![]);

        // ---- join: each condition names its other side ---------------
        assert_eq!(
            two_bases(Operator::Join {
                kind: JoinKind::Inner,
                on: vec![
                    (a(0), CmpOp::Eq, a(4)),
                    (a(1), CmpOp::Lt, a(5)),
                    (a(2), CmpOp::Ne, a(6)),
                ],
                residual: Some(Expr::cmp(col(3), CmpOp::Ge, col(7))),
            }),
            vec![
                (0, Eq, Some(4)),
                (4, Eq, Some(0)),
                (1, Ord, Some(5)),
                (5, Ord, Some(1)),
                (2, Eq, Some(6)),
                (6, Eq, Some(2)),
                (3, Ord, None),
                (7, Ord, None),
            ]
        );

        // ---- group-by ------------------------------------------------
        let agg = |func, input, output| AggExpr {
            func,
            input,
            output: a(output),
        };
        assert_eq!(
            over_base(Operator::GroupBy {
                keys: vec![a(0)],
                aggs: vec![
                    AggExpr::count_star(a(0)),
                    agg(AggFunc::Count, plus(col(1), col(2)), 1),
                    agg(AggFunc::CountDistinct, col(1), 1),
                    agg(AggFunc::CountDistinct, plus(col(1), col(2)), 1),
                    agg(AggFunc::Sum, col(2), 2),
                    agg(AggFunc::Avg, plus(col(3), col(4)), 3),
                    agg(AggFunc::Min, col(5), 5),
                    agg(AggFunc::Max, plus(col(6), lit()), 6),
                ],
            }),
            alone(&[
                (0, Eq),    // the key
                (1, Eq),    // count(distinct col); COUNTs ask nothing else (as found)
                (2, Add),   // sum(col)
                (3, Plain), // avg(computed)
                (4, Plain),
                (5, Ord),   // min(col)
                (6, Plain), // max(computed)
            ])
        );

        // ---- udf -----------------------------------------------------
        assert_eq!(
            over_base(Operator::Udf {
                name: "f".into(),
                inputs: vec![a(0), a(1)],
                output: a(0),
                body: None,
            }),
            alone(&[(0, Plain), (1, Plain)])
        );

        // ---- HAVING and Sort above a group-by ------------------------
        // count(*) carries its key's name (0); sum → 1, min → 2, avg → 3.
        // `having`: a HAVING between the γ and the operator.
        let above = |spliced: bool, having: Option<Expr>, op: Operator| {
            let mut plan = QueryPlan::new();
            let b = base(&mut plan);
            let mut below = plan.add(
                Operator::GroupBy {
                    keys: vec![a(0)],
                    aggs: vec![
                        AggExpr::count_star(a(0)),
                        AggExpr::over_col(AggFunc::Sum, a(1)),
                        AggExpr::over_col(AggFunc::Min, a(2)),
                        agg(AggFunc::Avg, plus(col(3), col(4)), 3),
                    ],
                },
                vec![b],
            );
            if spliced {
                below = plan.add(Operator::Encrypt { attrs: vec![a(2)] }, vec![below]);
            }
            if let Some(pred) = having {
                below = plan.add(Operator::Having { pred }, vec![below]);
            }
            plan.add(op, vec![below]);
            root_demands(&plan)
        };
        let above_group = |spliced, op| above(spliced, None, op);
        let agg_gt = |i| Expr::cmp(Expr::AggRef(i), CmpOp::Gt, lit());
        let having: Vec<Row> = vec![
            (
                "a COUNT output borrows its key's name",
                agg_gt(0),
                vec![(0, Ord)],
            ),
            (
                "a compared SUM output is Plain, whatever the policy",
                agg_gt(1),
                vec![(1, Plain), (1, Ord)],
            ),
            ("a MIN output keeps its order", agg_gt(2), vec![(2, Ord)]),
            (
                "an AVG output named anywhere is Plain",
                is_null(Expr::AggRef(3)),
                vec![(3, Plain)],
            ),
            (
                "a key follows the selection rules",
                in_list(col(0)),
                vec![(0, Eq)],
            ),
        ];
        for (what, pred, expected) in having {
            for spliced in [false, true] {
                assert_eq!(
                    above_group(spliced, Operator::Having { pred: pred.clone() }),
                    alone(&expected),
                    "{what} (through a spliced Encrypt: {spliced})"
                );
            }
        }
        // Sort: every attribute of a key is ordered; a SUM/AVG output is
        // Plain; a MIN output named by AggRef is *not* resolved (as
        // found — HAVING resolves, Sort does not).
        let sort = Operator::Sort {
            keys: vec![
                (Expr::AggRef(1), false),
                (Expr::AggRef(2), true),
                (plus(col(0), Expr::AggRef(3)), true),
            ],
        };
        for spliced in [false, true] {
            assert_eq!(
                above_group(spliced, sort.clone()),
                alone(&[(1, Plain), (0, Ord), (3, Plain)])
            );
        }
        // The same sort above a HAVING stands on the same γ.
        for spliced in [false, true] {
            assert_eq!(
                above(spliced, Some(agg_gt(0)), sort.clone()),
                alone(&[(1, Plain), (0, Ord), (3, Plain)])
            );
        }
        // Away from a group-by an AggRef names nothing.
        assert_eq!(
            over_base(Operator::Sort {
                keys: vec![(Expr::AggRef(0), true), (col(2), false)],
            }),
            alone(&[(2, Ord)])
        );
    }

    /// The one fold from needs to a scheme (§6: highest protection
    /// that supports the operations), and the policy's reading of the
    /// same needs — `<>` included, now an equality need everywhere.
    #[test]
    fn needs_fold_to_schemes_and_to_ap() {
        use mpq_algebra::{RelId, Value};
        let fold = |needs: &[Need]| {
            let mut c = Caps::default();
            needs.iter().for_each(|n| c.note(*n));
            c.scheme()
        };
        assert_eq!(fold(&[]), Some(EncScheme::Random));
        assert_eq!(fold(&[Need::Plain]), Some(EncScheme::Random));
        assert_eq!(fold(&[Need::Eq]), Some(EncScheme::Deterministic));
        assert_eq!(fold(&[Need::Eq, Need::Ord]), Some(EncScheme::Ope));
        assert_eq!(fold(&[Need::Add]), Some(EncScheme::Paillier));
        assert_eq!(fold(&[Need::Add, Need::Eq]), None);
        assert_eq!(fold(&[Need::Ord, Need::Add]), None);

        let (x, y) = (AttrId(0), AttrId(1));
        let mut plan = QueryPlan::new();
        let b = plan.add_base(RelId(0), vec![x, y]);
        let sel =
            plan.add(
                Operator::Select {
                    pred: Expr::cmp(Expr::Col(x), CmpOp::Ne, Expr::Lit(Value::Int(1)))
                        .and(Expr::cmp(Expr::Col(y), CmpOp::Lt, Expr::Lit(Value::Int(1)))),
                },
                vec![b],
            );
        let ap = |policy| plaintext_requirements(&plan, &policy);
        assert!(ap(CapabilityPolicy::default())[sel.index()].is_empty());
        assert_eq!(ap(DETERMINISTIC_ONLY)[sel.index()], AttrSet::singleton(y));
    }

    /// Q15's shape: `s_suppkey` is joined with `l_suppkey` and also a
    /// sort key. The engine compares the two sides' ciphertexts, so the
    /// pair — and the pair chained to it — shares the stronger scheme;
    /// an added side makes the whole chain a conflict.
    #[test]
    fn a_join_pair_with_one_sorted_side_gets_one_scheme() {
        use mpq_algebra::{JoinKind, RelId};
        let a = AttrId;
        let join = |plan: &mut QueryPlan, l, r, on: (u32, u32)| {
            let on = vec![(a(on.0), CmpOp::Eq, a(on.1))];
            plan.add(
                Operator::Join {
                    kind: JoinKind::Inner,
                    on,
                    residual: None,
                },
                vec![l, r],
            )
        };
        let plan_above = |top: Operator| {
            let mut plan = QueryPlan::new();
            let s = plan.add_base(RelId(0), vec![a(0), a(1)]);
            let l = plan.add_base(RelId(1), vec![a(2), a(3)]);
            let p = plan.add_base(RelId(2), vec![a(4), a(5)]);
            let sl = join(&mut plan, s, l, (0, 2));
            let slp = join(&mut plan, sl, p, (2, 4));
            plan.add(top, vec![slp]);
            plan
        };
        let schemes = |plan: &QueryPlan| -> Vec<Option<EncScheme>> {
            let caps = needed_caps(plan, |_, _| true);
            [0, 2, 4].map(|i| caps[&a(i)].scheme()).to_vec()
        };
        let sorted = plan_above(Operator::Sort {
            keys: vec![(Expr::Col(a(0)), true)],
        });
        assert_eq!(schemes(&sorted), vec![Some(EncScheme::Ope); 3]);
        let summed = plan_above(Operator::GroupBy {
            keys: vec![a(1)],
            aggs: vec![AggExpr::over_col(AggFunc::Sum, a(4))],
        });
        assert_eq!(schemes(&summed), vec![None; 3]);
    }

    #[test]
    fn implicit_touched_matches_fig2() {
        let ex = RunningExample::new();
        assert_eq!(
            implicit_touched(&ex.plan, ex.node("select_d")),
            ex.attrs("D")
        );
        assert_eq!(implicit_touched(&ex.plan, ex.node("group")), ex.attrs("T"));
        assert_eq!(implicit_touched(&ex.plan, ex.node("having")), ex.attrs("P"));
        assert!(implicit_touched(&ex.plan, ex.node("join")).is_empty());
    }
}
