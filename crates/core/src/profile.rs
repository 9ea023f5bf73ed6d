//! Relation profiles and their propagation (§3, Fig. 2).
//!
//! A profile `[R^vp, R^ve, R^ip, R^ie, R^≃]` captures the informative
//! content of a base or derived relation:
//!
//! * `R^vp` / `R^ve` — attributes *visible* in the schema, in plaintext
//!   or encrypted form;
//! * `R^ip` / `R^ie` — attributes *implicitly* conveyed (they were used
//!   in a selection or grouping while computing the relation), again in
//!   plaintext or encrypted form;
//! * `R^≃` — the closure of the equivalence relation induced by
//!   conditions comparing attributes (a join `S = C` makes `S` and `C`
//!   mutually derivable, so visibility of one leaks the other).
//!
//! `propagate` implements every row of the paper's Fig. 2;
//! [`profile_plan`] annotates a whole plan. The one rule that needs the
//! plan and not just the operator — a `HAVING` names aggregate outputs
//! by position — is settled before `propagate` runs: `propagate_node`
//! asks [`QueryPlan::agg_scope`] for the γ the node stands on and hands
//! `propagate` the predicate over that γ's output attributes, on
//! original and extended plans alike. Theorem 3.1 (attributes
//! never leave a profile going up the plan; equivalence classes only
//! grow) is exercised by the property tests in `tests/properties.rs`.

use mpq_algebra::expr::AggFunc;
use mpq_algebra::{AttrSet, NodeId, Operator, QueryPlan};

/// Disjoint equivalence classes over attributes (the `R^≃` component).
///
/// Kept as a small vector of disjoint [`AttrSet`]s; inserting a class
/// merges every existing class it intersects (the paper's `R^≃ ∪ A`
/// semantics). Singleton insertions that touch no existing class are
/// dropped: a single-element class adds no constraint beyond the
/// visibility conditions already imposed on the attribute itself.
#[derive(Clone, Debug, Default)]
pub struct EqClasses {
    classes: Vec<AttrSet>,
}

impl EqClasses {
    /// No equivalences.
    pub fn new() -> Self {
        Self::default()
    }

    /// `R^≃ ∪ A`: add the equivalence among all attributes of `set`,
    /// merging intersecting classes.
    pub fn insert_class(&mut self, set: &AttrSet) {
        if set.is_empty() {
            return;
        }
        let mut merged = set.clone();
        let mut kept = Vec::with_capacity(self.classes.len());
        for c in self.classes.drain(..) {
            if c.intersects(&merged) {
                merged.union_with(&c);
            } else {
                kept.push(c);
            }
        }
        if merged.len() >= 2 {
            kept.push(merged);
        }
        self.classes = kept;
    }

    /// Insert the pair `{a, b}` (σ/⋈ conditions of the form `a op b`).
    fn insert_pair(&mut self, a: mpq_algebra::AttrId, b: mpq_algebra::AttrId) {
        let mut s = AttrSet::new();
        s.insert(a);
        s.insert(b);
        self.insert_class(&s);
    }

    /// `R^≃_i ∪ R^≃_j`: merge in all classes of another structure.
    pub fn union_with(&mut self, other: &EqClasses) {
        for c in &other.classes {
            self.insert_class(c);
        }
    }

    /// Iterate over the classes (each has ≥ 2 members).
    pub fn classes(&self) -> impl Iterator<Item = &AttrSet> {
        self.classes.iter()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` when no equivalence is recorded.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// All attributes appearing in some class.
    fn members(&self) -> AttrSet {
        let mut s = AttrSet::new();
        for c in &self.classes {
            s.union_with(c);
        }
        s
    }
}

impl PartialEq for EqClasses {
    fn eq(&self, other: &Self) -> bool {
        if self.classes.len() != other.classes.len() {
            return false;
        }
        self.classes
            .iter()
            .all(|c| other.classes.iter().any(|d| c == d))
    }
}
impl Eq for EqClasses {}

/// A relation profile (Definition 3.1).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Profile {
    /// Visible plaintext attributes (`R^vp`).
    pub vp: AttrSet,
    /// Visible encrypted attributes (`R^ve`).
    pub ve: AttrSet,
    /// Implicit plaintext attributes (`R^ip`).
    pub ip: AttrSet,
    /// Implicit encrypted attributes (`R^ie`).
    pub ie: AttrSet,
    /// Equivalence classes (`R^≃`).
    pub eq: EqClasses,
}

impl Profile {
    /// Profile of a base relation: `[{a_1,…,a_n}, ∅, ∅, ∅, ∅]` — fully
    /// plaintext-visible to its authority, no implicit content.
    pub fn base(attrs: AttrSet) -> Profile {
        Profile {
            vp: attrs,
            ..Profile::default()
        }
    }

    /// All visible attributes (`R^vp ∪ R^ve` — the relation schema).
    pub fn visible(&self) -> AttrSet {
        self.vp.union(&self.ve)
    }

    /// Every attribute mentioned anywhere in the profile, including
    /// equivalence-class members (the footprint of Theorem 3.1).
    pub fn footprint(&self) -> AttrSet {
        let mut s = self.vp.union(&self.ve);
        s.union_with(&self.ip);
        s.union_with(&self.ie);
        s.union_with(&self.eq.members());
        s
    }

    /// Move `attrs` from plaintext-visible to encrypted-visible
    /// (the paper's *encryption* operation on profiles).
    pub fn encrypt(&self, attrs: &AttrSet) -> Profile {
        let mut out = self.clone();
        let affected = attrs.intersect(&self.visible());
        out.vp.difference_with(&affected);
        out.ve.union_with(&affected);
        out
    }

    /// Move `attrs` from encrypted-visible to plaintext-visible
    /// (the paper's *decryption* operation on profiles).
    pub fn decrypt(&self, attrs: &AttrSet) -> Profile {
        let mut out = self.clone();
        let affected = attrs.intersect(&self.visible());
        out.ve.difference_with(&affected);
        out.vp.union_with(&affected);
        out
    }

    /// Union of all components with another profile (× and ⋈ rules).
    fn merge(&self, other: &Profile) -> Profile {
        let mut out = self.clone();
        out.vp.union_with(&other.vp);
        out.ve.union_with(&other.ve);
        out.ip.union_with(&other.ip);
        out.ie.union_with(&other.ie);
        out.eq.union_with(&other.eq);
        out
    }

    /// Apply a selection-style condition: attributes compared to
    /// constants become implicit (in their current visibility form);
    /// attribute-attribute comparisons extend the equivalence classes.
    fn apply_condition(
        &mut self,
        consts: &AttrSet,
        pairs: &[(mpq_algebra::AttrId, mpq_algebra::AttrId)],
    ) {
        self.ip.union_with(&self.vp.intersect(consts));
        self.ie.union_with(&self.ve.intersect(consts));
        for (a, b) in pairs {
            self.eq.insert_pair(*a, *b);
        }
    }
}

/// Compute the profile of one operator applied to operand profiles
/// (every row of Fig. 2).
///
/// A `HAVING` is the selection its predicate states, read as handed
/// over: walking a plan, [`profile_plan`] first resolves the
/// predicate's aggregate references against the γ in scope.
fn propagate(op: &Operator, children: &[&Profile]) -> Profile {
    match op {
        Operator::Base { attrs, .. } => Profile::base(attrs.iter().copied().collect()),
        Operator::Project { attrs } => {
            let child = children[0];
            let keep: AttrSet = attrs.iter().copied().collect();
            Profile {
                vp: child.vp.intersect(&keep),
                ve: child.ve.intersect(&keep),
                ip: child.ip.clone(),
                ie: child.ie.clone(),
                eq: child.eq.clone(),
            }
        }
        Operator::Select { pred } | Operator::Having { pred } => {
            let mut out = children[0].clone();
            out.apply_condition(&pred.const_compared_attrs(), &pred.attr_pairs());
            out
        }
        Operator::Product => children[0].merge(children[1]),
        Operator::Join { on, residual, .. } => {
            let mut out = children[0].merge(children[1]);
            for (l, _, r) in on {
                out.eq.insert_pair(*l, *r);
            }
            if let Some(res) = residual {
                out.apply_condition(&res.const_compared_attrs(), &res.attr_pairs());
            }
            out
        }
        Operator::GroupBy { keys, aggs } => {
            let child = children[0];
            let key_set: AttrSet = keys.iter().copied().collect();
            let mut kept = key_set.clone();
            for ag in aggs {
                kept.insert(ag.output);
            }
            let mut out = Profile {
                vp: child.vp.intersect(&kept),
                ve: child.ve.intersect(&kept),
                ip: child.ip.union(&child.vp.intersect(&key_set)),
                ie: child.ie.union(&child.ve.intersect(&key_set)),
                eq: child.eq.clone(),
            };
            // Aggregates over compound expressions behave like the µ
            // rule composed with γ: the inputs become equivalent to the
            // output (the output value is derived from all of them).
            for ag in aggs {
                let ins = ag.input.attrs();
                if ins.len() > 1 {
                    let mut class = ins.clone();
                    class.insert(ag.output);
                    out.eq.insert_class(&class);
                }
            }
            // COUNT reads no cell values: its output is a plaintext
            // integer whatever form the counted attribute arrives in,
            // so the output attribute moves to the visible-plaintext
            // set (unless it doubles as a group key, which keeps the
            // operand's form).
            for ag in aggs {
                if matches!(ag.func, AggFunc::Count | AggFunc::CountDistinct)
                    && !key_set.contains(ag.output)
                    && out.ve.remove(ag.output)
                {
                    out.vp.insert(ag.output);
                }
            }
            out
        }
        Operator::Udf { inputs, output, .. } => {
            let child = children[0];
            let mut dropped: AttrSet = inputs.iter().copied().collect();
            dropped.remove(*output);
            let mut out = Profile {
                vp: child.vp.difference(&dropped),
                ve: child.ve.difference(&dropped),
                ip: child.ip.clone(),
                ie: child.ie.clone(),
                eq: child.eq.clone(),
            };
            let class: AttrSet = inputs.iter().copied().collect();
            out.eq.insert_class(&class);
            out
        }
        Operator::Encrypt { attrs } => children[0].encrypt(&attrs.iter().copied().collect()),
        Operator::Decrypt { attrs } => children[0].decrypt(&attrs.iter().copied().collect()),
        Operator::Sort { .. } | Operator::Limit { .. } => children[0].clone(),
    }
}

/// [`propagate`] for node `id` of `plan` (original or extended): the
/// aggregate outputs a `HAVING` predicate names positionally become the
/// attributes they are called, through the γ in scope
/// ([`QueryPlan::agg_scope`]).
pub(crate) fn propagate_node(plan: &QueryPlan, id: NodeId, children: &[&Profile]) -> Profile {
    count_propagation();
    match (&plan.node(id).op, plan.agg_scope(id)) {
        (Operator::Having { pred }, Some(scope)) => {
            let pred = scope.resolve(pred);
            propagate(&Operator::Having { pred }, children)
        }
        (op, _) => propagate(op, children),
    }
}

/// Profiles for every reachable node of `plan`, indexed by
/// `NodeId::index()` (detached nodes keep a default profile).
pub fn profile_plan(plan: &QueryPlan) -> Vec<Profile> {
    let mut out = vec![Profile::default(); plan.len()];
    for id in plan.postorder() {
        let children: Vec<&Profile> = (plan.node(id).children.iter())
            .map(|c| &out[c.index()])
            .collect();
        out[id.index()] = propagate_node(plan, id, &children);
    }
    out
}

/// Counts [`propagate_node`] calls under test and under the
/// `count-propagations` feature; a no-op elsewhere.
#[cfg(not(any(test, feature = "count-propagations")))]
fn count_propagation() {}

#[cfg(any(test, feature = "count-propagations"))]
thread_local! {
    /// Calls of [`propagate_node`] on this thread: how tests — this
    /// crate's, and those of crates that turn `count-propagations` on —
    /// count the profiles a walk settles.
    pub static PROPAGATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(any(test, feature = "count-propagations"))]
fn count_propagation() {
    PROPAGATIONS.set(PROPAGATIONS.get() + 1);
}

#[cfg(test)]
impl EqClasses {
    /// The class containing `a`, if any.
    fn class_of(&self, a: mpq_algebra::AttrId) -> Option<&AttrSet> {
        self.classes.iter().find(|c| c.contains(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::RunningExample;
    use mpq_algebra::{AttrId, CmpOp, Expr, Value};

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn eq_classes_merge_on_insert() {
        let mut eq = EqClasses::new();
        eq.insert_pair(a(0), a(1));
        eq.insert_pair(a(2), a(3));
        assert_eq!(eq.len(), 2);
        // Linking 1 and 2 merges both classes.
        eq.insert_pair(a(1), a(2));
        assert_eq!(eq.len(), 1);
        let class = eq.class_of(a(3)).unwrap();
        assert_eq!(class.len(), 4);
    }

    #[test]
    fn eq_classes_singletons_dropped() {
        let mut eq = EqClasses::new();
        eq.insert_class(&AttrSet::singleton(a(5)));
        assert!(eq.is_empty());
        // But a singleton intersecting an existing class is absorbed.
        eq.insert_pair(a(0), a(1));
        eq.insert_class(&AttrSet::singleton(a(0)));
        assert_eq!(eq.len(), 1);
    }

    #[test]
    fn eq_classes_equality_is_order_insensitive() {
        let mut x = EqClasses::new();
        x.insert_pair(a(0), a(1));
        x.insert_pair(a(2), a(3));
        let mut y = EqClasses::new();
        y.insert_pair(a(2), a(3));
        y.insert_pair(a(1), a(0));
        assert_eq!(x, y);
    }

    /// Fig. 3: profiles of the running-example plan.
    #[test]
    fn fig3_profiles() {
        let ex = RunningExample::new();
        let profiles = profile_plan(&ex.plan);
        // π_{S,D,T}(Hosp): [SDT, ∅, ∅, ∅, ∅].
        let base = ex.node("base_hosp");
        assert_eq!(profiles[base.index()].vp, ex.attrs("SDT"));
        assert!(profiles[base.index()].ip.is_empty());
        // σ_{D='stroke'}: v: SDT, i: D.
        let sel = ex.node("select_d");
        assert_eq!(profiles[sel.index()].vp, ex.attrs("SDT"));
        assert_eq!(profiles[sel.index()].ip, ex.attrs("D"));
        // ⋈_{S=C}: v: SDTCP, i: D, ≃: {SC}.
        let join = ex.node("join");
        assert_eq!(profiles[join.index()].vp, ex.attrs("SDTCP"));
        assert_eq!(profiles[join.index()].ip, ex.attrs("D"));
        let mut expected_eq = EqClasses::new();
        expected_eq.insert_class(&ex.attrs("SC"));
        assert_eq!(profiles[join.index()].eq, expected_eq);
        // γ_{T,avg(P)}: v: TP, i: DT, ≃: {SC}.
        let gby = ex.node("group");
        assert_eq!(profiles[gby.index()].vp, ex.attrs("TP"));
        assert_eq!(profiles[gby.index()].ip, ex.attrs("DT"));
        assert_eq!(profiles[gby.index()].eq, expected_eq);
        // σ_{avg(P)>100}: v: TP, i: DTP, ≃: {SC}.
        let hav = ex.node("having");
        assert_eq!(profiles[hav.index()].vp, ex.attrs("TP"));
        assert_eq!(profiles[hav.index()].ip, ex.attrs("DTP"));
        assert_eq!(profiles[hav.index()].eq, expected_eq);
    }

    /// Fig. 2, selection over an attribute pair: σ_{S=C} adds {S,C} to ≃.
    #[test]
    fn fig2_selection_attr_pair() {
        let mut p = Profile::base(AttrSet::from_iter([a(0), a(1)]));
        p.ip.insert(a(9));
        let op = Operator::Select {
            pred: Expr::cmp(Expr::Col(a(0)), CmpOp::Eq, Expr::Col(a(1))),
        };
        let out = propagate(&op, &[&p]);
        assert_eq!(out.vp, p.vp);
        assert_eq!(out.ip, p.ip);
        assert_eq!(out.eq.len(), 1);
    }

    /// Fig. 2, selection over an encrypted attribute puts it in R^ie.
    #[test]
    fn fig2_selection_encrypted_implicit() {
        let p = Profile {
            vp: AttrSet::singleton(a(0)),
            ve: AttrSet::singleton(a(1)),
            ..Profile::default()
        };
        let op = Operator::Select {
            pred: Expr::col_eq(a(1), Value::Int(3)),
        };
        let out = propagate(&op, &[&p]);
        assert!(out.ip.is_empty());
        assert_eq!(out.ie, AttrSet::singleton(a(1)));
    }

    /// Fig. 2, udf µ_{SB,S}: output S, input {S,B}; B leaves the
    /// schema, {S,B} joins the equivalence classes.
    #[test]
    fn fig2_udf() {
        let ex = RunningExample::new();
        let s = ex.attr("S");
        let b = ex.attr("B");
        let mut base = Profile::base(ex.attrs("SBCT"));
        base.ip = ex.attrs("D");
        base.eq.insert_class(&ex.attrs("SC"));
        let op = Operator::Udf {
            name: "µ".into(),
            inputs: vec![s, b],
            output: s,
            body: None,
        };
        let out = propagate(&op, &[&base]);
        assert_eq!(out.vp, ex.attrs("SCT"));
        assert_eq!(out.ip, ex.attrs("D"));
        // ≃ gains {S,B}, merging with {S,C} into {S,B,C}.
        assert_eq!(out.eq.len(), 1);
        assert_eq!(out.eq.class_of(b).unwrap(), &ex.attrs("SBC"));
    }

    /// Fig. 2, encryption/decryption move attributes between vp and ve.
    #[test]
    fn fig2_encrypt_decrypt_roundtrip() {
        let ex = RunningExample::new();
        let mut p = Profile::base(ex.attrs("SBT"));
        p.ip = ex.attrs("D");
        let t = ex.attrs("T");
        let enc = p.encrypt(&t);
        assert_eq!(enc.vp, ex.attrs("SB"));
        assert_eq!(enc.ve, ex.attrs("T"));
        assert_eq!(enc.ip, ex.attrs("D"));
        let dec = enc.decrypt(&t);
        assert_eq!(dec, p);
    }

    /// Encryption of a non-visible attribute is a no-op (profiles never
    /// invent attributes).
    #[test]
    fn encrypt_ignores_non_visible() {
        let ex = RunningExample::new();
        let p = Profile::base(ex.attrs("SB"));
        let enc = p.encrypt(&ex.attrs("P"));
        assert_eq!(enc, p);
    }

    /// Fig. 2, cartesian product takes componentwise unions.
    #[test]
    fn fig2_product() {
        let ex = RunningExample::new();
        let mut l = Profile::base(ex.attrs("SB"));
        l.ip = ex.attrs("D");
        let mut r = Profile::base(ex.attrs("CP"));
        r.eq.insert_class(&ex.attrs("CP"));
        let out = propagate(&Operator::Product, &[&l, &r]);
        assert_eq!(out.vp, ex.attrs("SBCP"));
        assert_eq!(out.ip, ex.attrs("D"));
        assert_eq!(out.eq.len(), 1);
    }

    /// Group-by keeps keys + aggregate outputs visible and adds the
    /// grouping attributes to the implicit component.
    #[test]
    fn fig2_group_by_count_star() {
        let ex = RunningExample::new();
        let t = ex.attr("T");
        let base = Profile::base(ex.attrs("SDT"));
        let op = Operator::GroupBy {
            keys: vec![t],
            aggs: vec![mpq_algebra::AggExpr::count_star(t)],
        };
        let out = propagate(&op, &[&base]);
        assert_eq!(out.vp, ex.attrs("T"));
        assert_eq!(out.ip, ex.attrs("T"));
    }

    /// Theorem 3.1 on the running example: footprints grow monotonically
    /// and equivalence classes only expand going up.
    #[test]
    fn theorem_3_1_on_running_example() {
        let ex = RunningExample::new();
        let profiles = profile_plan(&ex.plan);
        let parents = ex.plan.parents();
        for id in ex.plan.postorder() {
            if let Some(p) = parents[id.index()] {
                let child_fp = profiles[id.index()].footprint();
                let parent_fp = profiles[p.index()].footprint();
                assert!(
                    child_fp.is_subset(&parent_fp),
                    "footprint shrank from {id} to {p}"
                );
                for class in profiles[id.index()].eq.classes() {
                    assert!(
                        profiles[p.index()]
                            .eq
                            .classes()
                            .any(|sup| class.is_subset(sup)),
                        "equivalence class shrank from {id} to {p}"
                    );
                }
            }
        }
    }

    /// On an extended plan, the HAVING's aggregate references resolve
    /// through the spliced Decrypt to the GROUP BY below it: the
    /// implicit-plaintext record of `avg(P) > 100` must not be lost.
    #[test]
    fn having_aggrefs_resolve_through_spliced_crypto() {
        use crate::candidates::candidates;
        use crate::capability::CapabilityPolicy;
        use crate::extend::{minimally_extend, Assignment};

        let ex = RunningExample::new();
        let cands = candidates(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &CapabilityPolicy::default(),
            false,
        );
        let mut a = Assignment::new();
        a.set(ex.node("select_d"), ex.subject("H"));
        a.set(ex.node("join"), ex.subject("X"));
        a.set(ex.node("group"), ex.subject("X"));
        a.set(ex.node("having"), ex.subject("Y"));
        let e = minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &a,
            Some(ex.subject("U")),
        )
        .unwrap();
        // Fig. 7(a) splices decrypt(P) between having and group.
        let having = ex.node("having");
        assert!(matches!(
            e.plan.node(e.plan.node(having).children[0]).op,
            Operator::Decrypt { .. }
        ));
        let original = profile_plan(&ex.plan);
        let extended = profile_plan(&e.plan);
        assert!(original[having.index()].ip.contains(ex.attr("P")));
        assert!(
            extended[having.index()].ip.contains(ex.attr("P")),
            "extension must not erase the implicit exposure of P"
        );
    }
}
