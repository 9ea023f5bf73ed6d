//! Minimally extended authorized query plans (Def. 5.4, Theorem 5.3).
//!
//! Given a query plan and an assignment λ drawn from the candidate sets
//! Λ, this module splices encryption and decryption operations into the
//! plan so that λ becomes an *authorized* assignment (every subject is
//! authorized, per Def. 4.1, for every relation it touches), while
//! encrypting a *minimal* set of attributes:
//!
//! * **decrypt** before a node `n`, for the attributes `A_p ∩ R^ve`
//!   that `n` must read in plaintext but that arrive encrypted;
//! * **encrypt** after a node `n` (before its parent `n_o` runs), for
//!   `(E_{λ(n_o)} ∩ R^vp) ∪ A` with
//!   `A = (R^ip_{n_o} ∩ R^vp) ∩ ⋃_{x ancestor} E_{λ(x)}` — attributes
//!   the parent's assignee may only see encrypted, plus attributes the
//!   parent's operation would leave as *plaintext implicit* while some
//!   later assignee holds only encrypted visibility over them;
//! * **encrypt** below a join, for a join attribute that arrives in
//!   plaintext while its partner in a join condition arrives encrypted:
//!   both sides of a condition are compared in one form, fixed here by
//!   the plan and never decided by the engine.
//!
//! Encryption/decryption operations are assigned to the same subject as
//! the node they complement (leaves: the data authority of the base
//! relation; a join's operand encryption: the join's assignee).
//!
//! The walk settles each node's profile once, in postorder. By
//! Theorem 3.1 a profile depends only on its subtree, and a node's
//! subtree in the extended plan is final once its operand splices are
//! in, so the node is settled from its children's settled profiles
//! right then, before its own encryption is spliced above it. A spliced
//! `Encrypt`/`Decrypt` is settled as soon as it is spliced. The walk
//! thus propagates exactly once per node of the extended plan, and
//! planning stays linear in the plan.

use crate::authz::{AuthzViolation, Policy, SubjectView};
use crate::candidates::Candidates;
use crate::capability::implicit_touched;
use crate::profile::{propagate_node, Profile};
use crate::subjects::Subjects;
use mpq_algebra::{AttrSet, Catalog, NodeId, Operator, QueryPlan, SubjectId};
use std::collections::HashMap;

/// An operation assignment λ: non-leaf node → subject.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Assignment(pub HashMap<NodeId, SubjectId>);

impl Assignment {
    /// Empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assign node `n` to `s`.
    pub fn set(&mut self, n: NodeId, s: SubjectId) {
        self.0.insert(n, s);
    }

    /// The assignee of `n`, if assigned.
    pub fn get(&self, n: NodeId) -> Option<SubjectId> {
        self.0.get(&n).copied()
    }
}

/// Errors from [`minimally_extend`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtendError {
    /// A non-leaf node has no assignee.
    Unassigned(NodeId),
    /// The assignee of a node is not in its candidate set (Thm. 5.2(i):
    /// no extension can make this assignment authorized).
    NotACandidate(NodeId, SubjectId),
    /// A leaf's base relation has no declared data authority.
    NoAuthority(NodeId),
    /// Post-extension verification failed (should be unreachable if Λ
    /// was computed with the same capability policy).
    Verification(NodeId, SubjectId, AuthzViolation),
}

impl std::fmt::Display for ExtendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtendError::Unassigned(n) => write!(f, "node {n} has no assignee"),
            ExtendError::NotACandidate(n, s) => {
                write!(f, "subject {s} is not a candidate for node {n}")
            }
            ExtendError::NoAuthority(n) => {
                write!(f, "leaf {n} has no data authority declared")
            }
            ExtendError::Verification(n, s, v) => {
                write!(f, "extended plan fails verification at {n} for {s}: {v}")
            }
        }
    }
}

impl std::error::Error for ExtendError {}

/// A minimally extended authorized query plan.
#[derive(Clone, Debug)]
pub struct ExtendedPlan {
    /// The extended plan. Node ids of the original plan remain valid;
    /// encryption/decryption nodes are appended.
    pub plan: QueryPlan,
    /// Complete assignment: original non-leaf nodes (λ), leaves (their
    /// data authority), and the spliced encrypt/decrypt nodes (the
    /// subject of the node they complement).
    pub assignment: HashMap<NodeId, SubjectId>,
    /// Profiles of the extended plan, indexed by node.
    pub profiles: Vec<Profile>,
    /// Attributes involved in encryption operations (the `A_k` of
    /// Def. 6.1).
    pub encrypted_attrs: AttrSet,
}

impl ExtendedPlan {
    /// Number of encryption operations spliced in.
    pub fn encryption_ops(&self) -> usize {
        self.plan
            .postorder()
            .into_iter()
            .filter(|&id| matches!(self.plan.node(id).op, Operator::Encrypt { .. }))
            .count()
    }

    /// Number of decryption operations spliced in.
    pub fn decryption_ops(&self) -> usize {
        self.plan
            .postorder()
            .into_iter()
            .filter(|&id| matches!(self.plan.node(id).op, Operator::Decrypt { .. }))
            .count()
    }
}

/// Build the minimally extended authorized query plan for `assignment`
/// (Def. 5.4).
///
/// `finalize_for` optionally names the subject receiving the final
/// result (the querying user): any attribute still encrypted at the
/// root is then decrypted by a final operation assigned to that
/// subject, so the user reads plaintext answers. The paper's examples
/// need no such step because the last operation already required
/// plaintext.
pub fn minimally_extend(
    plan: &QueryPlan,
    catalog: &Catalog,
    policy: &Policy,
    subjects: &Subjects,
    cands: &Candidates,
    assignment: &Assignment,
    finalize_for: Option<SubjectId>,
) -> Result<ExtendedPlan, ExtendError> {
    let views = policy.all_views(catalog, subjects);
    extend_plan(
        plan,
        &views,
        subjects,
        cands,
        assignment,
        finalize_for,
        false,
    )
}

/// The one extension walk (Def. 5.4) behind [`minimally_extend`].
/// `encrypt_at_sources` is §5's *minimize visibility* extreme, the
/// planner's `Strategy::MinimizeVisibility`: each leaf's encryption
/// also carries every attribute of the leaf's output that no ancestor
/// needs in plaintext (`R^vp \ ⋃ A_p` over its ancestors), so data
/// leaves its authority encrypted unless an operation demands
/// otherwise. `views` are every subject's [`SubjectView`], indexed by
/// `SubjectId`: the planner hands over the ones Λ was computed with.
#[doc(hidden)]
pub fn extend_plan(
    plan: &QueryPlan,
    views: &[SubjectView],
    subjects: &Subjects,
    cands: &Candidates,
    assignment: &Assignment,
    finalize_for: Option<SubjectId>,
    encrypt_at_sources: bool,
) -> Result<ExtendedPlan, ExtendError> {
    // ---- validate the assignment against Λ -------------------------
    let order = plan.postorder();
    for &id in &order {
        let node = plan.node(id);
        if node.children.is_empty() {
            continue;
        }
        let s = assignment.get(id).ok_or(ExtendError::Unassigned(id))?;
        if !cands.is_candidate(id, s) {
            return Err(ExtendError::NotACandidate(id, s));
        }
    }

    let parents = plan.parents();

    // Full assignment including leaves (their authority).
    let mut full: HashMap<NodeId, SubjectId> = HashMap::new();
    for &id in &order {
        let node = plan.node(id);
        if let Operator::Base { rel, .. } = &node.op {
            let auth = subjects
                .authority(*rel)
                .ok_or(ExtendError::NoAuthority(id))?;
            full.insert(id, auth);
        } else {
            full.insert(id, assignment.get(id).expect("validated above"));
        }
    }

    // `above[x]`: ⋃ E_{λ(y)} and ⋃ A_p over x and its ancestors y,
    // filled top-down.
    let mut above = vec![(AttrSet::new(), AttrSet::new()); plan.len()];
    for &x in order.iter().rev() {
        let (mut enc, mut plain) = match parents[x.index()] {
            Some(p) => above[p.index()].clone(),
            None => Default::default(),
        };
        enc.union_with(&views[full[&x].index()].enc);
        plain.union_with(&cands.ap[x.index()]);
        above[x.index()] = (enc, plain);
    }

    let mut ext = plan.clone();
    // `profiles[n]` is settled once, when n's subtree in `ext` is
    // final (Theorem 3.1): an original node after its operand splices,
    // a spliced node as soon as it is spliced. Detached nodes keep a
    // default profile, as `profile_plan` leaves them.
    let mut profiles = vec![Profile::default(); plan.len()];
    // `top[n]` is the node in `ext` currently producing n's (possibly
    // re-encrypted) output.
    let mut top: Vec<NodeId> = (0..plan.len()).map(NodeId::from_index).collect();

    for &id in &order {
        let node = plan.node(id);
        let assignee = full[&id];

        // (i) decrypt, below this node, the attributes it needs in
        // plaintext that arrive encrypted (a leaf has no operand).
        let ap = &cands.ap[id.index()];
        if !ap.is_empty() {
            for &c in &node.children {
                let need = ap.intersect(&profiles[top[c.index()].index()].ve);
                if !need.is_empty() {
                    let attrs = need.iter().collect();
                    let d = splice(
                        &mut ext,
                        &mut profiles,
                        top[c.index()],
                        Operator::Decrypt { attrs },
                    );
                    top[c.index()] = d;
                    full.insert(d, assignee);
                }
            }
        }

        // (i') a join compares both sides of a condition in one form:
        // a side arriving in plaintext while its partner arrives
        // encrypted is encrypted on its edge, by the join's assignee.
        // Encrypting one side may pair it with another plaintext
        // partner, so the sets grow to a fixpoint first.
        if let Operator::Join { on, .. } = &node.op {
            let sides = node
                .children
                .iter()
                .map(|c| &profiles[top[c.index()].index()]);
            let (vp, mut ve): (Vec<&AttrSet>, Vec<AttrSet>) =
                sides.map(|p| (&p.vp, p.ve.clone())).unzip();
            let mut to_encrypt = [AttrSet::new(), AttrSet::new()];
            let mut grew = true;
            while grew {
                grew = false;
                for &(l, _, r) in on {
                    for (side, a, partner) in [(0, l, r), (1, r, l)] {
                        if vp[side].contains(a)
                            && !ve[side].contains(a)
                            && ve[1 - side].contains(partner)
                        {
                            ve[side].insert(a);
                            to_encrypt[side].insert(a);
                            grew = true;
                        }
                    }
                }
            }
            for (c, attrs) in node.children.iter().zip(to_encrypt) {
                if !attrs.is_empty() {
                    let attrs = attrs.iter().collect();
                    let e = splice(
                        &mut ext,
                        &mut profiles,
                        top[c.index()],
                        Operator::Encrypt { attrs },
                    );
                    top[c.index()] = e;
                    full.insert(e, assignee);
                }
            }
        }

        // This node's operands are final: settle its own profile.
        let settled = {
            let children: Vec<&Profile> = (ext.node(id).children.iter())
                .map(|c| &profiles[c.index()])
                .collect();
            propagate_node(&ext, id, &children)
        };
        profiles[id.index()] = settled;

        // (ii) encrypt, above this node, what the parent's assignee
        // cannot see in plaintext, plus the attributes the parent's
        // operation would expose as implicit plaintext to a later
        // assignee holding only encrypted visibility.
        let Some(parent) = parents[id.index()] else {
            continue; // root: handled by finalize_for below
        };
        let e_parent = &views[full[&parent].index()].enc;
        let out_profile = &profiles[id.index()];

        // A = (R^ip_parent ∩ R^vp) ∩ ⋃_ancestors E_{λ(x)}.
        let touched = implicit_touched(plan, parent);
        let (anc_enc, anc_plain) = &above[parent.index()];
        let a_term = touched.intersect(&out_profile.vp).intersect(anc_enc);
        let mut enc_set = e_parent.intersect(&out_profile.vp);
        enc_set.union_with(&a_term);
        if encrypt_at_sources && node.children.is_empty() {
            enc_set.union_with(&out_profile.vp.difference(anc_plain));
        }

        if !enc_set.is_empty() {
            let attrs = enc_set.iter().collect();
            let e = splice(&mut ext, &mut profiles, id, Operator::Encrypt { attrs });
            top[id.index()] = e;
            full.insert(e, assignee);
        }
    }

    // Final decryption for the querying user, if requested.
    if let Some(user) = finalize_for {
        let root_top = top[plan.root().index()];
        let still_enc = &profiles[root_top.index()].ve;
        if !still_enc.is_empty() {
            let attrs = still_enc.iter().collect();
            let d = splice(
                &mut ext,
                &mut profiles,
                root_top,
                Operator::Decrypt { attrs },
            );
            full.insert(d, user);
        }
    }

    // ---- verify: λ must now be an authorized assignment -------------
    for id in ext.postorder() {
        let node = ext.node(id);
        if node.children.is_empty() {
            continue;
        }
        let s = full[&id];
        // Its operands, then its own result.
        for n in node.children.iter().chain([&id]) {
            let verdict = views[s.index()].check(&profiles[n.index()]);
            verdict.map_err(|viol| ExtendError::Verification(id, s, viol))?;
        }
    }

    let mut encrypted_attrs = AttrSet::new();
    for id in ext.postorder() {
        if let Operator::Encrypt { attrs } = &ext.node(id).op {
            for a in attrs {
                encrypted_attrs.insert(*a);
            }
        }
    }

    Ok(ExtendedPlan {
        plan: ext,
        assignment: full,
        profiles,
        encrypted_attrs,
    })
}

/// Splice `op` above `below` and settle the new node's profile from
/// the settled profile of `below`.
fn splice(ext: &mut QueryPlan, profiles: &mut Vec<Profile>, below: NodeId, op: Operator) -> NodeId {
    let id = ext.splice_above(below, op);
    let settled = propagate_node(ext, id, &[&profiles[below.index()]]);
    profiles.push(settled);
    id
}

/// Enumerate all assignments drawn from the candidate sets (for
/// exhaustive optimization / testing on small plans). Calls `f` with
/// each complete assignment; stops early if `f` returns `false`.
pub fn for_each_assignment(
    plan: &QueryPlan,
    cands: &Candidates,
    f: &mut impl FnMut(&Assignment) -> bool,
) {
    let nodes: Vec<NodeId> = plan
        .postorder()
        .into_iter()
        .filter(|&id| !plan.node(id).children.is_empty())
        .collect();
    let mut current = Assignment::new();
    fn rec(
        nodes: &[NodeId],
        i: usize,
        cands: &Candidates,
        current: &mut Assignment,
        f: &mut impl FnMut(&Assignment) -> bool,
    ) -> bool {
        if i == nodes.len() {
            return f(current);
        }
        let n = nodes[i];
        for &s in cands.of(n) {
            current.set(n, s);
            if !rec(nodes, i + 1, cands, current, f) {
                return false;
            }
        }
        true
    }
    rec(&nodes, 0, cands, &mut current, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidates;
    use crate::capability::CapabilityPolicy;
    use crate::fixtures::RunningExample;
    use crate::profile::profile_plan;

    fn setup(ex: &RunningExample) -> Candidates {
        candidates(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &CapabilityPolicy::default(),
            false,
        )
    }

    fn assign(ex: &RunningExample, sel: &str, join: &str, group: &str, having: &str) -> Assignment {
        let mut a = Assignment::new();
        a.set(ex.node("select_d"), ex.subject(sel));
        a.set(ex.node("join"), ex.subject(join));
        a.set(ex.node("group"), ex.subject(group));
        a.set(ex.node("having"), ex.subject(having));
        a
    }

    /// Collect `(operator name, rendered attrs, assignee)` for the
    /// spliced encryption/decryption nodes.
    fn crypto_ops(ex: &RunningExample, e: &ExtendedPlan) -> Vec<(String, String, String)> {
        e.plan
            .postorder()
            .into_iter()
            .filter_map(|id| {
                let (kind, attrs) = match &e.plan.node(id).op {
                    Operator::Encrypt { attrs } => ("encrypt", attrs),
                    Operator::Decrypt { attrs } => ("decrypt", attrs),
                    _ => return None,
                };
                let set: AttrSet = attrs.iter().copied().collect();
                Some((
                    kind.to_string(),
                    ex.catalog.render_attrs(&set),
                    ex.subjects.name(e.assignment[&id]).to_string(),
                ))
            })
            .collect()
    }

    /// Fig. 7(a): σ→H, ⋈→X, γ→X, σᵧ→Y. Encrypt S (by H, after the
    /// selection), C and P (by I, at the Ins leaf); decrypt P (by Y)
    /// before the final selection.
    #[test]
    fn fig7a_minimal_extension() {
        let ex = RunningExample::new();
        let cands = setup(&ex);
        let a = assign(&ex, "H", "X", "X", "Y");
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
        let mut ops = crypto_ops(&ex, &e);
        ops.sort();
        assert_eq!(
            ops,
            vec![
                ("decrypt".into(), "P".into(), "Y".into()),
                ("encrypt".into(), "CP".into(), "I".into()),
                ("encrypt".into(), "S".into(), "H".into()),
            ]
        );
        assert_eq!(e.encrypted_attrs, ex.attrs("SCP"));
    }

    /// Fig. 7(b): σ→H, ⋈→Z, γ→Z, σᵧ→Y. Encrypt D (by H, at the Hosp
    /// leaf — before the selection, so no plaintext trace leaks to Z)
    /// and P (by I); decrypt P (by Y).
    #[test]
    fn fig7b_minimal_extension() {
        let ex = RunningExample::new();
        let cands = setup(&ex);
        let a = assign(&ex, "H", "Z", "Z", "Y");
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
        let mut ops = crypto_ops(&ex, &e);
        ops.sort();
        assert_eq!(
            ops,
            vec![
                ("decrypt".into(), "P".into(), "Y".into()),
                ("encrypt".into(), "D".into(), "H".into()),
                ("encrypt".into(), "P".into(), "I".into()),
            ]
        );
        // The D-encryption sits *below* the selection node.
        let parents = e.plan.parents();
        let enc_d = e
            .plan
            .postorder()
            .into_iter()
            .find(|&id| {
                matches!(&e.plan.node(id).op, Operator::Encrypt { attrs }
                    if attrs == &vec![ex.attr("D")])
            })
            .unwrap();
        assert_eq!(parents[enc_d.index()], Some(ex.node("select_d")));
    }

    /// An all-user assignment needs no encryption at all (U sees
    /// everything in plaintext).
    #[test]
    fn all_user_assignment_needs_no_encryption() {
        let ex = RunningExample::new();
        let cands = setup(&ex);
        let a = assign(&ex, "U", "U", "U", "U");
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
        assert_eq!(e.encryption_ops(), 0);
        assert_eq!(e.decryption_ops(), 0);
    }

    /// Theorem 5.2(i): an assignee outside Λ is rejected.
    #[test]
    fn non_candidate_rejected() {
        let ex = RunningExample::new();
        let cands = setup(&ex);
        // I is not a candidate for the join (non-uniform over {S,C}).
        let a = assign(&ex, "H", "I", "U", "U");
        let err = minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &a,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ExtendError::NotACandidate(_, _)));
    }

    /// Theorem 5.2(ii) / 5.3(i): *every* assignment drawn from Λ can be
    /// made authorized by the minimal extension — exhaustively over the
    /// running example (6 × 5 × 5 × 2 = 300 assignments), with and
    /// without encryption at the sources. Each walk settles every node
    /// of its extended plan exactly once, and its profiles are those a
    /// fresh derivation over the finished plan finds.
    #[test]
    fn every_candidate_assignment_extends_successfully() {
        use crate::profile::PROPAGATIONS;
        let ex = RunningExample::new();
        let cands = setup(&ex);
        let mut count = 0usize;
        for_each_assignment(&ex.plan, &cands, &mut |a| {
            for at_sources in [false, true] {
                let before = PROPAGATIONS.get();
                let r = extend_plan(
                    &ex.plan,
                    &cands.views,
                    &ex.subjects,
                    &cands,
                    a,
                    Some(ex.subject("U")),
                    at_sources,
                );
                let e = r.unwrap_or_else(|err| panic!("assignment {a:?} failed: {err:?}"));
                let settled = PROPAGATIONS.get() - before;
                assert_eq!(settled, e.plan.postorder().len(), "{a:?}");
                assert_eq!(e.profiles, profile_plan(&e.plan), "{a:?}");
            }
            count += 1;
            true
        });
        assert_eq!(count, 6 * 5 * 5 * 2);
    }

    /// Theorem 5.3(ii) on Fig. 7(a): no alternative extension with
    /// fewer encrypted attributes can authorize the same assignment.
    /// We verify minimality by dropping any one encryption and checking
    /// the plan no longer verifies.
    #[test]
    fn dropping_any_encryption_breaks_authorization() {
        let ex = RunningExample::new();
        let cands = setup(&ex);
        let a = assign(&ex, "H", "X", "X", "Y");
        let e = minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &a,
            None,
        )
        .unwrap();
        let views: Vec<SubjectView> = ex
            .subjects
            .iter()
            .map(|s| ex.policy.subject_view(&ex.catalog, s))
            .collect();
        // For each encrypt node, rebuild the plan with one attribute
        // removed from it and check some consumer loses authorization.
        let enc_nodes: Vec<NodeId> = e
            .plan
            .postorder()
            .into_iter()
            .filter(|&id| matches!(e.plan.node(id).op, Operator::Encrypt { .. }))
            .collect();
        for enc in enc_nodes {
            let Operator::Encrypt { attrs } = &e.plan.node(enc).op else {
                unreachable!()
            };
            for drop in attrs.clone() {
                let mut weakened = e.plan.clone();
                if let Operator::Encrypt { attrs } = &mut weakened.node_mut(enc).op {
                    attrs.retain(|a| *a != drop);
                }
                let profiles = profile_plan(&weakened);
                let violated = weakened.postorder().into_iter().any(|id| {
                    let node = weakened.node(id);
                    if node.children.is_empty() {
                        return false;
                    }
                    let s = e.assignment[&id];
                    let v = &views[s.index()];
                    node.children
                        .iter()
                        .any(|c| !v.authorized_for(&profiles[c.index()]))
                        || !v.authorized_for(&profiles[id.index()])
                });
                assert!(
                    violated,
                    "dropping encryption of {} did not violate anything",
                    ex.catalog.attr_name(drop)
                );
            }
        }
    }
}
