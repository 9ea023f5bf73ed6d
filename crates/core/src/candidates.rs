//! Minimum required views and assignment candidates (§5).
//!
//! The *minimum required view* over an operand (Def. 5.2) is the
//! operand with every visible attribute encrypted except those the
//! operation needs in plaintext (`A_p`):
//! `R̄_y = decrypt(A_p, encrypt(R^vp_y \ A_p, R_y))`.
//!
//! The candidate set Λ(n) (Def. 5.3) contains the subjects authorized
//! (Def. 4.2) for the minimum required views of n's operands *and* for
//! the relation n produces from them. Profiles cascade bottom-up
//! exactly as in the paper's Fig. 6: the profile at each node assumes
//! its operands are minimum required views. Theorem 5.2 guarantees Λ is
//! sound and complete: an assignment can be made authorized by some
//! extension iff it draws every assignee from Λ.

use crate::authz::{Policy, SubjectView};
use crate::capability::{plaintext_requirements, CapabilityPolicy};
use crate::profile::{propagate_node, Profile};
use crate::subjects::Subjects;
use mpq_algebra::{AttrSet, Catalog, NodeId, Operator, QueryPlan, SubjectId};

/// Candidate subjects for one node, sorted by id.
pub type CandidateSet = Vec<SubjectId>;

/// Output of [`candidates`]: Λ plus the intermediate artifacts that the
/// extension and costing stages reuse.
#[derive(Clone, Debug)]
pub struct Candidates {
    /// Λ(n) per node (empty for leaves, which stay with their data
    /// authority).
    pub sets: Vec<CandidateSet>,
    /// Cascaded minimum-required-view profiles per node (the profiles
    /// of Fig. 6).
    pub profiles: Vec<Profile>,
    /// `A_p` per node.
    pub ap: Vec<AttrSet>,
    /// Per-subject overall views, indexed by `SubjectId::index()`.
    pub views: Vec<SubjectView>,
}

impl Candidates {
    /// Candidate set of a node.
    pub fn of(&self, n: NodeId) -> &CandidateSet {
        &self.sets[n.index()]
    }

    /// `true` iff `subject` is a candidate for node `n`.
    pub fn is_candidate(&self, n: NodeId, subject: SubjectId) -> bool {
        self.sets[n.index()].contains(&subject)
    }
}

/// The minimum required view transformation (Def. 5.2) applied to a
/// profile: encrypt everything visible except `ap`, then decrypt the
/// `ap` attributes that were encrypted.
pub fn min_required_view(profile: &Profile, ap: &AttrSet) -> Profile {
    let to_encrypt = profile.vp.difference(ap);
    profile.encrypt(&to_encrypt).decrypt(ap)
}

/// Compute Λ for every node of `plan` (Def. 5.3).
///
/// When `prune` is set, the search space for a node is narrowed to the
/// intersection of its non-leaf children's candidate sets whenever the
/// premise of Theorem 5.1 holds for those children (their operands'
/// plaintext-visible attributes all end up implicit in their result);
/// the result is identical, candidate membership tests just skip
/// subjects that cannot qualify.
pub fn candidates(
    plan: &QueryPlan,
    catalog: &Catalog,
    policy: &Policy,
    subjects: &Subjects,
    cap: &CapabilityPolicy,
    prune: bool,
) -> Candidates {
    let views: Vec<SubjectView> = subjects
        .iter()
        .map(|s| policy.subject_view(catalog, s))
        .collect();
    let ap = plaintext_requirements(plan, cap);
    let mut profiles = vec![Profile::default(); plan.len()];
    let mut sets: Vec<CandidateSet> = vec![Vec::new(); plan.len()];
    // Premise of Thm. 5.1 per node, used for pruning at the parent.
    let mut premise = vec![false; plan.len()];

    for id in plan.postorder() {
        let node = plan.node(id);
        if node.children.is_empty() {
            // Leaf: base profile; no assignee (stays with the
            // authority).
            if let Operator::Base { attrs, .. } = &node.op {
                profiles[id.index()] = Profile::base(attrs.iter().copied().collect());
            }
            continue;
        }
        // Minimum required views of the operands w.r.t. this node's Ap.
        let minviews: Vec<Profile> = node
            .children
            .iter()
            .map(|c| min_required_view(&profiles[c.index()], &ap[id.index()]))
            .collect();
        let minview_refs: Vec<&Profile> = minviews.iter().collect();
        let result = propagate_node(plan, id, &minview_refs);

        // Premise of Thm. 5.1 for this node: all plaintext-visible
        // operand attributes become implicit plaintext in the result.
        let mut operand_vp = AttrSet::new();
        for mv in &minviews {
            operand_vp.union_with(&mv.vp);
        }
        premise[id.index()] = operand_vp.is_subset(&result.ip);

        // Candidate pool: all subjects, or (when pruning applies) the
        // intersection of non-leaf children's candidate sets.
        let pool: Vec<SubjectId> = if prune {
            let mut pool: Option<Vec<SubjectId>> = None;
            for &c in &node.children {
                if plan.node(c).children.is_empty() {
                    continue; // leaves carry no candidate set
                }
                if !premise[c.index()] {
                    pool = None;
                    break;
                }
                let cs = &sets[c.index()];
                pool = Some(match pool {
                    None => cs.clone(),
                    Some(prev) => prev.into_iter().filter(|s| cs.contains(s)).collect(),
                });
            }
            pool.unwrap_or_else(|| subjects.iter().collect())
        } else {
            subjects.iter().collect()
        };

        let set: CandidateSet = pool
            .into_iter()
            .filter(|s| {
                let v = &views[s.index()];
                minviews.iter().all(|mv| v.authorized_for(mv)) && v.authorized_for(&result)
            })
            .collect();
        sets[id.index()] = set;
        profiles[id.index()] = result;
    }

    Candidates {
        sets,
        profiles,
        ap,
        views,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::RunningExample;

    fn compute(ex: &RunningExample, prune: bool) -> Candidates {
        candidates(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &CapabilityPolicy::default(),
            prune,
        )
    }

    /// Fig. 6: candidate sets for the running example.
    #[test]
    fn fig6_candidate_sets() {
        let ex = RunningExample::new();
        let c = compute(&ex, false);
        let render = |node: &str| ex.subjects.render(c.of(ex.node(node)));
        assert_eq!(render("select_d"), "HIUXYZ");
        assert_eq!(render("join"), "HUXYZ"); // I excluded: non-uniform SC
        assert_eq!(render("group"), "HUXYZ");
        assert_eq!(render("having"), "UY"); // plaintext avg(P) required
    }

    /// Fig. 6: the cascaded minimum-required-view profiles.
    #[test]
    fn fig6_minview_profiles() {
        let ex = RunningExample::new();
        let c = compute(&ex, false);
        // Join result under min views: everything encrypted, D implicit
        // encrypted, ≃ {SC}.
        let join = &c.profiles[ex.node("join").index()];
        assert!(join.vp.is_empty());
        assert_eq!(join.ve, ex.attrs("SDTCP"));
        assert!(join.ip.is_empty());
        assert_eq!(join.ie, ex.attrs("D"));
        // Group-by: T,P visible encrypted; D,T implicit encrypted.
        let group = &c.profiles[ex.node("group").index()];
        assert_eq!(group.ve, ex.attrs("TP"));
        assert_eq!(group.ie, ex.attrs("DT"));
        // Having: P decrypted for the final selection, hence implicit
        // plaintext P in the result.
        let having = &c.profiles[ex.node("having").index()];
        assert_eq!(having.vp, ex.attrs("P"));
        assert_eq!(having.ve, ex.attrs("T"));
        assert_eq!(having.ip, ex.attrs("P"));
        assert_eq!(having.ie, ex.attrs("DT"));
    }

    /// Pruning must not change the computed candidate sets (Thm. 5.1).
    #[test]
    fn pruning_is_lossless() {
        let ex = RunningExample::new();
        let unpruned = compute(&ex, false);
        let pruned = compute(&ex, true);
        for id in ex.plan.postorder() {
            assert_eq!(
                unpruned.of(id),
                pruned.of(id),
                "candidate sets differ at {id}"
            );
        }
    }

    /// Theorem 5.1: candidate sets shrink monotonically going up, for
    /// nodes satisfying the premise.
    #[test]
    fn theorem_5_1_monotonicity() {
        let ex = RunningExample::new();
        let c = compute(&ex, false);
        // having ⊆ group ⊆ join.
        let having: &CandidateSet = c.of(ex.node("having"));
        let group = c.of(ex.node("group"));
        let join = c.of(ex.node("join"));
        assert!(having.iter().all(|s| group.contains(s)));
        assert!(group.iter().all(|s| join.contains(s)));
    }

    /// Fig. 3 (no encryption): authorized assignees over the *plain*
    /// profiles. Computed via Def. 4.2 with the original profiles.
    #[test]
    fn fig3_plain_assignees() {
        let ex = RunningExample::new();
        let profiles = crate::profile::profile_plan(&ex.plan);
        let views: Vec<SubjectView> = ex
            .subjects
            .iter()
            .map(|s| ex.policy.subject_view(&ex.catalog, s))
            .collect();
        let assignees = |node: NodeId| -> String {
            let n = ex.plan.node(node);
            let ids: Vec<SubjectId> = ex
                .subjects
                .iter()
                .filter(|s| {
                    let v = &views[s.index()];
                    n.children
                        .iter()
                        .all(|c| v.authorized_for(&profiles[c.index()]))
                        && v.authorized_for(&profiles[node.index()])
                })
                .collect();
            ex.subjects.render(&ids)
        };
        // With everything plaintext: σ_D can go to H or U; the join and
        // group-by only to U (they expose SDTCP in plaintext); the final
        // selection to U or Y (its operand only carries TP visible,
        // DT implicit, and {S,C} equivalent — all within Y's view).
        assert_eq!(assignees(ex.node("select_d")), "HU");
        assert_eq!(assignees(ex.node("join")), "U");
        assert_eq!(assignees(ex.node("group")), "U");
        assert_eq!(assignees(ex.node("having")), "UY");
    }

    /// The deterministic-only policy (no OPE, no Paillier) forces
    /// plaintext P at the group-by, shrinking its candidate set.
    #[test]
    fn restrictive_policy_shrinks_candidates() {
        let ex = RunningExample::new();
        let c = candidates(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &CapabilityPolicy {
                allow_ope: false,
                allow_homomorphic: false,
            },
            false,
        );
        let group = ex.subjects.render(c.of(ex.node("group")));
        // P must be plaintext for avg → only U and Y qualify.
        assert_eq!(group, "UY");
    }

    /// Minimum required view transformation (Def. 5.2).
    #[test]
    fn min_view_encrypts_all_but_ap() {
        let ex = RunningExample::new();
        let mut p = Profile::base(ex.attrs("SDT"));
        p.ip = ex.attrs("D");
        let mv = min_required_view(&p, &ex.attrs("T"));
        assert_eq!(mv.vp, ex.attrs("T"));
        assert_eq!(mv.ve, ex.attrs("SD"));
        assert_eq!(mv.ip, ex.attrs("D")); // implicit content untouched
    }

    /// Def. 5.2 also decrypts Ap attributes that arrive encrypted.
    #[test]
    fn min_view_decrypts_required_attrs() {
        let ex = RunningExample::new();
        let p = Profile {
            vp: ex.attrs("S"),
            ve: ex.attrs("T"),
            ..Profile::default()
        };
        let mv = min_required_view(&p, &ex.attrs("T"));
        assert_eq!(mv.vp, ex.attrs("T"));
        assert_eq!(mv.ve, ex.attrs("S"));
    }
}
