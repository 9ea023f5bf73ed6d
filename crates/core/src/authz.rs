//! Authorizations and authorized-visibility checks (§2, §4).
//!
//! Each data authority specifies, per relation, rules `[P,E] → S`
//! granting subject `S` plaintext visibility over attributes `P` and
//! encrypted visibility over `E` (Definition 2.1). The policy is
//! *closed*: anything not granted is not visible. A default rule with
//! subject `any` applies to subjects without an explicit rule for the
//! relation.
//!
//! [`SubjectView`] materializes the per-subject overall views `P_S` /
//! `E_S` (Fig. 4) used by the authorization checks, and
//! [`SubjectView::violations`] is Definition 4.1 — the one statement of
//! its three conditions; `authorized_for`, `check` and
//! `explain_failure` ask it for none, the first, or all.

use crate::profile::Profile;
use crate::subjects::Subjects;
use mpq_algebra::{AttrSet, Catalog, RelId, SubjectId};
use std::collections::HashMap;

/// An authorization rule `[P,E] → S` over one relation (Def. 2.1).
#[derive(Clone, Debug)]
pub struct Authorization {
    /// Plaintext-visible attributes (subset of the relation's schema).
    pub plain: AttrSet,
    /// Encrypted-visible attributes (disjoint from `plain`).
    pub enc: AttrSet,
}

impl Authorization {
    /// Build a rule, enforcing `P ∩ E = ∅`.
    pub fn new(plain: AttrSet, enc: AttrSet) -> Result<Authorization, String> {
        if plain.intersects(&enc) {
            return Err("P and E must be disjoint (Def. 2.1)".to_string());
        }
        Ok(Authorization { plain, enc })
    }
}

/// The full authorization state: per-relation rules for explicit
/// subjects plus an optional `any` default per relation.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    /// rel → subject → rule.
    rules: HashMap<RelId, HashMap<SubjectId, Authorization>>,
    /// rel → default rule for subjects without an explicit one.
    any_rules: HashMap<RelId, Authorization>,
}

impl Policy {
    /// Empty policy (nobody sees anything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `[P,E] → S` on `rel`. A subject holds at most one rule per
    /// relation (the paper notes multiple rules add no expressivity);
    /// re-granting replaces the previous rule.
    pub fn grant(&mut self, rel: RelId, subject: SubjectId, auth: Authorization) {
        self.rules.entry(rel).or_default().insert(subject, auth);
    }

    /// Add `[P,E] → any` on `rel`.
    pub(crate) fn grant_any(&mut self, rel: RelId, auth: Authorization) {
        self.any_rules.insert(rel, auth);
    }

    /// The rule applying to `subject` on `rel`: the explicit rule if
    /// present, else the `any` default, else nothing.
    fn rule_for(&self, rel: RelId, subject: SubjectId) -> Option<&Authorization> {
        self.rules
            .get(&rel)
            .and_then(|m| m.get(&subject))
            .or_else(|| self.any_rules.get(&rel))
    }

    /// Materialize the overall view `P_S` / `E_S` of a subject across
    /// all relations of the catalog (§4: `P_S = {a ∈ P | [P,E] → S}`).
    pub fn subject_view(&self, catalog: &Catalog, subject: SubjectId) -> SubjectView {
        let mut plain = AttrSet::new();
        let mut enc = AttrSet::new();
        for rel in catalog.relations() {
            if let Some(rule) = self.rule_for(rel.rel, subject) {
                plain.union_with(&rule.plain);
                enc.union_with(&rule.enc);
            }
        }
        SubjectView {
            subject,
            plain,
            enc,
        }
    }

    /// Views for every registered subject.
    pub fn all_views(&self, catalog: &Catalog, subjects: &Subjects) -> Vec<SubjectView> {
        subjects
            .iter()
            .map(|s| self.subject_view(catalog, s))
            .collect()
    }
}

/// A subject's overall authorized attributes (Fig. 4): `P_S` in
/// plaintext, `E_S` encrypted-only.
#[derive(Clone, Debug)]
pub struct SubjectView {
    /// The subject.
    pub subject: SubjectId,
    /// `P_S` — plaintext-authorized attributes.
    pub plain: AttrSet,
    /// `E_S` — encrypted-only-authorized attributes (disjoint from
    /// `plain` by Def. 2.1; plaintext authority implies encrypted
    /// visibility, handled in the checks below).
    pub enc: AttrSet,
}

impl SubjectView {
    /// `P_S ∪ E_S` — everything the subject may see in some form.
    pub fn visible(&self) -> AttrSet {
        self.plain.union(&self.enc)
    }

    /// Definition 4.1, stated once: the subject is authorized for a
    /// relation with the given profile iff
    ///
    /// 1. `R^vp ∪ R^ip ⊆ P_S` (plaintext containment),
    /// 2. `R^ve ∪ R^ie ⊆ P_S ∪ E_S` (encrypted containment — plaintext
    ///    authority implies encrypted visibility),
    /// 3. every equivalence class `A ∈ R^≃` satisfies `A ⊆ P_S` or
    ///    `A ⊆ E_S` (uniform visibility).
    ///
    /// The iterator yields what is violated, in condition order (one
    /// [`AuthzViolation::NonUniform`] per offending class), and tests a
    /// condition only when asked for it: [`SubjectView::authorized_for`]
    /// is "none", [`SubjectView::check`] the first,
    /// [`SubjectView::explain_failure`] all of them.
    pub fn violations<'a>(
        &'a self,
        profile: &'a Profile,
    ) -> impl Iterator<Item = AuthzViolation> + 'a {
        // The attributes a containment condition finds outside what
        // the view allows, if any.
        fn outside(visible: &AttrSet, implicit: &AttrSet, allowed: &[&AttrSet]) -> Option<AttrSet> {
            let mut rest = visible.union(implicit);
            allowed.iter().for_each(|a| rest.difference_with(a));
            (!rest.is_empty()).then_some(rest)
        }
        let cond1 = std::iter::once_with(move || {
            outside(&profile.vp, &profile.ip, &[&self.plain]).map(AuthzViolation::Plaintext)
        });
        let cond2 = std::iter::once_with(move || {
            outside(&profile.ve, &profile.ie, &[&self.plain, &self.enc])
                .map(AuthzViolation::Encrypted)
        });
        let cond3 = (profile.eq.classes())
            .filter(move |class| !(class.is_subset(&self.plain) || class.is_subset(&self.enc)))
            .map(|class| AuthzViolation::NonUniform(class.clone()));
        cond1.chain(cond2).flatten().chain(cond3)
    }

    /// Whether the subject is authorized for `profile` (Def. 4.1): the
    /// early-exit test the candidate search runs per subject and node.
    pub fn authorized_for(&self, profile: &Profile) -> bool {
        self.violations(profile).next().is_none()
    }

    /// Like [`SubjectView::authorized_for`] but reporting the first
    /// violated condition, for diagnostics and the distributed runtime's
    /// enforcement messages.
    pub fn check(&self, profile: &Profile) -> Result<(), AuthzViolation> {
        self.violations(profile).next().map_or(Ok(()), Err)
    }

    /// Like [`SubjectView::check`] but exhaustive: *every* violated
    /// Def. 4.1 condition. Empty exactly when
    /// [`SubjectView::authorized_for`] holds — the static verifier uses
    /// this so one diagnostic run names the complete repair surface
    /// instead of the first obstacle.
    pub fn explain_failure(&self, profile: &Profile) -> Vec<AuthzViolation> {
        self.violations(profile).collect()
    }
}

/// Why an authorization check failed (the three conditions of Def. 4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuthzViolation {
    /// Condition 1: these plaintext (visible or implicit) attributes are
    /// not plaintext-authorized.
    Plaintext(AttrSet),
    /// Condition 2: these encrypted attributes are not visible at all.
    Encrypted(AttrSet),
    /// Condition 3: this equivalence class has non-uniform visibility.
    NonUniform(AttrSet),
}

impl std::fmt::Display for AuthzViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthzViolation::Plaintext(s) => {
                write!(f, "not plaintext-authorized for {s:?} (Def. 4.1 cond. 1)")
            }
            AuthzViolation::Encrypted(s) => {
                write!(f, "no visibility over {s:?} (Def. 4.1 cond. 2)")
            }
            AuthzViolation::NonUniform(s) => {
                write!(f, "non-uniform visibility over {s:?} (Def. 4.1 cond. 3)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::RunningExample;
    use crate::profile::{EqClasses, Profile};

    #[test]
    fn disjointness_enforced() {
        let mut p = AttrSet::new();
        p.insert(mpq_algebra::AttrId(0));
        let mut e = AttrSet::new();
        e.insert(mpq_algebra::AttrId(0));
        assert!(Authorization::new(p.clone(), AttrSet::new()).is_ok());
        assert!(Authorization::new(p, e).is_err());
    }

    #[test]
    fn fig4_overall_views() {
        let ex = RunningExample::new();
        // Expected overall views from Fig. 4.
        let cases = [
            ("H", "SBDTC", "P"),
            ("I", "BCP", "SDT"),
            ("U", "SDTCP", ""),
            ("X", "DT", "SCP"),
            ("Y", "BDTP", "SC"),
            ("Z", "STC", "DP"),
        ];
        for (name, plain, enc) in cases {
            let view = ex
                .policy
                .subject_view(&ex.catalog, ex.subjects.id(name).unwrap());
            assert_eq!(view.plain, ex.attrs(plain), "P_{name}");
            assert_eq!(view.enc, ex.attrs(enc), "E_{name}");
        }
    }

    #[test]
    fn any_default_applies_to_unknown_subjects() {
        let ex = RunningExample::new();
        let mut subjects = ex.subjects.clone();
        let w = subjects.add("W", crate::subjects::SubjectKind::Provider);
        // W has no explicit rule; the `any` defaults grant [DT,] on Hosp
        // and [,P] on Ins.
        let view = ex.policy.subject_view(&ex.catalog, w);
        assert_eq!(view.plain, ex.attrs("DT"));
        assert_eq!(view.enc, ex.attrs("P"));
    }

    #[test]
    fn example_4_1_authorization_decisions() {
        // Profile [P, BSC, ∅, ∅, {SC}] from Example 4.1.
        let ex = RunningExample::new();
        let mut eq = EqClasses::new();
        eq.insert_class(&ex.attrs("SC"));
        let profile = Profile {
            vp: ex.attrs("P"),
            ve: ex.attrs("BSC"),
            ip: AttrSet::new(),
            ie: AttrSet::new(),
            eq,
        };
        let authorized = |name: &str| {
            ex.policy
                .subject_view(&ex.catalog, ex.subjects.id(name).unwrap())
                .authorized_for(&profile)
        };
        assert!(authorized("Y"), "Y is authorized");
        assert!(!authorized("H"), "H fails condition 1 (attribute P)");
        assert!(!authorized("U"), "U fails condition 2 (attribute B)");
        assert!(!authorized("I"), "I fails condition 3 (attributes SC)");
    }

    #[test]
    fn check_reports_the_right_condition() {
        let ex = RunningExample::new();
        let mut eq = EqClasses::new();
        eq.insert_class(&ex.attrs("SC"));
        let profile = Profile {
            vp: ex.attrs("P"),
            ve: ex.attrs("BSC"),
            ip: AttrSet::new(),
            ie: AttrSet::new(),
            eq,
        };
        let check = |name: &str| {
            ex.policy
                .subject_view(&ex.catalog, ex.subjects.id(name).unwrap())
                .check(&profile)
        };
        assert!(matches!(check("H"), Err(AuthzViolation::Plaintext(_))));
        assert!(matches!(check("U"), Err(AuthzViolation::Encrypted(_))));
        assert!(matches!(check("I"), Err(AuthzViolation::NonUniform(_))));
        assert!(check("Y").is_ok());
    }

    #[test]
    fn plaintext_implies_encrypted_visibility() {
        // U holds plaintext-only authorizations; a profile with
        // encrypted T must still be visible to U (condition 2 allows
        // P_S ∪ E_S).
        let ex = RunningExample::new();
        let profile = Profile {
            vp: AttrSet::new(),
            ve: ex.attrs("T"),
            ip: AttrSet::new(),
            ie: AttrSet::new(),
            eq: EqClasses::new(),
        };
        let u = ex
            .policy
            .subject_view(&ex.catalog, ex.subjects.id("U").unwrap());
        assert!(u.authorized_for(&profile));
    }

    /// [`SubjectView::check`] stops at the first obstacle;
    /// [`SubjectView::explain_failure`] must return *every* violated
    /// condition so a single verifier run names the full repair
    /// surface.
    #[test]
    fn explain_failure_reports_all_conditions() {
        let ex = RunningExample::new();
        // Against H's view (plaintext over Hosp only): plaintext P
        // violates cond. 1, encrypted C violates cond. 2 (H has no
        // visibility over Ins.C in any form? — H *can* see C encrypted
        // via the any-subject rule, so use two eq classes instead),
        // and the class {S, C} plus the class {B, P} are each
        // non-uniform.
        let mut eq = EqClasses::new();
        eq.insert_class(&ex.attrs("SC"));
        eq.insert_class(&ex.attrs("BP"));
        let profile = Profile {
            vp: ex.attrs("P"),
            ve: ex.attrs("BSC"),
            ip: AttrSet::new(),
            ie: AttrSet::new(),
            eq,
        };
        let h = ex
            .policy
            .subject_view(&ex.catalog, ex.subjects.id("H").unwrap());
        let all = h.explain_failure(&profile);
        let plaintext = all
            .iter()
            .filter(|v| matches!(v, AuthzViolation::Plaintext(_)))
            .count();
        let non_uniform = all
            .iter()
            .filter(|v| matches!(v, AuthzViolation::NonUniform(_)))
            .count();
        assert_eq!(plaintext, 1, "{all:?}");
        assert!(non_uniform >= 1, "{all:?}");
        assert!(all.len() >= 2, "multiple conditions reported: {all:?}");
        // The first entry agrees with `check`'s single verdict.
        assert_eq!(h.check(&profile).unwrap_err(), all[0].clone());
        // And an authorized profile explains to nothing.
        let clean = Profile {
            vp: ex.attrs("SBDT"),
            ve: AttrSet::new(),
            ip: AttrSet::new(),
            ie: AttrSet::new(),
            eq: EqClasses::new(),
        };
        assert!(h.explain_failure(&clean).is_empty());
    }
}
