//! `mpq-verify` — static authorization & information-flow verification
//! of extended query plans.
//!
//! The runtime enforces the paper's security model *dynamically*:
//! Def. 4.1 is re-checked per node before execution, every transferred
//! table is cell-audited at its receiver, and a missing Def. 6.1 key
//! aborts mid-query. Both bug classes shipped so far (the through-crypto
//! `GROUP BY` profile loss, the OPE literal-type miscoding) were
//! *statically decidable* defects of the plan itself — no data needed.
//! This module is the execution-free oracle: a multi-pass analyzer over
//! an [`ExtendedPlan`] + [`KeyPlan`] that emits typed, coded
//! diagnostics before a single ciphertext is produced.
//!
//! The passes, and the runtime checks they twin:
//!
//! | code | pass | dynamic counterpart |
//! |------|------|---------------------|
//! | [`Code::UnauthorizedAssignee`] | Def. 4.1 closure over every node's operand and result profiles | `SimError::Unauthorized` |
//! | [`Code::PlaintextLeak`] | per subject-pair edge: visible plaintext ⊆ receiver's `P_S` | the wire audit's `SimError::LeakedPlaintext` / `InvisibleAttribute` |
//! | [`Code::KeyUnavailable`] | every crypto op's assignee holds a covering Def. 6.1 cluster | `ExecError::MissingKey` |
//! | [`Code::SchemeConflict`] | capability conflict (homomorphic + comparison) per encrypted attribute | `SchemeError::Conflicting` |
//! | [`Code::TypeMismatch`] | literal/column type agreement in predicates | silent empty results (the PR 3 bug class) |
//! | [`Code::Malformed`] | structural validity, crypto-op coherence, `HAVING`-through-crypto | planner panics / wrong profiles (the PR 1 bug class) |
//! | [`Code::FlowDivergence`] | N-version cross-check of profile propagation | — (meta: catches bugs in the analyses themselves) |
//! | [`Code::BadAssignment`] | completeness of λ and leaf/authority agreement | `SimError::Unassigned` / `NotTheAuthority` |
//! | [`Code::MixedForm`] | both sides of every join condition arrive in one form (plaintext or ciphertext) | `ExecError::MixedForm` |
//!
//! **Flow soundness is N-versioned**: this module re-derives the Fig. 2
//! profile propagation from the paper with an independent
//! representation (per-attribute form sets + an edge-list equivalence
//! closure, instead of `profile.rs`'s `AttrSet` quintuples and
//! class-vector merging) and cross-checks the two derivations node by
//! node, as well as against the profile annotations the plan carries.
//! A divergence means one of the implementations — or the annotation
//! the runtime would trust — is wrong, and is itself a diagnostic.

use crate::authz::{AuthzViolation, Policy, SubjectView};
use crate::extend::ExtendedPlan;
use crate::keys::KeyPlan;
use crate::profile::{profile_plan, EqClasses, Profile};
use crate::subjects::Subjects;
use mpq_algebra::{
    AggFunc, AttrId, AttrSet, Catalog, CmpOp, DataType, Expr, NodeId, Operator, QueryPlan,
    SubjectId, Value,
};
use std::cell::{RefCell, RefMut};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

// ---------------------------------------------------------------------
// diagnostics
// ---------------------------------------------------------------------

/// Typed diagnostic codes, one per verification pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// MPQ001 — a node's assignee fails Def. 4.1 for a profile it
    /// touches (operand or result).
    UnauthorizedAssignee,
    /// MPQ002 — a subject-pair edge carries a plaintext (or invisible)
    /// attribute the receiver's view does not permit.
    PlaintextLeak,
    /// MPQ003 — a crypto operation's assignee holds no covering
    /// Def. 6.1 cluster key, or an encrypted attribute has no key at
    /// all.
    KeyUnavailable,
    /// MPQ004 — an encrypted attribute needs both homomorphic addition
    /// and comparison: no single scheme supports the plan.
    SchemeConflict,
    /// MPQ005 — a predicate compares a column against a literal of an
    /// incompatible type.
    TypeMismatch,
    /// MPQ006 — the plan is structurally ill-formed (validation error,
    /// crypto op over the wrong form, `HAVING` detached from its
    /// `GROUP BY`).
    Malformed,
    /// MPQ007 — the N-version profile derivations (or the plan's
    /// carried profile annotations) disagree.
    FlowDivergence,
    /// MPQ008 — a node is unassigned, or a leaf is assigned away from
    /// its data authority.
    BadAssignment,
    /// MPQ009 — a join condition compares a ciphertext side against a
    /// plaintext side: plan extension encrypts the plaintext side below
    /// the join, and a plan without that encryption is malformed. The
    /// runtime would refuse with a typed error rather than silently
    /// match zero rows.
    MixedForm,
}

impl Code {
    /// The stable `MPQ0xx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnauthorizedAssignee => "MPQ001",
            Code::PlaintextLeak => "MPQ002",
            Code::KeyUnavailable => "MPQ003",
            Code::SchemeConflict => "MPQ004",
            Code::TypeMismatch => "MPQ005",
            Code::Malformed => "MPQ006",
            Code::FlowDivergence => "MPQ007",
            Code::BadAssignment => "MPQ008",
            Code::MixedForm => "MPQ009",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: code, the offending node (with its root-path rendered
/// span-style), and a human message. Every finding is an error: it
/// names a plan the runtime would refuse or execute unsafely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which pass fired.
    pub code: Code,
    /// The offending node, when the finding is node-local.
    pub node: Option<NodeId>,
    /// Root-to-node operator path (`γ[n4] ▸ decrypt[n7] ▸ σᵧ[n5]`),
    /// empty for plan-global findings.
    pub path: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]", self.code)?;
        if !self.path.is_empty() {
            write!(f, " at {}", self.path)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of a verification run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// What the passes decided on the way: the Def. 4.1 outcomes, key
    /// cluster shapes, scheme families, join forms and codes they saw.
    pub coverage: VerifyCoverage,
}

impl VerifyReport {
    /// `true` when no pass found anything.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The distinct codes that fired, in numeric order.
    pub fn codes(&self) -> Vec<Code> {
        let mut set: Vec<Code> = self.diagnostics.iter().map(|d| d.code).collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// `true` if some diagnostic carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "verify: clean (0 diagnostics)");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// entry points
// ---------------------------------------------------------------------

/// Statically verify an extended plan against its key establishment.
///
/// `views` are the per-subject overall views, indexed by
/// `SubjectId::index()` (as produced by [`Policy::all_views`]);
/// `deliver_to` names the subject receiving the final result, if any —
/// the root → user delivery is then checked like any other edge.
///
/// The report is empty exactly when every pass is satisfied; see the
/// [module docs](self) for what each pass proves. It also carries what
/// the passes decided on the way ([`VerifyReport::coverage`]).
pub fn verify_extended(
    ext: &ExtendedPlan,
    keys: &KeyPlan,
    catalog: &Catalog,
    subjects: &Subjects,
    views: &[SubjectView],
    deliver_to: Option<SubjectId>,
) -> VerifyReport {
    let plan = &ext.plan;
    let v = Verifier {
        ext,
        plan,
        keys,
        catalog,
        subjects,
        views,
        deliver_to,
        order: plan.postorder(),
        parents: plan.parents(),
        fresh: profile_plan(plan),
        shadow: shadow_plan(plan),
        report: RefCell::default(),
    };
    v.pass_wellformed(); // pass 0: everything else assumes it
    v.pass_flow_divergence(); // pass 1: flow soundness, N-versioned
    v.pass_assignment(); // pass 2: assignment completeness
    v.pass_authorization(); // pass 3: Def. 4.1 closure
    v.pass_edges(); // pass 4: per-edge plaintext leaks (shadow-derived)
    v.pass_keys(); // pass 5: key availability
    v.pass_schemes(); // pass 6: scheme & literal-type soundness
    v.pass_literal_types();
    v.pass_mixed_form(); // pass 7: mixed-form join comparisons
    v.report.into_inner()
}

/// [`verify_extended`] with the views derived from a [`Policy`] — the
/// convenient form for callers holding the policy rather than
/// materialized views.
pub fn verify_with_policy(
    ext: &ExtendedPlan,
    keys: &KeyPlan,
    catalog: &Catalog,
    subjects: &Subjects,
    policy: &Policy,
    deliver_to: Option<SubjectId>,
) -> VerifyReport {
    let views = policy.all_views(catalog, subjects);
    verify_extended(ext, keys, catalog, subjects, &views, deliver_to)
}

// ---------------------------------------------------------------------
// shadow propagation: the independent Fig. 2 re-derivation
// ---------------------------------------------------------------------

/// The shadow flow state of one relation: which attributes are visible
/// in which form, which leaked implicitly, and which became mutually
/// derivable. Deliberately *not* [`Profile`]: plain `BTreeSet`s of raw
/// ids and an edge list whose transitive closure is the equivalence
/// relation, so the derivation shares no set algebra with
/// `profile.rs`.
#[derive(Clone, Debug, Default)]
struct Shadow {
    /// Attributes visible in plaintext (`R^vp`).
    plain: BTreeSet<u32>,
    /// Attributes visible encrypted (`R^ve`).
    cipher: BTreeSet<u32>,
    /// Implicit plaintext exposure (`R^ip`).
    hinted_plain: BTreeSet<u32>,
    /// Implicit encrypted exposure (`R^ie`).
    hinted_cipher: BTreeSet<u32>,
    /// Derivability edges; connected components = `R^≃`.
    links: Vec<(u32, u32)>,
}

impl Shadow {
    fn base(attrs: &[AttrId]) -> Shadow {
        Shadow {
            plain: attrs.iter().map(|a| a.0).collect(),
            ..Shadow::default()
        }
    }

    /// Fig. 2 σ rule: attributes compared to constants leak implicitly
    /// in their current form; attribute pairs become derivable.
    fn condition(&mut self, consts: &AttrSet, pairs: &[(AttrId, AttrId)]) {
        for a in consts.iter() {
            if self.plain.contains(&a.0) {
                self.hinted_plain.insert(a.0);
            }
            if self.cipher.contains(&a.0) {
                self.hinted_cipher.insert(a.0);
            }
        }
        for (a, b) in pairs {
            self.links.push((a.0, b.0));
        }
    }

    /// Fig. 2 ×/⋈ rule: componentwise union.
    fn merge(&self, other: &Shadow) -> Shadow {
        let mut out = self.clone();
        out.plain.extend(&other.plain);
        out.cipher.extend(&other.cipher);
        out.hinted_plain.extend(&other.hinted_plain);
        out.hinted_cipher.extend(&other.hinted_cipher);
        out.links.extend_from_slice(&other.links);
        out
    }

    /// The paper's encryption operation: visible attributes change
    /// form; everything else (including non-visible `attrs`) is
    /// untouched.
    fn encrypt(&mut self, attrs: &[AttrId]) {
        for a in attrs {
            if self.plain.remove(&a.0) || self.cipher.contains(&a.0) {
                self.cipher.insert(a.0);
            }
        }
    }

    /// The paper's decryption operation, symmetric to
    /// [`Shadow::encrypt`].
    fn decrypt(&mut self, attrs: &[AttrId]) {
        for a in attrs {
            if self.cipher.remove(&a.0) || self.plain.contains(&a.0) {
                self.plain.insert(a.0);
            }
        }
    }

    /// Connected components (≥ 2 members) of the derivability edges.
    fn components(&self) -> Vec<BTreeSet<u32>> {
        let mut comps: Vec<BTreeSet<u32>> = Vec::new();
        for &(a, b) in &self.links {
            let ia = comps.iter().position(|c| c.contains(&a));
            let ib = comps.iter().position(|c| c.contains(&b));
            match (ia, ib) {
                (None, None) => comps.push([a, b].into_iter().collect()),
                (Some(i), None) => {
                    comps[i].insert(b);
                }
                (None, Some(j)) => {
                    comps[j].insert(a);
                }
                (Some(i), Some(j)) if i != j => {
                    let merged = comps.swap_remove(j.max(i));
                    comps[i.min(j)].extend(merged);
                }
                _ => {}
            }
        }
        comps
    }

    /// Convert to a [`Profile`] for the cross-check against
    /// `profile.rs`.
    fn to_profile(&self) -> Profile {
        let set = |s: &BTreeSet<u32>| -> AttrSet { s.iter().map(|&i| AttrId(i)).collect() };
        let mut eq = EqClasses::new();
        for comp in self.components() {
            eq.insert_class(&set(&comp));
        }
        Profile {
            vp: set(&self.plain),
            ve: set(&self.cipher),
            ip: set(&self.hinted_plain),
            ie: set(&self.hinted_cipher),
            eq,
        }
    }
}

/// Independent re-derivation of the whole plan's flow (every Fig. 2
/// rule), indexed like [`profile_plan`].
fn shadow_plan(plan: &QueryPlan) -> Vec<Shadow> {
    let mut out = vec![Shadow::default(); plan.len()];
    for id in plan.postorder() {
        let node = plan.node(id);
        let child = |i: usize| -> &Shadow { &out[node.children[i].index()] };
        let s = match &node.op {
            Operator::Base { attrs, .. } => Shadow::base(attrs),
            Operator::Project { attrs } => {
                let keep: BTreeSet<u32> = attrs.iter().map(|a| a.0).collect();
                let mut s = child(0).clone();
                s.plain.retain(|a| keep.contains(a));
                s.cipher.retain(|a| keep.contains(a));
                s
            }
            Operator::Select { pred } => {
                let mut s = child(0).clone();
                s.condition(&pred.const_compared_attrs(), &pred.attr_pairs());
                s
            }
            Operator::Having { pred } => {
                let mut s = child(0).clone();
                let resolved = plan.agg_scope(id).unwrap_or_default().resolve(pred);
                s.condition(&resolved.const_compared_attrs(), &resolved.attr_pairs());
                s
            }
            Operator::Product => child(0).merge(child(1)),
            Operator::Join { on, residual, .. } => {
                let mut s = child(0).merge(child(1));
                for (l, _, r) in on {
                    s.links.push((l.0, r.0));
                }
                if let Some(res) = residual {
                    s.condition(&res.const_compared_attrs(), &res.attr_pairs());
                }
                s
            }
            Operator::GroupBy { keys, aggs } => {
                let c = child(0);
                let mut kept: BTreeSet<u32> = keys.iter().map(|k| k.0).collect();
                for ag in aggs {
                    kept.insert(ag.output.0);
                }
                let mut s = c.clone();
                for k in keys {
                    if c.plain.contains(&k.0) {
                        s.hinted_plain.insert(k.0);
                    }
                    if c.cipher.contains(&k.0) {
                        s.hinted_cipher.insert(k.0);
                    }
                }
                s.plain.retain(|a| kept.contains(a));
                s.cipher.retain(|a| kept.contains(a));
                // Compound aggregate inputs become derivable from the
                // output (µ composed with γ).
                for ag in aggs {
                    let ins = ag.input.attrs();
                    if ins.len() > 1 {
                        for a in ins.iter() {
                            s.links.push((a.0, ag.output.0));
                        }
                    }
                }
                // COUNT outputs are plaintext integers whatever form
                // the counted attribute arrives in (the same rule as
                // `mpq_core::profile::propagate` — this shadow is the
                // independent N-version of it).
                for ag in aggs {
                    if matches!(ag.func, AggFunc::Count | AggFunc::CountDistinct)
                        && !keys.iter().any(|k| k.0 == ag.output.0)
                        && s.cipher.remove(&ag.output.0)
                    {
                        s.plain.insert(ag.output.0);
                    }
                }
                s
            }
            Operator::Udf { inputs, output, .. } => {
                let mut s = child(0).clone();
                for a in inputs {
                    if *a != *output {
                        s.plain.remove(&a.0);
                        s.cipher.remove(&a.0);
                    }
                }
                if inputs.len() > 1 {
                    for a in inputs {
                        s.links.push((a.0, output.0));
                    }
                }
                s
            }
            Operator::Encrypt { attrs } => {
                let mut s = child(0).clone();
                s.encrypt(attrs);
                s
            }
            Operator::Decrypt { attrs } => {
                let mut s = child(0).clone();
                s.decrypt(attrs);
                s
            }
            Operator::Sort { .. } | Operator::Limit { .. } => child(0).clone(),
        };
        out[id.index()] = s;
    }
    out
}

// ---------------------------------------------------------------------
// passes
// ---------------------------------------------------------------------

/// One verification: its inputs, the plan's walk order and parent
/// links, both profile derivations — each computed once — and the
/// report every pass adds its findings and decided coverage to.
struct Verifier<'a> {
    ext: &'a ExtendedPlan,
    plan: &'a QueryPlan,
    keys: &'a KeyPlan,
    catalog: &'a Catalog,
    subjects: &'a Subjects,
    views: &'a [SubjectView],
    deliver_to: Option<SubjectId>,
    order: Vec<NodeId>,
    parents: Vec<Option<NodeId>>,
    /// `profile.rs`'s derivation; `shadow` is this module's independent
    /// one. They must agree with each other and with the annotations
    /// carried by the extended plan.
    fresh: Vec<Profile>,
    shadow: Vec<Shadow>,
    /// In a cell, so that a pass walking `order` can report.
    report: RefCell<VerifyReport>,
}

/// Root-to-node operator path, span-style.
fn node_path(plan: &QueryPlan, parents: &[Option<NodeId>], id: NodeId) -> String {
    let mut chain = vec![id];
    let mut cur = id;
    while let Some(p) = parents[cur.index()] {
        chain.push(p);
        cur = p;
    }
    chain
        .iter()
        .rev()
        .map(|n| format!("{}[{n}]", plan.node(*n).op.name()))
        .collect::<Vec<_>>()
        .join(" ▸ ")
}

impl Verifier<'_> {
    fn diag(&self, code: Code, node: Option<NodeId>, message: String) {
        let path = node
            .map(|n| node_path(self.plan, &self.parents, n))
            .unwrap_or_default();
        let mut report = self.report.borrow_mut();
        report.coverage.codes.insert(code);
        report.diagnostics.push(Diagnostic {
            code,
            node,
            path,
            message,
        });
    }

    /// The coverage vector, for a pass to record what it just decided.
    fn cover(&self) -> RefMut<'_, VerifyCoverage> {
        RefMut::map(self.report.borrow_mut(), |r| &mut r.coverage)
    }

    /// MPQ006: structural validity, crypto-operator coherence, and the
    /// PR 1 bug class (`HAVING` matching only a *direct* `GROUP BY` child
    /// and thereby missing spliced crypto).
    fn pass_wellformed(&self) {
        let (plan, catalog) = (self.plan, self.catalog);
        if let Err(e) = plan.validate(catalog) {
            self.diag(Code::Malformed, None, format!("{e}"));
        }
        for &id in &self.order {
            let node = plan.node(id);
            match &node.op {
                Operator::Having { .. } if plan.agg_scope(id).is_none() => self.diag(
                    Code::Malformed,
                    Some(id),
                    "HAVING has no GROUP BY below it (even through crypto operators)".to_string(),
                ),
                Operator::Encrypt { attrs } => {
                    let c = &self.shadow[node.children[0].index()];
                    let bad: Vec<&str> = attrs
                        .iter()
                        .filter(|a| !c.plain.contains(&a.0))
                        .map(|a| catalog.attr_name(*a))
                        .collect();
                    if !bad.is_empty() {
                        self.diag(
                            Code::Malformed,
                            Some(id),
                            format!(
                                "encrypting {}, which is not plaintext-visible here",
                                bad.join(", ")
                            ),
                        );
                    }
                }
                Operator::Decrypt { attrs } => {
                    let c = &self.shadow[node.children[0].index()];
                    let bad: Vec<&str> = attrs
                        .iter()
                        .filter(|a| !c.cipher.contains(&a.0))
                        .map(|a| catalog.attr_name(*a))
                        .collect();
                    if !bad.is_empty() {
                        self.diag(
                            Code::Malformed,
                            Some(id),
                            format!("decrypting {}, which is not encrypted here", bad.join(", ")),
                        );
                    }
                }
                _ => {}
            }
        }
    }

    /// MPQ007: the two independent derivations, and the annotations the
    /// runtime trusts, must agree profile-for-profile.
    fn pass_flow_divergence(&self) {
        let catalog = self.catalog;
        for &id in &self.order {
            let reference = &self.fresh[id.index()];
            let independent = self.shadow[id.index()].to_profile();
            if &independent != reference {
                self.diag(
                    Code::FlowDivergence,
                    Some(id),
                    format!(
                        "independent Fig. 2 re-derivation disagrees with profile.rs \
                         (shadow vp {} / ve {} vs reference vp {} / ve {})",
                        catalog.render_attrs(&independent.vp),
                        catalog.render_attrs(&independent.ve),
                        catalog.render_attrs(&reference.vp),
                        catalog.render_attrs(&reference.ve),
                    ),
                );
            }
            match self.ext.profiles.get(id.index()) {
                Some(annotated) if annotated == reference => {}
                Some(annotated) => self.diag(
                    Code::FlowDivergence,
                    Some(id),
                    format!(
                        "the plan's carried profile annotation is stale \
                         (annotated vp {} / ve {} vs derived vp {} / ve {})",
                        catalog.render_attrs(&annotated.vp),
                        catalog.render_attrs(&annotated.ve),
                        catalog.render_attrs(&reference.vp),
                        catalog.render_attrs(&reference.ve),
                    ),
                ),
                None => self.diag(
                    Code::FlowDivergence,
                    Some(id),
                    "the plan carries no profile annotation for this node".to_string(),
                ),
            }
        }
    }

    /// MPQ008: every node assigned; leaves assigned to the storing
    /// authority.
    fn pass_assignment(&self) {
        let subjects = self.subjects;
        for &id in &self.order {
            let Some(&s) = self.ext.assignment.get(&id) else {
                self.diag(
                    Code::BadAssignment,
                    Some(id),
                    "node has no assigned subject".to_string(),
                );
                continue;
            };
            if let Operator::Base { rel, .. } = &self.plan.node(id).op {
                match subjects.authority(*rel) {
                    None => self.diag(
                        Code::BadAssignment,
                        Some(id),
                        "base relation has no declared data authority".to_string(),
                    ),
                    Some(auth) if auth != s => self.diag(
                        Code::BadAssignment,
                        Some(id),
                        format!(
                            "leaf assigned to {}, but its relation is stored by {}",
                            subjects.name(s),
                            subjects.name(auth)
                        ),
                    ),
                    Some(_) => {}
                }
            }
        }
    }

    /// MPQ001: Def. 4.1 closure — every assignee authorized for every
    /// profile it touches (operands and result), with *all* failing
    /// conditions named via [`SubjectView::explain_failure`]. Records
    /// each condition's outcome per (assignee, touched profile).
    fn pass_authorization(&self) {
        let plan = self.plan;
        for &id in &self.order {
            let node = plan.node(id);
            if node.children.is_empty() {
                continue; // leaves: authority agreement is MPQ008's job
            }
            let Some(&s) = self.ext.assignment.get(&id) else {
                continue; // already MPQ008
            };
            let Some(view) = self.views.get(s.index()) else {
                continue;
            };
            for t in node.children.iter().copied().chain([id]) {
                let mut failed = [false; 3];
                for violation in view.explain_failure(&self.fresh[t.index()]) {
                    let (condition, why) = render_violation(&violation, self.catalog);
                    failed[condition] = true;
                    self.diag(
                        Code::UnauthorizedAssignee,
                        Some(id),
                        format!(
                            "{} touches {}{} but is {why}",
                            self.subjects.name(s),
                            plan.node(t).op.name(),
                            if t == id { " (its own result)" } else { "" },
                        ),
                    );
                }
                let mut cov = self.cover();
                for (i, f) in failed.into_iter().enumerate() {
                    if f {
                        cov.def41_fail[i] = true;
                    } else {
                        cov.def41_pass[i] = true;
                    }
                }
            }
        }
    }

    /// MPQ002: per subject-pair edge, the *shadow-derived* visible
    /// plaintext must be inside the receiver's `P_S`, and the visible
    /// ciphertext inside `P_S ∪ E_S` — the static twin of the wire audit,
    /// including the final root → user delivery.
    fn pass_edges(&self) {
        let (catalog, subjects) = (self.catalog, self.subjects);
        let check_edge = |producer_node: NodeId, receiver: SubjectId, at: NodeId| {
            let Some(view) = self.views.get(receiver.index()) else {
                return;
            };
            let s = &self.shadow[producer_node.index()];
            let leaked: Vec<&str> = s
                .plain
                .iter()
                .filter(|&&a| !view.plain.contains(AttrId(a)))
                .map(|&a| catalog.attr_name(AttrId(a)))
                .collect();
            if !leaked.is_empty() {
                self.diag(
                    Code::PlaintextLeak,
                    Some(at),
                    format!(
                        "plaintext {} would reach {}, whose view does not permit it",
                        leaked.join(", "),
                        subjects.name(receiver)
                    ),
                );
            }
            let visible = view.visible();
            let invisible: Vec<&str> = s
                .cipher
                .iter()
                .filter(|&&a| !visible.contains(AttrId(a)))
                .map(|&a| catalog.attr_name(AttrId(a)))
                .collect();
            if !invisible.is_empty() {
                self.diag(
                    Code::PlaintextLeak,
                    Some(at),
                    format!(
                        "attribute(s) {} would reach {}, who has no visibility over them in any form",
                        invisible.join(", "),
                        subjects.name(receiver)
                    ),
                );
            }
        };
        for &id in &self.order {
            let Some(&executor) = self.ext.assignment.get(&id) else {
                continue;
            };
            for &child in &self.plan.node(id).children {
                let Some(&producer) = self.ext.assignment.get(&child) else {
                    continue;
                };
                if producer != executor {
                    check_edge(child, executor, id);
                }
            }
        }
        // The delivery edge: the querying user receives the root's table
        // and audits it like any other receiver.
        if let Some(user) = self.deliver_to {
            check_edge(self.plan.root(), user, self.plan.root());
        }
    }

    /// MPQ003: every crypto operation's assignee must hold a Def. 6.1 key
    /// covering each attribute it transforms; every Paillier-aggregated
    /// encrypted attribute must be covered by *some* cluster (the
    /// aggregator only needs the public half, which provisioning delivers
    /// to every computing subject). Records the clusters' shapes.
    fn pass_keys(&self) {
        let (keys, catalog) = (self.keys, self.catalog);
        for k in &keys.keys {
            let shape = (k.attrs.len().min(3) as u8, k.holders.len().min(3) as u8);
            self.cover().cluster_shapes.insert(shape);
        }
        for &id in &self.order {
            let node = self.plan.node(id);
            match &node.op {
                Operator::Encrypt { attrs } | Operator::Decrypt { attrs } => {
                    let Some(&s) = self.ext.assignment.get(&id) else {
                        continue;
                    };
                    for a in attrs {
                        match keys.key_for(*a) {
                            None => self.diag(
                                Code::KeyUnavailable,
                                Some(id),
                                format!(
                                    "no Def. 6.1 cluster covers attribute {}",
                                    catalog.attr_name(*a)
                                ),
                            ),
                            Some(k) if !k.holders.contains(&s) => self.diag(
                                Code::KeyUnavailable,
                                Some(id),
                                format!(
                                    "{} must {} {} but holds no key for its cluster \
                                     (k{} goes to {})",
                                    self.subjects.name(s),
                                    node.op.name(),
                                    catalog.attr_name(*a),
                                    catalog.render_attrs(&k.attrs),
                                    self.subjects.render(&k.holders),
                                ),
                            ),
                            Some(_) => {}
                        }
                    }
                }
                Operator::GroupBy { aggs, .. } => {
                    // Homomorphic aggregation over an encrypted attribute
                    // needs that attribute's public Paillier half — which
                    // exists only if some cluster covers the attribute.
                    let c = &self.shadow[node.children[0].index()];
                    for ag in aggs {
                        if !matches!(ag.func, AggFunc::Sum | AggFunc::Avg) {
                            continue;
                        }
                        if let Expr::Col(a) = ag.input {
                            if c.cipher.contains(&a.0) && keys.key_for(a).is_none() {
                                self.diag(
                                    Code::KeyUnavailable,
                                    Some(id),
                                    format!(
                                        "homomorphic {} over encrypted {} has no covering \
                                         Def. 6.1 cluster (no public half to aggregate under)",
                                        ag.func,
                                        catalog.attr_name(a)
                                    ),
                                );
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Collect, independently of `assign_schemes`, the ciphertext
    /// capabilities each encrypted attribute must support.
    fn collect_cap_demands(&self) -> HashMap<AttrId, NeededCaps> {
        let plan = self.plan;
        let mut caps: HashMap<AttrId, NeededCaps> = HashMap::new();
        let mut pairs = Vec::new();
        let need = |caps: &mut HashMap<AttrId, NeededCaps>, a: AttrId, id: NodeId, what: u8| {
            let c = caps.entry(a).or_default();
            match what {
                0 => {
                    c.eq = true;
                    c.cmp_at.get_or_insert(id);
                }
                1 => {
                    c.ord = true;
                    c.cmp_at.get_or_insert(id);
                }
                _ => {
                    c.add = true;
                    c.add_at.get_or_insert(id);
                }
            }
        };
        for &id in &self.order {
            let node = plan.node(id);
            let enc_at =
                |i: usize| -> &BTreeSet<u32> { &self.shadow[node.children[i].index()].cipher };
            match &node.op {
                Operator::Select { pred } => {
                    cmp_demands(pred, enc_at(0), &mut |a, eq| {
                        need(&mut caps, a, id, if eq { 0 } else { 1 })
                    });
                }
                Operator::Having { pred } => {
                    let resolved = plan.agg_scope(id).unwrap_or_default().resolve(pred);
                    cmp_demands(&resolved, enc_at(0), &mut |a, eq| {
                        need(&mut caps, a, id, if eq { 0 } else { 1 })
                    });
                }
                Operator::Join { on, residual, .. } => {
                    let (le, re) = (enc_at(0), enc_at(1));
                    for (l, op, r) in on {
                        if le.contains(&l.0) || re.contains(&r.0) {
                            let what = if op.is_equality() || *op == CmpOp::Ne {
                                0
                            } else {
                                1
                            };
                            need(&mut caps, *l, id, what);
                            need(&mut caps, *r, id, what);
                            pairs.push((*l, *r));
                        }
                    }
                    if let Some(res) = residual {
                        let combined: BTreeSet<u32> = le.union(re).copied().collect();
                        cmp_demands(res, &combined, &mut |a, eq| {
                            need(&mut caps, a, id, if eq { 0 } else { 1 })
                        });
                    }
                }
                Operator::GroupBy { keys, aggs } => {
                    let enc = enc_at(0);
                    for k in keys {
                        if enc.contains(&k.0) {
                            need(&mut caps, *k, id, 0);
                        }
                    }
                    for ag in aggs {
                        if let Expr::Col(a) = ag.input {
                            if enc.contains(&a.0) {
                                match ag.func {
                                    AggFunc::Sum | AggFunc::Avg => need(&mut caps, a, id, 2),
                                    AggFunc::Min | AggFunc::Max => need(&mut caps, a, id, 1),
                                    AggFunc::CountDistinct => need(&mut caps, a, id, 0),
                                    AggFunc::Count => {}
                                }
                            }
                        }
                    }
                }
                Operator::Sort { keys } => {
                    let enc = enc_at(0);
                    for (e, _) in keys {
                        for a in e.attrs().iter() {
                            if enc.contains(&a.0) {
                                need(&mut caps, a, id, 1);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // The engine compares a join pair's ciphertexts, so both sides —
        // and every pair chained to them — resolve to one scheme. Needs
        // only grow and sites only move to a lesser node id: this ends.
        while let Some(&(l, r)) = pairs.iter().find(|(l, r)| caps[l] != caps[r]) {
            let (x, y) = (caps[&l], caps[&r]);
            let both = NeededCaps {
                eq: x.eq || y.eq,
                ord: x.ord || y.ord,
                add: x.add || y.add,
                add_at: x.add_at.into_iter().chain(y.add_at).min(),
                cmp_at: x.cmp_at.into_iter().chain(y.cmp_at).min(),
            };
            caps.extend([(l, both), (r, both)]);
        }
        caps
    }

    /// MPQ004: flag attributes demanding both homomorphic addition and
    /// comparison — no single scheme in the §7 suite supports that
    /// combination. Records the scheme family each encrypted attribute's
    /// demands resolve to.
    fn pass_schemes(&self) {
        let caps = self.collect_cap_demands();
        for a in self.ext.encrypted_attrs.iter() {
            let choice = caps
                .get(&a)
                .map_or(SchemeChoice::Random, NeededCaps::choice);
            self.cover().schemes.insert(choice);
        }
        let mut conflicted: Vec<(AttrId, NeededCaps)> = caps
            .into_iter()
            .filter(|(_, c)| c.choice() == SchemeChoice::Conflict)
            .collect();
        conflicted.sort_by_key(|(a, _)| a.0);
        for (a, c) in conflicted {
            self.diag(
                Code::SchemeConflict,
                c.add_at.or(c.cmp_at),
                format!(
                    "encrypted attribute {} needs homomorphic addition and {} comparison: \
                     no scheme supports both",
                    self.catalog.attr_name(a),
                    if c.ord { "order" } else { "equality" },
                ),
            );
        }
    }

    /// MPQ005: literal/column type agreement — the static form of the PR 3
    /// bug class (an OPE-encrypted integer column compared against a
    /// fractional literal silently matches nothing once encoded).
    fn pass_literal_types(&self) {
        let catalog = self.catalog;
        for &id in &self.order {
            let check = |pred: &Expr| {
                literal_comparisons(pred, &mut |a, op, v| {
                    let Some(lit_ty) = v.data_type() else {
                        return; // NULL compares with anything
                    };
                    if let Some(msg) = literal_mismatch(catalog.attr_type(a), lit_ty, op, v) {
                        self.diag(
                            Code::TypeMismatch,
                            Some(id),
                            format!("{} {msg}", catalog.attr_name(a)),
                        );
                    }
                });
            };
            match &self.plan.node(id).op {
                Operator::Select { pred } | Operator::Having { pred } => check(pred),
                Operator::Join {
                    residual: Some(res),
                    ..
                } => check(res),
                _ => {}
            }
        }
    }

    /// MPQ009: both sides of a join condition arrive in one form.
    /// Plan extension encrypts, below the join and by its assignee, a
    /// side arriving in plaintext while its partner arrives encrypted;
    /// a plan comparing `Enc(a)` against plaintext `b` lacks that
    /// encryption, and the engine would refuse it with
    /// `ExecError::MixedForm` instead of silently matching zero rows.
    /// Records each join condition as uniform or mixed.
    fn pass_mixed_form(&self) {
        for &id in &self.order {
            let node = self.plan.node(id);
            let Operator::Join { on, .. } = &node.op else {
                continue;
            };
            let ls = &self.shadow[node.children[0].index()];
            let rs = &self.shadow[node.children[1].index()];
            for &(l, op, r) in on {
                let mixed = (ls.cipher.contains(&l.0) && rs.plain.contains(&r.0))
                    || (ls.plain.contains(&l.0) && rs.cipher.contains(&r.0));
                self.cover().mixed_form[usize::from(mixed)] = true;
                if mixed {
                    self.diag(
                        Code::MixedForm,
                        Some(id),
                        format!(
                            "join condition {} {op} {} compares ciphertext against \
                             plaintext: no encryption below the join gives both sides \
                             one form; the runtime would abort with a mixed-form error",
                            self.catalog.attr_name(l),
                            self.catalog.attr_name(r),
                        ),
                    );
                }
            }
        }
    }
}

/// An [`AuthzViolation`]'s Def. 4.1 condition (0-based) and its
/// rendering with attribute names instead of raw ids.
fn render_violation(v: &AuthzViolation, catalog: &Catalog) -> (usize, String) {
    match v {
        AuthzViolation::Plaintext(s) => (
            0,
            format!(
                "not plaintext-authorized for {} (Def. 4.1 cond. 1)",
                catalog.render_attrs(s)
            ),
        ),
        AuthzViolation::Encrypted(s) => (
            1,
            format!(
                "without visibility over {} (Def. 4.1 cond. 2)",
                catalog.render_attrs(s)
            ),
        ),
        AuthzViolation::NonUniform(s) => (
            2,
            format!(
                "non-uniformly authorized over the equivalence class {} (Def. 4.1 cond. 3)",
                catalog.render_attrs(s)
            ),
        ),
    }
}

/// Ciphertext capabilities one attribute must support (the independent
/// twin of `mpq_exec::assign_schemes`' analysis).
#[derive(Clone, Copy, Default, PartialEq)]
struct NeededCaps {
    eq: bool,
    ord: bool,
    add: bool,
    /// A node where the homomorphic demand arises (for the diagnostic).
    add_at: Option<NodeId>,
    /// A node where a comparison demand arises.
    cmp_at: Option<NodeId>,
}

impl NeededCaps {
    /// The scheme family these demands resolve to.
    fn choice(&self) -> SchemeChoice {
        match self {
            c if c.add && (c.eq || c.ord) => SchemeChoice::Conflict,
            c if c.add => SchemeChoice::Paillier,
            c if c.ord => SchemeChoice::Ope,
            c if c.eq => SchemeChoice::Deterministic,
            _ => SchemeChoice::Random,
        }
    }
}

/// Walk the comparisons a predicate performs on encrypted columns,
/// reporting `(attr, is_equality)` per demand.
fn cmp_demands(e: &Expr, enc: &BTreeSet<u32>, f: &mut impl FnMut(AttrId, bool)) {
    match e {
        Expr::Cmp(a, op, b) => {
            let is_eq = op.is_equality() || *op == CmpOp::Ne;
            for side in [a.as_ref(), b.as_ref()] {
                if let Expr::Col(x) = side {
                    if enc.contains(&x.0) {
                        f(*x, is_eq);
                    }
                }
            }
        }
        Expr::Between { expr, .. } => {
            if let Expr::Col(x) = expr.as_ref() {
                if enc.contains(&x.0) {
                    f(*x, false);
                }
            }
        }
        Expr::InList { expr, .. } => {
            if let Expr::Col(x) = expr.as_ref() {
                if enc.contains(&x.0) {
                    f(*x, true);
                }
            }
        }
        Expr::And(v) | Expr::Or(v) => {
            for x in v {
                cmp_demands(x, enc, f);
            }
        }
        Expr::Not(x) => cmp_demands(x, enc, f),
        _ => {}
    }
}

/// Why a column/literal pairing cannot be satisfied, if it cannot.
fn literal_mismatch(col: DataType, lit: DataType, op: CmpOp, v: &Value) -> Option<String> {
    let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Num);
    if col == lit {
        return None;
    }
    if numeric(col) && numeric(lit) {
        // Int/Num coercion exists, except an *equality* against a
        // fractional literal on an integer column can never hold.
        if col == DataType::Int && op.is_equality() {
            if let Value::Num(x) = v {
                if x.fract() != 0.0 {
                    return Some(format!(
                        "is an integer column compared for equality against the \
                         fractional literal {x}"
                    ));
                }
            }
        }
        return None;
    }
    Some(format!(
        "has type {col:?} but is compared against a {lit:?} literal"
    ))
}

/// Visit every `column op literal` comparison of a predicate
/// (including BETWEEN bounds and IN lists).
fn literal_comparisons(e: &Expr, f: &mut impl FnMut(AttrId, CmpOp, &Value)) {
    match e {
        Expr::Cmp(a, op, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(x), Expr::Lit(v)) => f(*x, *op, v),
            (Expr::Lit(v), Expr::Col(x)) => f(*x, op.flipped(), v),
            _ => {
                literal_comparisons(a, f);
                literal_comparisons(b, f);
            }
        },
        Expr::Between { expr, lo, hi, .. } => {
            if let Expr::Col(x) = expr.as_ref() {
                if let Expr::Lit(v) = lo.as_ref() {
                    f(*x, CmpOp::Ge, v);
                }
                if let Expr::Lit(v) = hi.as_ref() {
                    f(*x, CmpOp::Le, v);
                }
            }
        }
        Expr::InList { expr, list, .. } => {
            if let Expr::Col(x) = expr.as_ref() {
                for v in list {
                    f(*x, CmpOp::Eq, v);
                }
            }
        }
        Expr::And(v) | Expr::Or(v) => {
            for x in v {
                literal_comparisons(x, f);
            }
        }
        Expr::Not(x) => literal_comparisons(x, f),
        Expr::Case { branches, else_ } => {
            for (c, val) in branches {
                literal_comparisons(c, f);
                literal_comparisons(val, f);
            }
            if let Some(x) = else_ {
                literal_comparisons(x, f);
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// fuzzing coverage
// ---------------------------------------------------------------------

/// The scheme family an encrypted attribute's capability demands
/// resolve to — the verifier-side mirror of `mpq_exec::assign_schemes`
/// ("the scheme providing highest protection, while supporting the
/// operations to be executed", §6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchemeChoice {
    /// No operation touches the ciphertext: randomized encryption.
    Random,
    /// Equality only: deterministic encryption.
    Deterministic,
    /// Order comparisons: OPE.
    Ope,
    /// Homomorphic accumulation: Paillier.
    Paillier,
    /// Irreconcilable demands (the MPQ004 case).
    Conflict,
}

impl SchemeChoice {
    /// All choices, for coverage reports.
    pub const ALL: [SchemeChoice; 5] = [
        SchemeChoice::Random,
        SchemeChoice::Deterministic,
        SchemeChoice::Ope,
        SchemeChoice::Paillier,
        SchemeChoice::Conflict,
    ];

    /// Short display name.
    pub fn as_str(self) -> &'static str {
        match self {
            SchemeChoice::Random => "random",
            SchemeChoice::Deterministic => "det",
            SchemeChoice::Ope => "ope",
            SchemeChoice::Paillier => "paillier",
            SchemeChoice::Conflict => "conflict",
        }
    }
}

/// Mixed-form join cases a scenario can exercise (the MPQ009 axis).
const MIXED_FORM_CASES: [&str; 2] = ["uniform", "mixed"];

/// What one verified scenario exercised, recorded by the passes as they
/// decide it ([`VerifyReport::coverage`]): the coverage vector the
/// `mpq-fuzz` differential harness accumulates across runs. Every axis
/// is a set of observed outcomes; [`VerifyCoverage::merge`] unions
/// scenarios, and the fuzzer's floor check demands each axis reach its
/// known outcome space.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyCoverage {
    /// Def. 4.1 condition `i+1` observed *satisfied* for some
    /// (assignee, profile) check.
    pub def41_pass: [bool; 3],
    /// Def. 4.1 condition `i+1` observed *violated*.
    pub def41_fail: [bool; 3],
    /// Def. 6.1 cluster shapes seen: `(attrs, holders)`, both counts
    /// saturating at 3 so the space stays finite.
    pub cluster_shapes: BTreeSet<(u8, u8)>,
    /// Scheme families demanded by the plan's encrypted attributes.
    pub schemes: BTreeSet<SchemeChoice>,
    /// Join-form cases seen, indexed like `MIXED_FORM_CASES`: a join
    /// condition in one form, one comparing ciphertext against
    /// plaintext.
    pub mixed_form: [bool; 2],
    /// Diagnostic codes that fired.
    pub codes: BTreeSet<Code>,
}

impl VerifyCoverage {
    /// Union another scenario's coverage into this accumulator.
    pub fn merge(&mut self, other: &VerifyCoverage) {
        for i in 0..3 {
            self.def41_pass[i] |= other.def41_pass[i];
            self.def41_fail[i] |= other.def41_fail[i];
        }
        for i in 0..2 {
            self.mixed_form[i] |= other.mixed_form[i];
        }
        self.cluster_shapes
            .extend(other.cluster_shapes.iter().copied());
        self.schemes.extend(other.schemes.iter().copied());
        self.codes.extend(other.codes.iter().copied());
    }

    /// `true` when every Def. 4.1 condition has been seen both
    /// satisfied and violated — the fuzzer's hard floor.
    pub fn def41_complete(&self) -> bool {
        self.def41_pass.iter().all(|&b| b) && self.def41_fail.iter().all(|&b| b)
    }

    /// Multi-line textual report (the CI coverage artifact).
    pub fn report(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for i in 0..3 {
            let _ = writeln!(
                out,
                "def41.cond{}: pass={} fail={}",
                i + 1,
                self.def41_pass[i],
                self.def41_fail[i]
            );
        }
        let shapes: Vec<String> = self
            .cluster_shapes
            .iter()
            .map(|(a, h)| format!("{a}x{h}"))
            .collect();
        let _ = writeln!(out, "def61.cluster_shapes: {}", shapes.join(" "));
        let schemes: Vec<&str> = self.schemes.iter().map(|s| s.as_str()).collect();
        let _ = writeln!(out, "schemes: {}", schemes.join(" "));
        for (i, name) in MIXED_FORM_CASES.iter().enumerate() {
            let _ = writeln!(out, "mixed_form.{name}: {}", self.mixed_form[i]);
        }
        let codes: Vec<String> = self.codes.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(out, "codes: {}", codes.join(" "));
        out
    }
}

// ---------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidates;
    use crate::capability::CapabilityPolicy;
    use crate::extend::{minimally_extend, Assignment};
    use crate::fixtures::RunningExample;
    use crate::keys::plan_keys;

    fn verify(ex: &RunningExample, ext: &ExtendedPlan) -> VerifyReport {
        let keys = plan_keys(ext);
        verify_with_policy(
            ext,
            &keys,
            &ex.catalog,
            &ex.subjects,
            &ex.policy,
            Some(ex.subject("U")),
        )
    }

    /// Fig. 7(b)'s assignment (σ→H, ⋈→Z, γ→Z, σᵧ→Y), minimally
    /// extended.
    fn fig7b(ex: &RunningExample) -> ExtendedPlan {
        assigned(ex, ["H", "Z", "Z", "Y"])
    }

    /// The running example with σ, ⋈, γ and σᵧ assigned to `subjects`,
    /// minimally extended.
    fn assigned(ex: &RunningExample, subjects: [&str; 4]) -> ExtendedPlan {
        let cands = candidates(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &CapabilityPolicy::default(),
            true,
        );
        let mut a = Assignment::new();
        for (node, s) in ["select_d", "join", "group", "having"].iter().zip(subjects) {
            a.set(ex.node(node), ex.subject(s));
        }
        minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &a,
            Some(ex.subject("U")),
        )
        .expect("the assignment is drawn from Λ")
    }

    #[test]
    fn fig7_plans_verify_clean() {
        let ex = RunningExample::new();
        let a = verify(&ex, &ex.fig7a_extended());
        assert!(a.is_clean(), "fig7a should be clean:\n{a}");
        let b = verify(&ex, &fig7b(&ex));
        assert!(b.is_clean(), "fig7b should be clean:\n{b}");
        let user = verify(&ex, &assigned(&ex, ["U", "U", "U", "U"]));
        assert!(user.is_clean(), "fig7-user should be clean:\n{user}");
    }

    #[test]
    fn unassigned_node_fires_mpq008() {
        let ex = RunningExample::new();
        let mut ext = ex.fig7a_extended();
        ext.assignment.remove(&ex.node("join"));
        let r = verify(&ex, &ext);
        assert!(r.has(Code::BadAssignment), "{r}");
    }

    #[test]
    fn leaf_away_from_authority_fires_mpq008() {
        let ex = RunningExample::new();
        let mut ext = ex.fig7a_extended();
        ext.assignment.insert(ex.node("base_hosp"), ex.subject("I"));
        let r = verify(&ex, &ext);
        assert!(r.has(Code::BadAssignment), "{r}");
    }

    #[test]
    fn stale_profile_annotation_fires_mpq007() {
        let ex = RunningExample::new();
        let mut ext = ex.fig7a_extended();
        let root = ext.plan.root();
        ext.profiles[root.index()].vp = AttrSet::new();
        let r = verify(&ex, &ext);
        assert!(r.has(Code::FlowDivergence), "{r}");
    }

    #[test]
    fn coverage_tracks_def41_outcomes_schemes_and_codes() {
        let ex = RunningExample::new();

        // Fig. 7(a), clean: every Def. 4.1 condition observed passing,
        // at least one key cluster and one scheme family, a uniform
        // join form, no codes.
        let ext = ex.fig7a_extended();
        let clean = verify(&ex, &ext);
        assert!(clean.is_clean());
        let mut cov = clean.coverage;
        assert!(cov.def41_pass.iter().all(|b| *b), "{}", cov.report());
        assert!(cov.def41_fail.iter().all(|b| !*b), "{}", cov.report());
        assert!(!cov.cluster_shapes.is_empty());
        assert!(!cov.schemes.is_empty());
        assert!(cov.mixed_form[0], "fig7a joins in uniform form");
        assert!(cov.codes.is_empty());
        assert!(!cov.def41_complete(), "no violation observed yet");

        // The MPQ001/MPQ002 mutation: merging its coverage records the
        // failing condition outcomes and the fired codes.
        let mut bad = ex.fig7a_extended();
        bad.assignment.insert(ex.node("having"), ex.subject("X"));
        let report = verify(&ex, &bad);
        cov.merge(&report.coverage);
        assert!(cov.def41_fail.iter().any(|b| *b), "{}", cov.report());
        assert!(cov.codes.contains(&Code::UnauthorizedAssignee));
        assert!(cov.codes.contains(&Code::PlaintextLeak));
    }

    #[test]
    fn unauthorized_reassignment_fires_mpq001_and_mpq002() {
        let ex = RunningExample::new();
        let mut ext = ex.fig7a_extended();
        // σᵧ consumes decrypted (plaintext) premiums; provider X is
        // only encrypted-authorized for P. Statically: X fails
        // Def. 4.1 on the operand profile (MPQ001) and the Y → X edge
        // carries plaintext P (MPQ002) — the twin of the runtime wire
        // audit's LeakedPlaintext.
        ext.assignment.insert(ex.node("having"), ex.subject("X"));
        let r = verify(&ex, &ext);
        assert!(r.has(Code::UnauthorizedAssignee), "{r}");
        assert!(r.has(Code::PlaintextLeak), "{r}");
    }

    #[test]
    fn stripped_key_holders_fire_mpq003() {
        let ex = RunningExample::new();
        let ext = ex.fig7a_extended();
        let mut keys = plan_keys(&ext);
        for k in &mut keys.keys {
            k.holders.clear();
        }
        let r = verify_with_policy(
            &ext,
            &keys,
            &ex.catalog,
            &ex.subjects,
            &ex.policy,
            Some(ex.subject("U")),
        );
        assert!(r.has(Code::KeyUnavailable), "{r}");
    }

    #[test]
    fn empty_key_plan_fires_mpq003() {
        let ex = RunningExample::new();
        let ext = ex.fig7a_extended();
        let keys = KeyPlan { keys: Vec::new() };
        let r = verify_with_policy(
            &ext,
            &keys,
            &ex.catalog,
            &ex.subjects,
            &ex.policy,
            Some(ex.subject("U")),
        );
        assert!(r.has(Code::KeyUnavailable), "{r}");
    }

    #[test]
    fn bogus_decrypt_fires_mpq006() {
        let ex = RunningExample::new();
        let mut ext = ex.fig7a_extended();
        let decrypt = ext
            .plan
            .postorder()
            .into_iter()
            .find(|&id| matches!(ext.plan.node(id).op, Operator::Decrypt { .. }))
            .expect("fig7a decrypts P");
        ext.plan.node_mut(decrypt).op = Operator::Decrypt {
            attrs: vec![ex.attr("B")],
        };
        let r = verify(&ex, &ext);
        assert!(r.has(Code::Malformed), "{r}");
    }

    #[test]
    fn fractional_equality_on_str_column_fires_mpq005() {
        let ex = RunningExample::new();
        let mut ext = ex.fig7a_extended();
        // D (diagnosis) is a string column; comparing it against a
        // numeric literal can never match — the PR 3 bug class.
        ext.plan.node_mut(ex.node("select_d")).op = Operator::Select {
            pred: Expr::Cmp(
                Box::new(Expr::Col(ex.attr("D"))),
                CmpOp::Eq,
                Box::new(Expr::Lit(Value::Num(1.5))),
            ),
        };
        let r = verify(&ex, &ext);
        assert!(r.has(Code::TypeMismatch), "{r}");
    }

    #[test]
    fn homomorphic_plus_comparison_fires_mpq004() {
        let ex = RunningExample::new();
        let mut ext = ex.fig7a_extended();
        // In Fig. 7(a) P is Paillier-aggregated (needs homomorphic
        // addition). A residual range predicate over encrypted P at
        // the join adds an order demand: no scheme supports both.
        if let Operator::Join { residual, .. } = &mut ext.plan.node_mut(ex.node("join")).op {
            *residual = Some(Expr::Cmp(
                Box::new(Expr::Col(ex.attr("P"))),
                CmpOp::Lt,
                Box::new(Expr::Lit(Value::Num(500.0))),
            ));
        } else {
            panic!("fixture join node");
        }
        let r = verify(&ex, &ext);
        assert!(r.has(Code::SchemeConflict), "{r}");
    }

    /// A Λ-drawn assignment under which `S` reaches the join encrypted
    /// while `C` arrives in plaintext: the extension encrypts `C` below
    /// the join, by the join's assignee.
    fn mixed_form_plan(ex: &RunningExample) -> ExtendedPlan {
        let cands = candidates(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &CapabilityPolicy::default(),
            true,
        );
        let mut a = Assignment::new();
        for (node, s) in [
            ("select_d", "Y"),
            ("join", "Z"),
            ("group", "X"),
            ("having", "U"),
        ] {
            a.set(ex.node(node), ex.subject(s));
        }
        minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &a,
            Some(ex.subject("U")),
        )
        .expect("assignment is drawn from Λ")
    }

    /// `ext` without the `Encrypt` spliced below its join: the join
    /// reads that operand's child directly, and the carried profiles
    /// are re-derived, so only the join's forms are wrong.
    fn without_join_side_encrypt(ex: &RunningExample, ext: &ExtendedPlan) -> ExtendedPlan {
        let mut bad = ext.clone();
        let join = ex.node("join");
        let children = bad.plan.node(join).children.clone();
        let (side, enc) = (children.iter().enumerate())
            .find(|(_, &c)| matches!(bad.plan.node(c).op, Operator::Encrypt { .. }))
            .expect("an Encrypt below the join");
        let below = bad.plan.node(*enc).children[0];
        bad.plan.node_mut(join).children[side] = below;
        bad.profiles = profile_plan(&bad.plan);
        bad
    }

    #[test]
    fn a_mixed_pair_is_encrypted_below_the_join_by_its_assignee() {
        let ex = RunningExample::new();
        let ext = mixed_form_plan(&ex);
        let join = ex.node("join");
        let node = ext.plan.node(join);
        let enc = (node.children.iter())
            .find(|&&c| {
                ext.plan.node(c).op
                    == Operator::Encrypt {
                        attrs: vec![ex.attr("C")],
                    }
            })
            .expect("C is encrypted below the join");
        assert_eq!(ext.assignment[enc], ext.assignment[&join]);
        let (lp, rp) = (
            &ext.profiles[node.children[0].index()],
            &ext.profiles[node.children[1].index()],
        );
        assert!(lp.ve.contains(ex.attr("S")) && rp.ve.contains(ex.attr("C")));
        // The join's assignee holds the S/C key by the general rule.
        let keys = plan_keys(&ext);
        let k = keys.key_for(ex.attr("S")).expect("S is encrypted");
        assert!(k.attrs.contains(ex.attr("C")));
        assert!(k.holders.contains(&ext.assignment[&join]));
        let r = verify(&ex, &ext);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn a_join_without_its_side_encrypt_fires_mpq009() {
        let ex = RunningExample::new();
        let ext = without_join_side_encrypt(&ex, &mixed_form_plan(&ex));
        let r = verify(&ex, &ext);
        assert!(r.has(Code::MixedForm), "{r}");
        assert!(r.to_string().contains("MPQ009"), "{r}");
    }

    /// The passes record what they decide, and only that: a node the
    /// authorization pass skips (unassigned, or assigned to a subject
    /// without a view) records no Def. 4.1 outcome, and the mixed-form
    /// pass records each join condition's form where it classifies it.
    #[test]
    fn coverage_is_recorded_where_the_passes_decide_it() {
        let ex = RunningExample::new();
        let nothing = ([false; 3], [false; 3]);
        let def41 = |r: &VerifyReport| (r.coverage.def41_pass, r.coverage.def41_fail);

        // Every operation unassigned (keys planned before): MPQ008 fires
        // and no Def. 4.1 outcome is recorded.
        let ext = ex.fig7a_extended();
        let keys = plan_keys(&ext);
        let views = ex.policy.all_views(&ex.catalog, &ex.subjects);
        let mut unassigned = ext.clone();
        for id in ext.plan.postorder() {
            if !ext.plan.node(id).children.is_empty() {
                unassigned.assignment.remove(&id);
            }
        }
        let user = Some(ex.subject("U"));
        let r = verify_extended(&unassigned, &keys, &ex.catalog, &ex.subjects, &views, user);
        assert!(r.has(Code::BadAssignment), "{r}");
        assert_eq!(def41(&r), nothing, "{}", r.coverage.report());

        // Assignees without a view record nothing either.
        let r = verify_extended(&ext, &keys, &ex.catalog, &ex.subjects, &[], user);
        assert_eq!(def41(&r), nothing, "{}", r.coverage.report());

        // Fig. 7(a) joins in uniform form, and so does a plan whose
        // extension encrypted a join side; without that encryption the
        // join is mixed.
        assert_eq!(verify(&ex, &ext).coverage.mixed_form, [true, false]);
        let ext = mixed_form_plan(&ex);
        assert_eq!(verify(&ex, &ext).coverage.mixed_form, [true, false]);
        let ext = without_join_side_encrypt(&ex, &ext);
        assert_eq!(verify(&ex, &ext).coverage.mixed_form, [false, true]);
    }

    #[test]
    fn report_renders_codes_and_paths() {
        let ex = RunningExample::new();
        let mut ext = ex.fig7a_extended();
        ext.assignment.insert(ex.node("having"), ex.subject("X"));
        let r = verify(&ex, &ext);
        let text = r.to_string();
        assert!(text.contains("MPQ001"), "{text}");
        assert!(r.codes().contains(&Code::UnauthorizedAssignee));
        for d in &r.diagnostics {
            assert!(d.node.is_some());
            assert!(!d.path.is_empty(), "node-local findings carry a path");
        }
        // A diagnostic below the root renders the full operator chain.
        let mut ext = ex.fig7a_extended();
        let decrypt = ext
            .plan
            .postorder()
            .into_iter()
            .find(|&id| matches!(ext.plan.node(id).op, Operator::Decrypt { .. }))
            .expect("fig7a decrypts P");
        ext.assignment.insert(decrypt, ex.subject("X"));
        let r = verify(&ex, &ext);
        assert!(r.to_string().contains("▸"), "deep paths use ▸: {r}");
    }
}
