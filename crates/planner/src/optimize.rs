//! Operator-assignment optimization (§6–§7).
//!
//! "Our implementation is based on a dynamic programming strategy to
//! explore the possible assignments of candidates to operators in the
//! query plan to identify the solution with minimum cost."
//!
//! [`optimize`] runs the pipeline of §6:
//!
//! 1. compute the candidate sets Λ (Def. 5.3);
//! 2. choose an assignment λ ∈ Λ — by bottom-up dynamic programming
//!    over `(node, subject)` with pairwise transfer/encryption
//!    estimates, or exhaustively for validation;
//! 3. build the minimally extended authorized plan for λ (Def. 5.4) —
//!    steps 2–3 are effectively combined, as in the paper's tool,
//!    because the DP objective already prices the encryption each
//!    subject choice induces;
//! 4. derive the plan keys (Def. 6.1) and per-attribute schemes;
//! 5. cost the concrete extended plan exactly.
//!
//! Which scheme an attribute's ciphertexts need is not decided here.
//! The DP's edge estimate asks [`mpq_core::capability::needed_caps`]
//! what an attribute outside `A_p` *would* get, and step 4 asks
//! [`assign_schemes_with`], which folds the same table over the extended
//! plan: this module calls the capability table, it owns no rule of
//! it, so the DP cannot price one scheme and the plan run another.
//!
//! The §5 design alternatives are exposed as [`Strategy`] ablations:
//! *maximize visibility* (never encrypt; only subjects authorized for
//! plaintext qualify) and *minimize visibility* (encrypt everything at
//! the sources; decrypt only where operations demand plaintext). Each
//! strategy only picks the assignment — and minimize visibility one
//! more input of the one extension walk, `mpq_core::extend` — and
//! every plan leaves through [`finish`]: the Λ check, the user's final
//! decryption, the verifier post-condition and the exact cost, so an
//! ablation prices a plan the system would run.

use crate::cost::{cost_extended_plan, CostBreakdown};
use crate::scenario::ScenarioEnv;
use crate::stats::estimates_for;
use mpq_algebra::stats::{Estimate, StatsCatalog};
use mpq_algebra::value::EncScheme;
use mpq_algebra::{AttrId, Catalog, NodeId, Operator, QueryPlan, SubjectId};
use mpq_core::authz::SubjectView;
use mpq_core::candidates::{candidates, CandidateSet, Candidates};
use mpq_core::capability::{needed_caps, CapabilityPolicy};
use mpq_core::extend::{extend_plan, for_each_assignment, Assignment, ExtendedPlan};
use mpq_core::keys::{plan_keys, KeyPlan};
use mpq_core::profile::profile_plan;
use mpq_core::subjects::SubjectKind;
use mpq_exec::{assign_schemes_with, SchemePlan};

/// Assignment search strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Dynamic programming over Λ with minimal extension (default).
    CostDp,
    /// Exhaustive enumeration of Λ assignments (small plans only).
    Exhaustive,
    /// §5 ablation: never encrypt — only plaintext-authorized subjects
    /// may execute operations.
    MaximizeVisibility,
    /// §5 ablation: encrypt everything at the sources, decrypt only on
    /// operational demand — the one extension walk, with each leaf's
    /// encryption also carrying every attribute no ancestor needs in
    /// plaintext; the rest of the walk, the user's final decryption and
    /// the verification are those of every other strategy.
    MinimizeVisibility,
}

/// Optimization result.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// Chosen assignment (original non-leaf nodes).
    pub assignment: Assignment,
    /// The extended plan realizing it.
    pub extended: ExtendedPlan,
    /// Per-attribute encryption schemes.
    pub schemes: SchemePlan,
    /// Query-plan keys (Def. 6.1).
    pub keys: KeyPlan,
    /// Exact cost of the extended plan.
    pub cost: CostBreakdown,
}

/// Optimization errors.
#[derive(Clone, Debug)]
pub enum OptError {
    /// Some operation has an empty candidate set: no subject can
    /// execute it under the scenario's authorizations.
    NoCandidates(NodeId),
    /// Extension failed (should not happen for λ ∈ Λ).
    Extend(String),
    /// Scheme assignment failed (capability/scheme conflict).
    Schemes(String),
    /// The static verifier rejected the produced plan — the optimizer's
    /// post-condition failed (an internal bug, never a user error: every
    /// plan `optimize` returns must verify clean).
    Verify(mpq_core::verify::VerifyReport),
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::NoCandidates(n) => write!(f, "no authorized candidate for node {n}"),
            OptError::Extend(m) => write!(f, "extension failed: {m}"),
            OptError::Schemes(m) => write!(f, "scheme assignment failed: {m}"),
            OptError::Verify(r) => write!(f, "optimized plan failed static verification:\n{r}"),
        }
    }
}

impl std::error::Error for OptError {}

/// Run the full §6 pipeline and return the cheapest found plan.
///
/// # Example
///
/// Optimize TPC-H Q6 under the UAPenc scenario — the output carries
/// the minimally extended plan, its Def. 6.1 key establishment, and
/// the exact cost breakdown, ready for `mpq-dist` to execute:
///
/// ```
/// use mpq_core::capability::{needed_caps, CapabilityPolicy};
/// use mpq_planner::{build_scenario, optimize, Scenario, Strategy};
/// use mpq_planner::stats::{collect_stats, SampleConfig};
/// use mpq_tpch::{generate, query_plan};
///
/// let (catalog, db) = generate(0.001, 42);
/// let stats = collect_stats(&catalog, &db, &SampleConfig::default());
/// let env = build_scenario(&catalog, Scenario::UAPenc);
/// let plan = query_plan(&catalog, 6);
///
/// let opt = optimize(
///     &plan, &catalog, &stats, &env,
///     &CapabilityPolicy::tpch_evaluation(), Strategy::CostDp,
/// ).unwrap();
/// assert!(opt.cost.total() > 0.0);
/// // Every node of the extended plan has an authorized assignee.
/// assert_eq!(opt.extended.assignment.len(), opt.extended.plan.postorder().len());
/// ```
pub fn optimize(
    plan: &QueryPlan,
    catalog: &Catalog,
    stats: &StatsCatalog,
    env: &ScenarioEnv,
    cap: &CapabilityPolicy,
    strategy: Strategy,
) -> Result<Optimized, OptError> {
    let cands = candidates(plan, catalog, &env.policy, &env.subjects, cap, true);
    // The cheapest exactly-costed plan among those a strategy considers.
    let mut best: Option<Optimized> = None;
    let consider = |opt: Optimized, best: &mut Option<Optimized>| {
        let better = best
            .as_ref()
            .map(|b| opt.cost.total() < b.cost.total())
            .unwrap_or(true);
        if better {
            *best = Some(opt);
        }
    };
    match strategy {
        Strategy::CostDp => {
            // The DP edge estimates are approximate (exact ciphertext
            // expansion and scheme costs only materialize after the
            // minimal extension), so the DP pick is re-costed exactly
            // and compared against the always-feasible all-user
            // assignment — the optimizer never reports a plan worse
            // than simply shipping everything to the user.
            // Each distinct assignment is finished once: a repeat
            // would cost the same, and `consider` keeps the first of
            // two equal costs.
            let mut finished: Vec<Assignment> = Vec::new();
            let mut finish_new = |a: Assignment, best: &mut Option<Optimized>| {
                if !finished.contains(&a) {
                    finished.push(a.clone());
                    if let Ok(opt) = finish(plan, catalog, stats, env, &cands, a) {
                        consider(opt, best);
                    }
                }
            };
            // (1) DP over the full candidate sets.
            let dp = DpInputs::new(plan, catalog, stats, env, &cands);
            if let Ok(a) = dp_assignment(&dp, &cands.sets) {
                finish_new(a, &mut best);
            }
            // (2) DP restricted to user + authorities: providers can
            // never make this portfolio entry worse than the scenario
            // without providers, guaranteeing monotone scenario costs.
            let no_providers: Vec<CandidateSet> = (cands.sets.iter())
                .map(|set| {
                    (set.iter().copied())
                        .filter(|&s| env.subjects.kind(s) != SubjectKind::Provider)
                        .collect()
                })
                .collect();
            if let Ok(a) = dp_assignment(&dp, &no_providers) {
                finish_new(a, &mut best);
            }
            // (3) Everything at the user (always authorized).
            let mut all_user = Assignment::new();
            let mut user_feasible = true;
            for id in plan.postorder() {
                if !plan.node(id).children.is_empty() {
                    if cands.is_candidate(id, env.user) {
                        all_user.set(id, env.user);
                    } else {
                        user_feasible = false;
                        break;
                    }
                }
            }
            if user_feasible {
                finish_new(all_user, &mut best);
            }
            best.ok_or(OptError::NoCandidates(plan.root()))
        }
        Strategy::Exhaustive => {
            let mut err: Option<OptError> = None;
            for_each_assignment(plan, &cands, &mut |a| {
                match finish(plan, catalog, stats, env, &cands, a.clone()) {
                    Ok(opt) => consider(opt, &mut best),
                    Err(e) => err = Some(e),
                }
                true
            });
            best.ok_or_else(|| err.unwrap_or(OptError::NoCandidates(plan.root())))
        }
        Strategy::MaximizeVisibility => {
            // Candidates over the *plain* profiles (Def. 4.2 without
            // any encryption).
            let plain = plain_assignees(plan, &cands);
            for id in plan.postorder() {
                if !plan.node(id).children.is_empty() && plain[id.index()].is_empty() {
                    return Err(OptError::NoCandidates(id));
                }
            }
            let dp = DpInputs::new(plan, catalog, stats, env, &cands);
            let assignment = dp_assignment(&dp, &plain)?;
            finish(plan, catalog, stats, env, &cands, assignment)
        }
        Strategy::MinimizeVisibility => {
            let dp = DpInputs::new(plan, catalog, stats, env, &cands);
            let assignment = dp_assignment(&dp, &cands.sets)?;
            finish_as(true, plan, catalog, stats, env, &cands, assignment)
        }
    }
}

/// Assignees authorized on the plain (never-encrypted) profiles.
fn plain_assignees(plan: &QueryPlan, cands: &Candidates) -> Vec<Vec<SubjectId>> {
    let profiles = profile_plan(plan);
    let mut out = vec![Vec::new(); plan.len()];
    for id in plan.postorder() {
        let node = plan.node(id);
        if node.children.is_empty() {
            continue;
        }
        out[id.index()] = cands
            .views
            .iter()
            .filter(|v| {
                node.children
                    .iter()
                    .all(|c| v.authorized_for(&profiles[c.index()]))
                    && v.authorized_for(&profiles[id.index()])
            })
            .map(|v| v.subject)
            .collect();
    }
    out
}

/// What every run of [`dp_assignment`] reads, derived once per
/// [`optimize`] from the original plan and `A_p`, so CostDp's two DP
/// entries share them.
struct DpInputs<'a> {
    plan: &'a QueryPlan,
    env: &'a ScenarioEnv,
    views: &'a [SubjectView],
    est: Vec<Estimate>,
    /// Approximate per-node output bytes on plain widths (exact
    /// ciphertext expansion is settled in the final costing).
    bytes: Vec<f64>,
    /// Per node, for each attribute of its schema in ascending order:
    /// the attribute, the seconds its encryption takes over the node's
    /// rows (times a sender's CPU price), and the bytes its ciphertext
    /// adds to them.
    enc_terms: Vec<Vec<(AttrId, f64, f64)>>,
}

impl<'a> DpInputs<'a> {
    fn new(
        plan: &'a QueryPlan,
        catalog: &Catalog,
        stats: &StatsCatalog,
        env: &'a ScenarioEnv,
        cands: &'a Candidates,
    ) -> Self {
        let book = &env.prices;
        let est = estimates_for(plan, catalog, stats);
        let schemas = plan.schemas();
        // The scheme each attribute would get if it had to be
        // encrypted: the capability table's fold over the original
        // plan, taking every attribute an operation does not need in
        // plaintext (outside its `A_p`) as encrypted there — what
        // `assign_schemes` will find on the extended plan wherever the
        // attribute does arrive encrypted. The policy keeps additions
        // and comparisons of one attribute apart, so a conflict needs
        // an `A_p` override; priced as the dearest scheme.
        let would_need = needed_caps(plan, |id, a| !cands.ap[id.index()].contains(a));
        let scheme_of = |a: AttrId| {
            would_need.get(&a).map_or(EncScheme::Random, |c| {
                c.scheme().unwrap_or(EncScheme::Paillier)
            })
        };
        let bytes = (0..plan.len())
            .map(|i| {
                est[i].rows * mpq_algebra::stats::row_width(catalog, stats, &schemas[i]).max(1.0)
            })
            .collect();
        let enc_terms = (schemas.iter().zip(&est))
            .map(|(schema, e)| {
                (schema.iter())
                    .map(|a| {
                        let scheme = scheme_of(a);
                        let plain_w = stats.attr_width(catalog, a);
                        let grown = book.ciphertext_width(scheme, plain_w) - plain_w;
                        (a, e.rows * book.encrypt_secs(scheme), e.rows * grown)
                    })
                    .collect()
            })
            .collect();
        DpInputs {
            plan,
            env,
            views: &cands.views,
            est,
            bytes,
            enc_terms,
        }
    }
}

/// Bottom-up DP over `(node, subject)`: the cheapest assignment
/// drawing each node's assignee from `sets` (indexed by node). The
/// tables are indexed by `SubjectId` and scanned in ascending order,
/// and a cost must be strictly lower to win, so among equal costs the
/// lowest `SubjectId` is chosen.
fn dp_assignment(dp: &DpInputs, sets: &[CandidateSet]) -> Result<Assignment, OptError> {
    let (plan, est, bytes, book) = (dp.plan, &dp.est, &dp.bytes, &dp.env.prices);
    let subjects = &dp.env.subjects;
    // table[node][subject] : (cost, per-child chosen subject)
    let mut table = vec![vec![None; subjects.len()]; plan.len()];

    for id in plan.postorder() {
        let node = plan.node(id);
        if node.children.is_empty() {
            let Operator::Base { rel, .. } = &node.op else {
                unreachable!("leaves are Base nodes")
            };
            let authority = subjects.authority(*rel).ok_or(OptError::NoCandidates(id))?;
            let prices = book.of(authority);
            let scan_secs = est[id.index()].rows * book.tuple_op_secs;
            let cost = scan_secs * prices.cpu_per_sec + bytes[id.index()] / 1e9 * prices.io_per_gb;
            table[id.index()][authority.index()] = Some((cost, vec![]));
            continue;
        }
        if sets[id.index()].is_empty() {
            return Err(OptError::NoCandidates(id));
        }
        for &s in &sets[id.index()] {
            let prices = book.of(s);
            // Operator CPU at s (rough: rows in+out).
            let rows_out = est[id.index()].rows;
            let rows_in: f64 = node.children.iter().map(|c| est[c.index()].rows).sum();
            let work = match &node.op {
                Operator::Udf { .. } => rows_in * book.udf_multiplier,
                Operator::Product => node.children.iter().map(|c| est[c.index()].rows).product(),
                _ => rows_in + rows_out,
            };
            let mut cost = work * book.tuple_op_secs * prices.cpu_per_sec;
            let mut chosen = Vec::with_capacity(node.children.len());
            for &c in &node.children {
                // Encryption the receiver forces on a sender:
                // attributes s may only see encrypted — priced per
                // the scheme those attributes will need
                // (det/OPE/Paillier differ by orders of magnitude),
                // with ciphertext expansion on the transferred
                // bytes. Both depend on the sender only through its
                // CPU price.
                let enc = &dp.views[s.index()].enc;
                let mut enc_secs = Vec::new();
                let mut xfer_bytes = bytes[c.index()];
                for &(a, secs, grown) in &dp.enc_terms[c.index()] {
                    if enc.contains(a) {
                        enc_secs.push(secs);
                        xfer_bytes += grown;
                    }
                }
                let mut best: Option<(f64, SubjectId)> = None;
                for cs in subjects.iter() {
                    let Some((ccost, _)) = &table[c.index()][cs.index()] else {
                        continue;
                    };
                    let mut edge = 0.0;
                    if cs != s {
                        let sender = book.of(cs);
                        for secs in &enc_secs {
                            edge += secs * sender.cpu_per_sec;
                        }
                        edge += xfer_bytes / 1e9 * book.net_price(cs, s);
                    }
                    let total = ccost + edge;
                    if best.is_none_or(|(b, _)| total < b) {
                        best = Some((total, cs));
                    }
                }
                // A child with no feasible subject leaves s without
                // an entry.
                let Some((c_cost, cs)) = best else { break };
                cost += c_cost;
                chosen.push(cs);
            }
            if chosen.len() == node.children.len() {
                table[id.index()][s.index()] = Some((cost, chosen));
            }
        }
        if table[id.index()].iter().all(Option::is_none) {
            return Err(OptError::NoCandidates(id));
        }
    }

    // Root: add delivery to the user, pick the cheapest subject.
    let root = plan.root();
    let user = dp.env.user;
    let (best_subject, _) = (subjects.iter())
        .filter_map(|s| {
            let (c, _) = table[root.index()][s.index()].as_ref()?;
            let mut total = *c;
            if s != user {
                total += bytes[root.index()] / 1e9 * book.net_price(s, user);
            }
            Some((s, total))
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
        .ok_or(OptError::NoCandidates(root))?;

    // Backtrack.
    let mut assignment = Assignment::new();
    let mut stack = vec![(root, best_subject)];
    while let Some((id, s)) = stack.pop() {
        let node = plan.node(id);
        if node.children.is_empty() {
            continue;
        }
        assignment.set(id, s);
        let (_, chosen) = table[id.index()][s.index()]
            .as_ref()
            .expect("backtracked entries exist");
        for (&c, &cs) in node.children.iter().zip(chosen) {
            stack.push((c, cs));
        }
    }
    Ok(assignment)
}

/// Steps 3–5: extend minimally, derive keys/schemes, cost exactly —
/// the one way from an assignment drawn from `cands` to a priced,
/// verified plan, whichever strategy (or caller) picked the assignment.
pub fn finish(
    plan: &QueryPlan,
    catalog: &Catalog,
    stats: &StatsCatalog,
    env: &ScenarioEnv,
    cands: &Candidates,
    assignment: Assignment,
) -> Result<Optimized, OptError> {
    finish_as(false, plan, catalog, stats, env, cands, assignment)
}

/// [`finish`], with `minimize_visibility` selecting §5's
/// encrypt-at-the-sources input of the one extension walk.
fn finish_as(
    minimize_visibility: bool,
    plan: &QueryPlan,
    catalog: &Catalog,
    stats: &StatsCatalog,
    env: &ScenarioEnv,
    cands: &Candidates,
    assignment: Assignment,
) -> Result<Optimized, OptError> {
    let extended = extend_plan(
        plan,
        &cands.views,
        &env.subjects,
        cands,
        &assignment,
        Some(env.user),
        minimize_visibility,
    )
    .map_err(|e| OptError::Extend(e.to_string()))?;
    let schemes = assign_schemes_with(&extended.plan, &extended.profiles)
        .map_err(|e| OptError::Schemes(e.to_string()))?;
    let keys = plan_keys(&extended);
    // Post-condition: every plan the optimizer emits must pass the
    // static verifier — authorized (Def. 4.1), leak-free per edge,
    // key-complete (Def. 6.1) and scheme/type-sound. A finding here is
    // an optimizer bug surfaced before any execution.
    let report = mpq_core::verify::verify_extended(
        &extended,
        &keys,
        catalog,
        &env.subjects,
        &cands.views,
        Some(env.user),
    );
    if !report.is_clean() {
        return Err(OptError::Verify(report));
    }
    let est = estimates_for(&extended.plan, catalog, stats);
    let cost = cost_extended_plan(
        &extended.plan,
        &extended.assignment,
        catalog,
        stats,
        &est,
        &extended.profiles,
        &schemes,
        &env.prices,
        env.user,
    );
    Ok(Optimized {
        assignment,
        extended,
        schemes,
        keys,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build_scenario, Scenario};
    use crate::stats::tests::tpch_sample;
    use mpq_tpch::{query_plan, tpch_catalog};

    fn run(q: usize, scenario: Scenario, strategy: Strategy) -> Optimized {
        let cat = tpch_catalog();
        let stats = tpch_sample();
        let env = build_scenario(&cat, scenario);
        let plan = query_plan(&cat, q);
        optimize(
            &plan,
            &cat,
            stats,
            &env,
            &CapabilityPolicy::default(),
            strategy,
        )
        .unwrap_or_else(|e| panic!("Q{q} {scenario:?}: {e}"))
    }

    #[test]
    fn q6_ua_assigns_no_providers() {
        let opt = run(6, Scenario::UA, Strategy::CostDp);
        let cat = tpch_catalog();
        let env = build_scenario(&cat, Scenario::UA);
        let providers: Vec<_> = ["X", "Y", "Z"]
            .iter()
            .map(|n| env.subjects.id(n).unwrap())
            .collect();
        for (_, s) in opt.assignment.0.iter() {
            assert!(!providers.contains(s), "UA must not involve providers");
        }
    }

    #[test]
    fn q6_uapenc_is_cheaper_than_ua() {
        let ua = run(6, Scenario::UA, Strategy::CostDp);
        let enc = run(6, Scenario::UAPenc, Strategy::CostDp);
        assert!(
            enc.cost.total() <= ua.cost.total(),
            "UAPenc {} vs UA {}",
            enc.cost.total(),
            ua.cost.total()
        );
    }

    #[test]
    fn q3_uapmix_cheapest() {
        let ua = run(3, Scenario::UA, Strategy::CostDp);
        let enc = run(3, Scenario::UAPenc, Strategy::CostDp);
        let mix = run(3, Scenario::UAPmix, Strategy::CostDp);
        assert!(mix.cost.total() <= enc.cost.total() + 1e-12);
        assert!(enc.cost.total() <= ua.cost.total() + 1e-12);
    }

    #[test]
    fn dp_matches_exhaustive_on_running_example() {
        use mpq_core::fixtures::RunningExample;
        let ex = RunningExample::new();
        // Build a scenario env around the fixture's subjects/policy.
        let env = ScenarioEnv {
            subjects: ex.subjects.clone(),
            policy: ex.policy.clone(),
            prices: crate::pricing::PriceBook::paper_defaults(&ex.subjects, &[1.0, 1.3, 1.7]),
            user: ex.subject("U"),
        };
        let stats = mpq_algebra::stats::StatsCatalog::with_defaults(&ex.catalog, 10_000.0);
        let dp = optimize(
            &ex.plan,
            &ex.catalog,
            &stats,
            &env,
            &CapabilityPolicy::default(),
            Strategy::CostDp,
        )
        .unwrap();
        let ex_best = optimize(
            &ex.plan,
            &ex.catalog,
            &stats,
            &env,
            &CapabilityPolicy::default(),
            Strategy::Exhaustive,
        )
        .unwrap();
        // DP uses approximate edge costs, so allow a small gap.
        let gap = dp.cost.total() / ex_best.cost.total();
        assert!(
            gap < 1.25,
            "DP {} vs exhaustive {} (gap {gap})",
            dp.cost.total(),
            ex_best.cost.total()
        );
    }

    #[test]
    fn ablation_strategies_order_as_expected() {
        // Minimize-visibility performs at least as many encryptions as
        // the minimal extension.
        let min_ext = run(3, Scenario::UAPenc, Strategy::CostDp);
        let min_vis = run(3, Scenario::UAPenc, Strategy::MinimizeVisibility);
        assert!(
            min_vis.extended.encryption_ops() >= min_ext.extended.encryption_ops(),
            "min-vis {} < minimal {}",
            min_vis.extended.encryption_ops(),
            min_ext.extended.encryption_ops()
        );
    }

    #[test]
    fn maximize_visibility_restricts_under_uapenc() {
        // Under UAPenc providers hold only encrypted visibility, so the
        // never-encrypt ablation cannot use them; it still succeeds via
        // user/authorities and costs at least as much as the default.
        let max_vis = run(6, Scenario::UAPenc, Strategy::MaximizeVisibility);
        let default = run(6, Scenario::UAPenc, Strategy::CostDp);
        assert!(max_vis.cost.total() >= default.cost.total() * 0.999);
        assert_eq!(max_vis.extended.encryption_ops(), 0);
    }

    /// Every strategy's plan is one the system runs: `finish` verified
    /// it, and the user reads plaintext at the root.
    #[test]
    fn all_22_optimize_under_all_scenarios() {
        let cat = tpch_catalog();
        let stats = tpch_sample();
        let strategies = [
            Strategy::CostDp,
            Strategy::MaximizeVisibility,
            Strategy::MinimizeVisibility,
        ];
        let policies = [
            CapabilityPolicy::default(),
            CapabilityPolicy::tpch_evaluation(),
        ];
        for scenario in Scenario::ALL {
            let env = build_scenario(&cat, scenario);
            for (strategy, cap) in strategies.iter().flat_map(|s| policies.map(|c| (*s, c))) {
                for q in 1..=mpq_tpch::QUERY_COUNT {
                    let plan = query_plan(&cat, q);
                    let what = format!("Q{q} {scenario:?} {strategy:?} {cap:?}");
                    let opt = optimize(&plan, &cat, stats, &env, &cap, strategy)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(opt.cost.total() > 0.0, "{what}: zero cost");
                    let report = mpq_core::verify::verify_with_policy(
                        &opt.extended,
                        &opt.keys,
                        &cat,
                        &env.subjects,
                        &env.policy,
                        Some(env.user),
                    );
                    assert!(report.is_clean(), "{what}:\n{report}");
                    let root = opt.extended.plan.root();
                    let ve = &opt.extended.profiles[root.index()].ve;
                    assert!(ve.is_empty(), "{what}: ciphertext at the root");
                    // The extension walk's profiles, settled once each,
                    // are a fresh derivation's.
                    let fresh = profile_plan(&opt.extended.plan);
                    assert!(opt.extended.profiles == fresh, "{what}: stale profiles");
                }
            }
        }
    }

    /// With every provider priced alike, providers tie exactly: CostDp
    /// picks the same plan on every call, and among tied subjects the
    /// lowest `SubjectId` — so the only provider it uses is the first.
    #[test]
    fn cost_dp_breaks_ties_by_subject_id() {
        let cat = tpch_catalog();
        let stats = tpch_sample();
        let cap = CapabilityPolicy::default();
        for scenario in [Scenario::UAPenc, Scenario::UAPmix] {
            let mut env = build_scenario(&cat, scenario);
            env.prices = crate::pricing::PriceBook::paper_defaults(&env.subjects, &[1.0, 1.0, 1.0]);
            let first = env.subjects.id("X").unwrap();
            for q in 1..=mpq_tpch::QUERY_COUNT {
                let plan = query_plan(&cat, q);
                let what = format!("Q{q} {scenario:?}");
                let pick = || {
                    let opt = optimize(&plan, &cat, stats, &env, &cap, Strategy::CostDp);
                    opt.unwrap_or_else(|e| panic!("{what}: {e}")).assignment
                };
                let chosen = pick();
                for _ in 0..5 {
                    assert_eq!(pick(), chosen, "{what}: another plan on a later call");
                }
                for (_, &s) in chosen.0.iter() {
                    let provider = env.subjects.kind(s) == SubjectKind::Provider;
                    assert!(
                        !provider || s == first,
                        "{what}: tie went to {}",
                        env.subjects.name(s)
                    );
                }
            }
        }
    }

    /// One CostDp `optimize` of the six queries the `authority_scan`
    /// benchmark plans (UAPenc, the TPC-H evaluation's capabilities)
    /// propagates each profile once per derivation: the candidates',
    /// the extension walk's and the verifier's fresh one. Scheme
    /// assignment reads the walk's.
    #[test]
    fn cost_dp_derives_each_profile_once() {
        use mpq_core::profile::PROPAGATIONS;
        let cat = tpch_catalog();
        let stats = tpch_sample();
        let env = build_scenario(&cat, Scenario::UAPenc);
        let cap = CapabilityPolicy::tpch_evaluation();
        let before = PROPAGATIONS.get();
        for q in [1, 3, 6, 10, 12, 14] {
            let plan = query_plan(&cat, q);
            optimize(&plan, &cat, stats, &env, &cap, Strategy::CostDp).unwrap();
        }
        assert_eq!(PROPAGATIONS.get() - before, 317);
    }
}
