//! Property-based tests for the paper's theorems.
//!
//! Random query plans over random schemas, random policies — checking
//! Theorem 3.1 (profile monotonicity), Theorem 5.1 (candidate
//! monotonicity), Theorem 5.2 (soundness of Λ under minimal
//! extension), and Theorem 5.3(i) (the extension authorizes λ).

use mpq::algebra::expr::{AggExpr, AggFunc};
use mpq::algebra::{AttrSet, Catalog, CmpOp, DataType, Expr, JoinKind, Operator, QueryPlan, Value};
use mpq::core::authz::{Authorization, AuthzViolation, Policy, SubjectView};
use mpq::core::candidates::candidates;
use mpq::core::capability::CapabilityPolicy;
use mpq::core::extend::{minimally_extend, Assignment};
use mpq::core::profile::{profile_plan, Profile};
use mpq::core::subjects::{SubjectKind, Subjects};
use proptest::prelude::*;

/// Two relations with `n1`/`n2` columns.
fn catalog(n1: usize, n2: usize) -> Catalog {
    let mut c = Catalog::new();
    let cols1: Vec<(String, DataType)> =
        (0..n1).map(|i| (format!("a{i}"), DataType::Int)).collect();
    let refs1: Vec<(&str, DataType)> = cols1.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    c.add_relation("R1", &refs1).unwrap();
    let cols2: Vec<(String, DataType)> =
        (0..n2).map(|i| (format!("b{i}"), DataType::Int)).collect();
    let refs2: Vec<(&str, DataType)> = cols2.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    c.add_relation("R2", &refs2).unwrap();
    c
}

/// A random plan respecting the paper's assumptions (projections pushed
/// down to the leaves): scan → selections → join → group-by →
/// selections.
fn arb_plan() -> impl Strategy<Value = (Catalog, QueryPlan)> {
    (
        2..5usize,                                  // columns of R1
        2..4usize,                                  // columns of R2
        proptest::collection::vec(0..4usize, 0..3), // selection attrs on R1
        any::<bool>(),                              // group-by?
        any::<bool>(),                              // pair-selection after join?
    )
        .prop_map(|(n1, n2, sels, group, pair_sel)| {
            let cat = catalog(n1, n2);
            let r1 = cat.relation("R1").unwrap();
            let r2 = cat.relation("R2").unwrap();
            let a1 = r1.attrs();
            let a2 = r2.attrs();
            // The paper assumes projections pushed down: leaves retrieve
            // only attributes some operator (or the final result) uses.
            // With a group-by on top, unused passengers would violate
            // that assumption (and Theorem 3.1's premise), so restrict
            // the leaves to the used attributes.
            // Fix the operator attributes up front so the leaf
            // projections can retrieve exactly the used attributes.
            let sel_attrs: Vec<_> = sels.iter().map(|&s| a1[s % a1.len()]).collect();
            let use_pair = pair_sel && a1.len() > 1 && a2.len() > 1;
            let pair = (a1[1 % a1.len()], a2[1 % a2.len()]);
            let join_keys = (a1[0], a2[0]);
            let agg_attr = a2[a2.len() - 1];
            let (a1, a2) = if group {
                let mut used1 = vec![join_keys.0];
                for &attr in &sel_attrs {
                    if !used1.contains(&attr) {
                        used1.push(attr);
                    }
                }
                let mut used2 = vec![join_keys.1];
                if !used2.contains(&agg_attr) {
                    used2.push(agg_attr);
                }
                if use_pair {
                    if !used1.contains(&pair.0) {
                        used1.push(pair.0);
                    }
                    if !used2.contains(&pair.1) {
                        used2.push(pair.1);
                    }
                }
                (used1, used2)
            } else {
                (a1, a2)
            };
            let mut plan = QueryPlan::new();
            let mut left = plan.add_base(r1.rel, a1.clone());
            for attr in sel_attrs {
                left = plan.add(
                    Operator::Select {
                        pred: Expr::col_eq(attr, Value::Int(7)),
                    },
                    vec![left],
                );
            }
            let right = plan.add_base(r2.rel, a2.clone());
            let mut cur = plan.add(
                Operator::Join {
                    kind: JoinKind::Inner,
                    on: vec![(join_keys.0, CmpOp::Eq, join_keys.1)],
                    residual: None,
                },
                vec![left, right],
            );
            if use_pair {
                cur = plan.add(
                    Operator::Select {
                        pred: Expr::cmp(Expr::Col(pair.0), CmpOp::Eq, Expr::Col(pair.1)),
                    },
                    vec![cur],
                );
            }
            if group {
                cur = plan.add(
                    Operator::GroupBy {
                        keys: vec![join_keys.0],
                        aggs: vec![AggExpr::over_col(AggFunc::Sum, agg_attr)],
                    },
                    vec![cur],
                );
            }
            plan.set_root(cur);
            plan.validate(&cat).expect("generated plans are valid");
            (cat, plan)
        })
}

/// Random policy: per subject/relation, each attribute is plaintext,
/// encrypted, or invisible.
fn arb_policy(cat: &Catalog, seed: u64) -> (Subjects, Policy) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut subjects = Subjects::new();
    let a1 = subjects.add("A1", SubjectKind::DataAuthority);
    let a2 = subjects.add("A2", SubjectKind::DataAuthority);
    let u = subjects.add("U", SubjectKind::User);
    let p1 = subjects.add("P1", SubjectKind::Provider);
    let p2 = subjects.add("P2", SubjectKind::Provider);
    let mut policy = Policy::new();
    for (i, rel) in cat.relations().iter().enumerate() {
        let owner = if i == 0 { a1 } else { a2 };
        subjects.set_authority(rel.rel, owner);
        policy.grant(
            rel.rel,
            owner,
            Authorization::new(rel.attr_set(), AttrSet::new()).unwrap(),
        );
        // The user sees everything plaintext (paper's expectation).
        policy.grant(
            rel.rel,
            u,
            Authorization::new(rel.attr_set(), AttrSet::new()).unwrap(),
        );
        for p in [p1, p2] {
            let mut plain = AttrSet::new();
            let mut enc = AttrSet::new();
            for col in &rel.columns {
                match rng.gen_range(0..3) {
                    0 => {
                        plain.insert(col.attr);
                    }
                    1 => {
                        enc.insert(col.attr);
                    }
                    _ => {}
                }
            }
            policy.grant(rel.rel, p, Authorization::new(plain, enc).unwrap());
        }
    }
    (subjects, policy)
}

/// Def. 4.1 as `authz.rs` wrote it out before `violations()`: the
/// subset test behind `authorized_for`, and every violated condition
/// as `explain_failure` listed them (`check` returned the first).
fn def_4_1_written_out(view: &SubjectView, profile: &Profile) -> (bool, Vec<AuthzViolation>) {
    let uniform = |class: &AttrSet| class.is_subset(&view.plain) || class.is_subset(&view.enc);
    let authorized = profile.vp.union(&profile.ip).is_subset(&view.plain)
        && profile.ve.union(&profile.ie).is_subset(&view.visible())
        && profile.eq.classes().all(uniform);
    let mut all = Vec::new();
    let c1 = profile.vp.union(&profile.ip).difference(&view.plain);
    if !c1.is_empty() {
        all.push(AuthzViolation::Plaintext(c1));
    }
    let c2 = profile.ve.union(&profile.ie).difference(&view.visible());
    if !c2.is_empty() {
        all.push(AuthzViolation::Encrypted(c2));
    }
    for class in profile.eq.classes().filter(|c| !uniform(c)) {
        all.push(AuthzViolation::NonUniform(class.clone()));
    }
    (authorized, all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Def. 4.1 has one statement, `violations()`, and three readings —
    /// none, the first, all — that agree with the three it replaced:
    /// every subject's view against every node's profile, plain
    /// (`profile_plan`) and under minimum required views (Fig. 6).
    #[test]
    fn def_4_1_readings_agree((cat, plan) in arb_plan(), seed in 0u64..500) {
        let (subjects, policy) = arb_policy(&cat, seed);
        let cap = CapabilityPolicy::default();
        let cands = candidates(&plan, &cat, &policy, &subjects, &cap, false);
        let plain = profile_plan(&plan);
        for view in &cands.views {
            for profile in plain.iter().chain(&cands.profiles) {
                let (authorized, all) = def_4_1_written_out(view, profile);
                prop_assert_eq!(view.authorized_for(profile), authorized);
                prop_assert_eq!(view.check(profile).err(), all.first().cloned());
                prop_assert_eq!(view.violations(profile).collect::<Vec<_>>(), all.clone());
                prop_assert_eq!(view.explain_failure(profile), all);
            }
        }
    }

    /// Theorem 3.1: profiles only grow up the plan; equivalence classes
    /// only expand.
    #[test]
    fn theorem_3_1((cat, plan) in arb_plan()) {
        let _ = &cat;
        let profiles = profile_plan(&plan);
        let parents = plan.parents();
        for id in plan.postorder() {
            if let Some(p) = parents[id.index()] {
                let below = profiles[id.index()].footprint();
                let above = profiles[p.index()].footprint();
                prop_assert!(below.is_subset(&above), "footprint shrank at {id}");
                for class in profiles[id.index()].eq.classes() {
                    prop_assert!(
                        profiles[p.index()].eq.classes().any(|sup| class.is_subset(sup)),
                        "equivalence class shrank at {id}"
                    );
                }
            }
        }
    }

    /// Candidate pruning (Thm. 5.1) never changes Λ.
    #[test]
    fn candidate_pruning_is_lossless((cat, plan) in arb_plan(), seed in 0u64..500) {
        let (subjects, policy) = arb_policy(&cat, seed);
        let cap = CapabilityPolicy::default();
        let a = candidates(&plan, &cat, &policy, &subjects, &cap, false);
        let b = candidates(&plan, &cat, &policy, &subjects, &cap, true);
        for id in plan.postorder() {
            prop_assert_eq!(a.of(id), b.of(id), "Λ differs at {}", id);
        }
    }

    /// Theorems 5.2(ii)/5.3(i): every assignment drawn from Λ extends
    /// into an authorized plan.
    #[test]
    fn every_candidate_assignment_extends((cat, plan) in arb_plan(), seed in 0u64..500) {
        let (subjects, policy) = arb_policy(&cat, seed);
        let cap = CapabilityPolicy::default();
        let cands = candidates(&plan, &cat, &policy, &subjects, &cap, false);
        // Pick the first candidate everywhere, plus the last candidate
        // everywhere (two corners of the assignment lattice).
        for pick_last in [false, true] {
            let mut a = Assignment::new();
            let mut feasible = true;
            for id in plan.postorder() {
                if plan.node(id).children.is_empty() {
                    continue;
                }
                let set = cands.of(id);
                match if pick_last { set.last() } else { set.first() } {
                    Some(&s) => a.set(id, s),
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                continue; // empty Λ somewhere: nothing to check
            }
            let user = subjects.id("U").unwrap();
            let r = minimally_extend(&plan, &cat, &policy, &subjects, &cands, &a, Some(user));
            prop_assert!(r.is_ok(), "extension failed: {:?}", r.err());
        }
    }

    /// The user (plaintext everything) is always a candidate for every
    /// operation — the all-user baseline of the UA scenario exists.
    #[test]
    fn user_is_always_a_candidate((cat, plan) in arb_plan(), seed in 0u64..500) {
        let (subjects, policy) = arb_policy(&cat, seed);
        let cands = candidates(
            &plan, &cat, &policy, &subjects, &CapabilityPolicy::default(), false,
        );
        let u = subjects.id("U").unwrap();
        for id in plan.postorder() {
            if !plan.node(id).children.is_empty() {
                prop_assert!(cands.is_candidate(id, u), "user missing at {}", id);
            }
        }
    }
}
