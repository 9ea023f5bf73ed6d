//! Seeded world generator.
//!
//! A *world* is everything a scenario needs: a random catalog (one or
//! two relations with a shared join-key column), a random subject set
//! (per-relation data authorities, the querying user, a few
//! providers), a random authorization policy (per-provider visibility
//! triples, Def. 2.2), random data, a random query plan over the
//! catalog, and an assignment drawn uniformly from Λ (Def. 5.3).
//! Optionally the world carries a [`Mutation`] — a fault the harness
//! injects *after* minimal extension, to exercise the reject side of
//! the differential (every mutation class has both a static diagnostic
//! and a dynamic defense twin).
//!
//! Everything is a pure function of the seed: the same
//! [`WorldConfig`] always produces the same world, which is what makes
//! corpus seeds replayable as regression tests.

use mpq_algebra::{
    AggExpr, AggFunc, AttrId, AttrSet, Catalog, CmpOp, DataType, Expr, JoinKind, Operator,
    QueryPlan, Value,
};
use mpq_core::authz::{Authorization, Policy};
use mpq_core::candidates::{candidates, Candidates};
use mpq_core::capability::CapabilityPolicy;
use mpq_core::extend::Assignment;
use mpq_core::subjects::{SubjectKind, Subjects};
use mpq_exec::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifies one scenario. The seed fully determines the world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorldConfig {
    /// Master seed; also used as the session seed at execution time.
    pub seed: u64,
}

/// A fault class injected after minimal extension. The raw `pick`
/// values are resolved against the extended plan by the harness
/// (mutations target spliced crypto nodes and the key plan, which do
/// not exist before extension).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Reassign a random non-leaf node to a random subject, candidate
    /// or not. May still be authorized — the harness branches on the
    /// actual static verdict, the mutation only biases toward rejects
    /// (MPQ001/MPQ002).
    Reassign {
        /// Index into the extended plan's non-leaf postorder.
        node_pick: usize,
        /// Index into the subject list.
        subject_pick: usize,
    },
    /// Remove a random node's assignment entirely (MPQ008).
    Unassign {
        /// Index into the extended plan's non-leaf postorder.
        node_pick: usize,
    },
    /// Assign a leaf to a subject other than its data authority
    /// (MPQ008) — base relations never leave their authority.
    MisassignLeaf {
        /// Index into the extended plan's leaves.
        leaf_pick: usize,
        /// Index into the subject list (skipped past the authority).
        subject_pick: usize,
    },
    /// Empty the holder set of one Def. 6.1 key cluster (MPQ003; a
    /// no-op when the plan needs no keys).
    StripHolders {
        /// Index into the key plan's clusters.
        key_pick: usize,
    },
    /// Remove an `Encrypt` the extension spliced below a join, so the
    /// join compares ciphertext against plaintext (MPQ009; a no-op when
    /// no join needed one).
    DropJoinSideEncrypt {
        /// Index into the plan's join-side encryptions.
        enc_pick: usize,
    },
}

/// A generated scenario, before extension.
pub struct World {
    /// One or two relations; two share a string join-key domain.
    pub catalog: Catalog,
    /// Authorities, the querying user, 1–3 providers.
    pub subjects: Subjects,
    /// Random visibility triples per provider; the user sees
    /// everything plaintext (final delivery must be authorizable), the
    /// authority sees its own relation plaintext.
    pub policy: Policy,
    /// 3–8 rows per relation from small value domains (joins and
    /// selections hit often).
    pub db: Database,
    /// base → \[select\] → \[join\] → \[group-by \[→ having\]\] → \[project\].
    pub plan: QueryPlan,
    /// The querying user.
    pub user: mpq_algebra::SubjectId,
    /// Λ for `plan`.
    pub cands: Candidates,
    /// An assignment drawn uniformly from Λ.
    pub assignment: Assignment,
    /// Fault to inject after extension, if any.
    pub mutation: Option<Mutation>,
}

const KEY_DOMAIN: [&str; 4] = ["k0", "k1", "k2", "k3"];
const STR_DOMAIN: [&str; 5] = ["w0", "w1", "w2", "w3", "w4"];
const EXTRA_TYPES: [DataType; 3] = [DataType::Int, DataType::Num, DataType::Str];

fn random_value(rng: &mut StdRng, ty: DataType, is_key: bool) -> Value {
    match ty {
        DataType::Int => Value::Int(rng.gen_range(0..=9i64)),
        DataType::Num => Value::Num(f64::from(rng.gen_range(0..=40u32)) * 2.5),
        _ if is_key => Value::str(KEY_DOMAIN[rng.gen_range(0..KEY_DOMAIN.len())]),
        _ => Value::str(STR_DOMAIN[rng.gen_range(0..STR_DOMAIN.len())]),
    }
}

impl World {
    /// Generate the world for `cfg` (deterministic in `cfg.seed`).
    pub fn generate(cfg: &WorldConfig) -> World {
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // ---- catalog -------------------------------------------------
        let mut catalog = Catalog::new();
        let two_rels = rng.gen_bool(0.7);
        let mut cols_f: Vec<(String, DataType)> = vec![("fk".into(), DataType::Str)];
        for i in 0..rng.gen_range(2..=4usize) {
            let ty = EXTRA_TYPES[rng.gen_range(0..EXTRA_TYPES.len())];
            cols_f.push((format!("f{}", (b'a' + i as u8) as char), ty));
        }
        let spec_f: Vec<(&str, DataType)> = cols_f.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let rf = catalog.add_relation("F", &spec_f).expect("relation F");
        let rg = if two_rels {
            let mut cols_g: Vec<(String, DataType)> = vec![("gk".into(), DataType::Str)];
            for i in 0..rng.gen_range(1..=3usize) {
                let ty = EXTRA_TYPES[rng.gen_range(0..EXTRA_TYPES.len())];
                cols_g.push((format!("g{}", (b'a' + i as u8) as char), ty));
            }
            let spec_g: Vec<(&str, DataType)> =
                cols_g.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            Some(catalog.add_relation("G", &spec_g).expect("relation G"))
        } else {
            None
        };

        // ---- subjects ------------------------------------------------
        let mut subjects = Subjects::new();
        let auth_f = subjects.add("A", SubjectKind::DataAuthority);
        subjects.set_authority(rf, auth_f);
        if let Some(rel) = rg {
            let a = if rng.gen_bool(0.5) {
                subjects.add("B", SubjectKind::DataAuthority)
            } else {
                auth_f
            };
            subjects.set_authority(rel, a);
        }
        let user = subjects.add("U", SubjectKind::User);
        let providers: Vec<_> = (0..rng.gen_range(1..=3usize))
            .map(|i| subjects.add(&format!("P{i}"), SubjectKind::Provider))
            .collect();

        // ---- policy --------------------------------------------------
        let mut policy = Policy::new();
        let rels: Vec<_> = catalog.relations().to_vec();
        for rel in &rels {
            let all: AttrSet = rel.attr_set();
            let authority = subjects.authority(rel.rel).unwrap();
            policy.grant(
                rel.rel,
                authority,
                Authorization::new(all.clone(), AttrSet::new()).unwrap(),
            );
            policy.grant(
                rel.rel,
                user,
                Authorization::new(all.clone(), AttrSet::new()).unwrap(),
            );
            for &p in &providers {
                let mut plain = AttrSet::new();
                let mut enc = AttrSet::new();
                for col in &rel.columns {
                    let roll: f64 = rng.gen_range(0.0..1.0f64);
                    if roll < 0.35 {
                        plain.insert(col.attr);
                    } else if roll < 0.75 {
                        enc.insert(col.attr);
                    }
                }
                policy.grant(rel.rel, p, Authorization::new(plain, enc).unwrap());
            }
        }

        // ---- data ----------------------------------------------------
        let mut db = Database::new();
        for rel in &rels {
            let n = rng.gen_range(3..=8usize);
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|_| {
                    rel.columns
                        .iter()
                        .map(|c| {
                            let is_key = c.name.ends_with('k');
                            random_value(&mut rng, catalog.attr_type(c.attr), is_key)
                        })
                        .collect()
                })
                .collect();
            db.load(&catalog, &rel.name, rows);
        }

        // ---- plan ----------------------------------------------------
        let f_def = catalog.relation("F").unwrap().clone();
        let f_attrs: Vec<AttrId> = f_def.columns.iter().map(|c| c.attr).collect();
        let mut plan = QueryPlan::new();
        let mut cur = plan.add_base(rf, f_attrs.clone());

        if rng.gen_bool(0.6) {
            // Type-correct single-column predicate on F.
            let col = &f_def.columns[rng.gen_range(0..f_def.columns.len())];
            let ty = catalog.attr_type(col.attr);
            let lit = random_value(&mut rng, ty, col.name.ends_with('k'));
            let op = match ty {
                DataType::Int | DataType::Num => {
                    [CmpOp::Eq, CmpOp::Le, CmpOp::Ge][rng.gen_range(0..3usize)]
                }
                _ => CmpOp::Eq,
            };
            cur = plan.add(
                Operator::Select {
                    pred: Expr::cmp(Expr::Col(col.attr), op, Expr::Lit(lit)),
                },
                vec![cur],
            );
        }

        let mut schema: Vec<AttrId> = f_attrs.clone();
        if let Some(rel_g) = rg {
            let g_def = catalog.relation("G").unwrap().clone();
            let g_attrs: Vec<AttrId> = g_def.columns.iter().map(|c| c.attr).collect();
            let right = plan.add_base(rel_g, g_attrs.clone());
            let fk = f_def.columns[0].attr;
            let gk = g_def.columns[0].attr;
            cur = plan.add(
                Operator::Join {
                    kind: JoinKind::Inner,
                    on: vec![(fk, CmpOp::Eq, gk)],
                    residual: None,
                },
                vec![cur, right],
            );
            schema.extend(g_attrs);
        }

        let numeric: Vec<AttrId> = schema
            .iter()
            .copied()
            .filter(|&a| matches!(catalog.attr_type(a), DataType::Int | DataType::Num))
            .collect();
        let strings: Vec<AttrId> = schema
            .iter()
            .copied()
            .filter(|&a| catalog.attr_type(a) == DataType::Str)
            .collect();

        if rng.gen_bool(0.5) && !strings.is_empty() {
            let key = strings[rng.gen_range(0..strings.len())];
            let agg = if numeric.is_empty() {
                AggExpr::over_col(AggFunc::Count, key)
            } else {
                let col = numeric[rng.gen_range(0..numeric.len())];
                let f = [AggFunc::Sum, AggFunc::Count, AggFunc::Min][rng.gen_range(0..3usize)];
                AggExpr::over_col(f, col)
            };
            cur = plan.add(
                Operator::GroupBy {
                    keys: vec![key],
                    aggs: vec![agg],
                },
                vec![cur],
            );
            if rng.gen_bool(0.3) {
                cur = plan.add(
                    Operator::Having {
                        pred: Expr::cmp(Expr::AggRef(0), CmpOp::Gt, Expr::Lit(Value::Int(0))),
                    },
                    vec![cur],
                );
            }
        } else if rng.gen_bool(0.7) {
            // Project a random nonempty prefix-biased subset.
            let keep: Vec<AttrId> = schema
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.6))
                .collect();
            let attrs = if keep.is_empty() {
                vec![schema[0]]
            } else {
                keep
            };
            cur = plan.add(Operator::Project { attrs }, vec![cur]);
        }
        plan.set_root(cur);
        plan.validate(&catalog).expect("generated plan validates");

        // ---- Λ and a uniform draw ------------------------------------
        let cands = candidates(
            &plan,
            &catalog,
            &policy,
            &subjects,
            &CapabilityPolicy::default(),
            true,
        );
        let mut assignment = Assignment::new();
        for id in plan.postorder() {
            if plan.node(id).children.is_empty() {
                continue;
            }
            let set = cands.of(id);
            // The user sees everything plaintext, so Λ is never empty.
            assert!(!set.is_empty(), "Λ empty at {id} (seed {})", cfg.seed);
            assignment.set(id, set[rng.gen_range(0..set.len())]);
        }

        // ---- optional fault ------------------------------------------
        let mutation = if rng.gen_bool(0.45) {
            Some(match rng.gen_range(0..4u32) {
                0 => Mutation::Reassign {
                    node_pick: rng.gen_range(0..64usize),
                    subject_pick: rng.gen_range(0..64usize),
                },
                1 => Mutation::Unassign {
                    node_pick: rng.gen_range(0..64usize),
                },
                2 => Mutation::MisassignLeaf {
                    leaf_pick: rng.gen_range(0..64usize),
                    subject_pick: rng.gen_range(0..64usize),
                },
                _ => Mutation::StripHolders {
                    key_pick: rng.gen_range(0..64usize),
                },
            })
        } else if rng.gen_bool(0.25) {
            // Drawn last, so the worlds above keep their faults.
            Some(Mutation::DropJoinSideEncrypt {
                enc_pick: rng.gen_range(0..64usize),
            })
        } else {
            None
        };

        World {
            catalog,
            subjects,
            policy,
            db,
            plan,
            user,
            cands,
            assignment,
            mutation,
        }
    }
}
