//! Encryption-scheme assignment and encrypted-literal rewriting.
//!
//! §6: "We propose to adopt, for each attribute, the scheme providing
//! highest protection, while supporting the operations to be executed
//! on the attribute's encrypted values. For instance, if for an
//! attribute no operation needs to be executed on encrypted values,
//! randomized encryption is used, while if equality conditions need to
//! be evaluated, deterministic encryption is used."
//!
//! [`assign_schemes`] is a *caller* of the capability table in
//! [`mpq_core::capability`], not an owner of any rule: it folds the
//! table's demands on every attribute that reaches an operation
//! encrypted (`ve` of the operand, by the plan's own profiles) and
//! takes the table's scheme for the result. Attributes encrypted but
//! never operated on get randomized encryption.
//!
//! [`rewrite_literals`] prepares a plan for execution: constants
//! compared against encrypted attributes are replaced by their
//! encryptions ("conditions operating on encrypted values when
//! demanded by encryption operations in the plan", §6) — in deployment
//! the data authority holding the key performs this rewriting when the
//! sub-query is dispatched.

use mpq_algebra::value::EncScheme;
use mpq_algebra::{AggScope, AttrId, AttrSet, CmpOp, Expr, Operator, QueryPlan, Value};
use mpq_core::capability::needed_caps;
use mpq_core::profile::{profile_plan, Profile};
use mpq_crypto::keyring::KeyRing;
use mpq_crypto::schemes::encrypt_value;
use rand::Rng;
use std::collections::HashMap;

/// The per-attribute scheme choice for one plan.
#[derive(Clone, Debug, Default)]
pub struct SchemePlan {
    by_attr: HashMap<AttrId, EncScheme>,
}

impl SchemePlan {
    /// Scheme for an attribute (randomized when never operated on).
    pub fn scheme_of(&self, a: AttrId) -> EncScheme {
        self.by_attr.get(&a).copied().unwrap_or(EncScheme::Random)
    }

    /// Override the scheme of an attribute.
    pub fn set(&mut self, a: AttrId, s: EncScheme) {
        self.by_attr.insert(a, s);
    }

    /// Iterate over explicit assignments.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, EncScheme)> + '_ {
        self.by_attr.iter().map(|(a, s)| (*a, *s))
    }
}

/// Scheme-assignment failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemeError {
    /// An attribute needs both homomorphic addition and
    /// comparisons — no single scheme provides both; the capability
    /// policy should have required plaintext instead.
    Conflicting(AttrId),
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::Conflicting(a) => {
                write!(
                    f,
                    "attribute {a} needs addition and comparison on ciphertexts"
                )
            }
        }
    }
}

impl std::error::Error for SchemeError {}

/// Analyze an (extended) plan and choose a scheme per encrypted
/// attribute, deriving the plan's profiles first.
pub fn assign_schemes(plan: &QueryPlan) -> Result<SchemePlan, SchemeError> {
    assign_schemes_with(plan, &profile_plan(plan))
}

/// [`assign_schemes`] over `profiles`, the plan's own — an extended
/// plan carries them ([`mpq_core::ExtendedPlan::profiles`]).
pub fn assign_schemes_with(
    plan: &QueryPlan,
    profiles: &[Profile],
) -> Result<SchemePlan, SchemeError> {
    let caps = needed_caps(plan, |id, a| {
        let operands = &plan.node(id).children;
        operands.iter().any(|c| profiles[c.index()].ve.contains(a))
    });

    // Every attribute that is ever encrypted gets an entry.
    let mut all_encrypted = AttrSet::new();
    for id in plan.postorder() {
        if let Operator::Encrypt { attrs } = &plan.node(id).op {
            for a in attrs {
                all_encrypted.insert(*a);
            }
        }
    }
    let mut out = SchemePlan::default();
    for a in all_encrypted.iter() {
        let scheme = caps.get(&a).copied().unwrap_or_default().scheme();
        out.set(a, scheme.ok_or(SchemeError::Conflicting(a))?);
    }
    Ok(out)
}

/// Replace constants compared against encrypted attributes with their
/// encryptions, so providers can evaluate dispatched conditions without
/// holding keys. `key_of_attr` maps attributes to plan keys (Def. 6.1)
/// and `keys` must hold every referenced key (this rewriting is done
/// dispatcher-side, conceptually by the key-holding authorities).
pub fn rewrite_literals<R: Rng + ?Sized>(
    plan: &QueryPlan,
    catalog: &mpq_algebra::Catalog,
    schemes: &SchemePlan,
    key_of_attr: &HashMap<AttrId, u32>,
    keys: &KeyRing,
    rng: &mut R,
) -> Result<QueryPlan, String> {
    let profiles = profile_plan(plan);
    rewrite_literals_with(plan, &profiles, catalog, schemes, key_of_attr, keys, rng)
}

/// [`rewrite_literals`] over `profiles`, the plan's own.
pub fn rewrite_literals_with<R: Rng + ?Sized>(
    plan: &QueryPlan,
    profiles: &[Profile],
    catalog: &mpq_algebra::Catalog,
    schemes: &SchemePlan,
    key_of_attr: &HashMap<AttrId, u32>,
    keys: &KeyRing,
    rng: &mut R,
) -> Result<QueryPlan, String> {
    let mut out = plan.clone();
    for id in plan.postorder() {
        let node = plan.node(id);
        let mut enc = AttrSet::new();
        for c in &node.children {
            enc.union_with(&profiles[c.index()].ve);
        }
        let mut rewriter = LiteralRewriter {
            enc: &enc,
            scope: plan.agg_scope(id).unwrap_or_default(),
            catalog,
            schemes,
            key_of_attr,
            keys,
            rng: &mut *rng,
        };
        match &mut out.node_mut(id).op {
            Operator::Select { pred }
            | Operator::Having { pred }
            | Operator::Join {
                residual: Some(pred),
                ..
            } => *pred = pred.try_map_atoms(&mut |atom| rewriter.rewrite(atom))?,
            _ => {}
        }
    }
    Ok(out)
}

/// Coerce a literal to the declared type of the column it is compared
/// against. Deterministic and OPE encodings are type-tagged (an
/// integer and the numerically equal float produce different
/// ciphertexts), so an uncoerced literal would silently compare
/// unequal against every encrypted cell.
fn coerce_lit(v: &Value, ty: mpq_algebra::DataType) -> Value {
    use mpq_algebra::DataType;
    match (ty, v) {
        (DataType::Int, Value::Num(f)) if f.fract() == 0.0 => Value::Int(*f as i64),
        (DataType::Num, Value::Int(i)) => Value::Num(*i as f64),
        _ => v.clone(),
    }
}

/// Align an inequality's fractional literal with an Int column before
/// encryption: `4.5` has no Int representation, so the predicate is
/// rewritten to its integer equivalent (`col < 4.5` ⇔ `col <= 4`,
/// `col > 4.5` ⇔ `col >= 5`). Equality against a fractional literal
/// is left alone — the type-tagged ciphertext compares unequal to
/// every Int cell, which is exactly the plaintext semantics.
fn align_int_cmp(op: CmpOp, v: &Value, ty: mpq_algebra::DataType) -> (CmpOp, Value) {
    if ty == mpq_algebra::DataType::Int {
        if let Value::Num(f) = v {
            if f.fract() != 0.0 {
                return match op {
                    CmpOp::Lt | CmpOp::Le => (CmpOp::Le, Value::Int(f.floor() as i64)),
                    CmpOp::Gt | CmpOp::Ge => (CmpOp::Ge, Value::Int(f.ceil() as i64)),
                    other => (other, v.clone()),
                };
            }
        }
    }
    (op, v.clone())
}

/// A literal that still has to be encrypted: NULL compares as NULL in
/// either form, and a ciphertext has been rewritten already.
fn rewritable(v: &Value) -> bool {
    !v.is_null() && !matches!(v, Value::Enc(_))
}

/// Literal rewriting at one node.
struct LiteralRewriter<'a, R: Rng + ?Sized> {
    /// Attributes that reach the node encrypted.
    enc: &'a AttrSet,
    /// The γ the node stands on, if any: `AggRef(i)` stands for the
    /// i-th aggregate's output when deciding whether a compared
    /// constant is encrypted (the reference itself stays in the
    /// rewritten expression).
    scope: AggScope<'a>,
    catalog: &'a mpq_algebra::Catalog,
    schemes: &'a SchemePlan,
    key_of_attr: &'a HashMap<AttrId, u32>,
    keys: &'a KeyRing,
    rng: &'a mut R,
}

impl<R: Rng + ?Sized> LiteralRewriter<'_, R> {
    /// The encrypted attribute an operand names, if it names one.
    fn encrypted(&self, operand: &Expr) -> Option<AttrId> {
        let attr = match operand {
            Expr::Col(c) => *c,
            Expr::AggRef(i) => self.scope.output(*i)?.output,
            _ => return None,
        };
        self.enc.contains(attr).then_some(attr)
    }

    fn encrypt_lit(&mut self, v: &Value, attr: AttrId) -> Result<Value, String> {
        let key_id = self
            .key_of_attr
            .get(&attr)
            .ok_or_else(|| format!("no key for attribute {attr}"))?;
        let key = self
            .keys
            .get(*key_id)
            .ok_or_else(|| format!("dispatcher does not hold key {key_id}"))?;
        let scheme = self.schemes.scheme_of(attr);
        let v = coerce_lit(v, self.catalog.attr_type(attr));
        encrypt_value(self.rng, &v, scheme, &key).map_err(|e| e.to_string())
    }

    /// One atom of a predicate ([`Expr::try_map_atoms`]) with its
    /// literals rewritten: the three sites where a constant meets an
    /// encrypted operand; any other atom is kept as it is.
    fn rewrite(&mut self, e: &Expr) -> Result<Expr, String> {
        Ok(match e {
            Expr::Cmp(a, op, b) => {
                for (operand, other, lit_left) in [(a, b, false), (b, a, true)] {
                    let (Some(attr), Expr::Lit(v)) = (self.encrypted(operand), other.as_ref())
                    else {
                        continue;
                    };
                    if !rewritable(v) {
                        continue;
                    }
                    // `lit op col` constrains the column under the
                    // flipped operator; align there and flip back.
                    let col_op = if lit_left { op.flipped() } else { *op };
                    let (col_op, v) = align_int_cmp(col_op, v, self.catalog.attr_type(attr));
                    let ev = Expr::Lit(self.encrypt_lit(&v, attr)?);
                    let operand = operand.as_ref().clone();
                    return Ok(if lit_left {
                        Expr::cmp(ev, col_op.flipped(), operand)
                    } else {
                        Expr::cmp(operand, col_op, ev)
                    });
                }
                e.clone()
            }
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => match self.encrypted(expr) {
                Some(attr) => {
                    // Inclusive bounds round inward on Int columns:
                    // `col BETWEEN 1.5 AND 4.5` ⇔ `col BETWEEN 2 AND 4`.
                    let ty = self.catalog.attr_type(attr);
                    let mut bound = |b: &Expr, ge: CmpOp| -> Result<Expr, String> {
                        match b {
                            Expr::Lit(v) if rewritable(v) => {
                                let (_, v) = align_int_cmp(ge, v, ty);
                                Ok(Expr::Lit(self.encrypt_lit(&v, attr)?))
                            }
                            other => Ok(other.clone()),
                        }
                    };
                    Expr::Between {
                        expr: expr.clone(),
                        lo: Box::new(bound(lo, CmpOp::Ge)?),
                        hi: Box::new(bound(hi, CmpOp::Le)?),
                        negated: *negated,
                    }
                }
                None => e.clone(),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => match self.encrypted(expr) {
                Some(attr) => Expr::InList {
                    expr: expr.clone(),
                    list: list
                        .iter()
                        .map(|v| {
                            if rewritable(v) {
                                self.encrypt_lit(v, attr)
                            } else {
                                Ok(v.clone())
                            }
                        })
                        .collect::<Result<_, _>>()?,
                    negated: *negated,
                },
                None => e.clone(),
            },
            other => other.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_core::candidates::candidates;
    use mpq_core::capability::CapabilityPolicy;
    use mpq_core::extend::{minimally_extend, Assignment};
    use mpq_core::fixtures::RunningExample;

    fn fig7a_plan(ex: &RunningExample) -> QueryPlan {
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
        minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &a,
            Some(ex.subject("U")),
        )
        .unwrap()
        .plan
    }

    /// Fig. 7(a): S and C are joined while encrypted → deterministic;
    /// P is averaged while encrypted → Paillier.
    #[test]
    fn fig7a_scheme_choice() {
        let ex = RunningExample::new();
        let plan = fig7a_plan(&ex);
        let schemes = assign_schemes(&plan).unwrap();
        assert_eq!(schemes.scheme_of(ex.attr("S")), EncScheme::Deterministic);
        assert_eq!(schemes.scheme_of(ex.attr("C")), EncScheme::Deterministic);
        assert_eq!(schemes.scheme_of(ex.attr("P")), EncScheme::Paillier);
        // B is never encrypted: default (randomized).
        assert_eq!(schemes.scheme_of(ex.attr("B")), EncScheme::Random);
    }

    /// An attribute encrypted but never operated on gets randomized
    /// encryption ("the scheme providing highest protection").
    #[test]
    fn untouched_encrypted_attr_is_randomized() {
        let ex = RunningExample::new();
        // Hand-build: encrypt T above the base, then nothing touches T.
        let hosp = ex.catalog.relation("Hosp").unwrap().rel;
        let t = ex.attr("T");
        let s = ex.attr("S");
        let mut plan = QueryPlan::new();
        let b = plan.add_base(hosp, vec![s, t]);
        plan.add(Operator::Encrypt { attrs: vec![t] }, vec![b]);
        let schemes = assign_schemes(&plan).unwrap();
        assert_eq!(schemes.scheme_of(t), EncScheme::Random);
    }

    /// Range selection over an encrypted attribute demands OPE.
    #[test]
    fn range_predicate_demands_ope() {
        let ex = RunningExample::new();
        let ins = ex.catalog.relation("Ins").unwrap().rel;
        let c = ex.attr("C");
        let p = ex.attr("P");
        let mut plan = QueryPlan::new();
        let b = plan.add_base(ins, vec![c, p]);
        let e = plan.add(Operator::Encrypt { attrs: vec![p] }, vec![b]);
        plan.add(
            Operator::Select {
                pred: Expr::cmp(Expr::Col(p), CmpOp::Gt, Expr::Lit(Value::Num(100.0))),
            },
            vec![e],
        );
        let schemes = assign_schemes(&plan).unwrap();
        assert_eq!(schemes.scheme_of(p), EncScheme::Ope);
    }

    /// Sum + comparison on the same encrypted attribute is a conflict.
    #[test]
    fn conflicting_requirements_detected() {
        use mpq_algebra::expr::{AggExpr, AggFunc};
        let ex = RunningExample::new();
        let ins = ex.catalog.relation("Ins").unwrap().rel;
        let c = ex.attr("C");
        let p = ex.attr("P");
        let mut plan = QueryPlan::new();
        let b = plan.add_base(ins, vec![c, p]);
        let e = plan.add(Operator::Encrypt { attrs: vec![p] }, vec![b]);
        let sel = plan.add(
            Operator::Select {
                pred: Expr::cmp(Expr::Col(p), CmpOp::Gt, Expr::Lit(Value::Num(1.0))),
            },
            vec![e],
        );
        plan.add(
            Operator::GroupBy {
                keys: vec![c],
                aggs: vec![AggExpr::over_col(AggFunc::Sum, p)],
            },
            vec![sel],
        );
        assert_eq!(
            assign_schemes(&plan).unwrap_err(),
            SchemeError::Conflicting(p)
        );
    }

    /// Literal rewriting replaces compared constants with ciphertexts.
    #[test]
    fn literals_rewritten_for_encrypted_attrs() {
        use mpq_crypto::keyring::{ClusterKey, KeyRing};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ex = RunningExample::new();
        let hosp = ex.catalog.relation("Hosp").unwrap().rel;
        let d = ex.attr("D");
        let s = ex.attr("S");
        let mut plan = QueryPlan::new();
        let b = plan.add_base(hosp, vec![s, d]);
        let e = plan.add(Operator::Encrypt { attrs: vec![d] }, vec![b]);
        // The same comparison twice: as an atom of the predicate, and
        // inside a CASE — which the rewrite does not enter.
        let case = Expr::Case {
            branches: vec![(
                Expr::col_eq(d, Value::str("stroke")),
                Expr::Lit(Value::Bool(true)),
            )],
            else_: None,
        };
        plan.add(
            Operator::Select {
                pred: Expr::col_eq(d, Value::str("stroke")).and(case.clone()),
            },
            vec![e],
        );
        let schemes = assign_schemes(&plan).unwrap();
        assert_eq!(schemes.scheme_of(d), EncScheme::Deterministic);

        let mut rng = StdRng::seed_from_u64(1);
        let ring = KeyRing::new();
        ring.insert(ClusterKey::generate(&mut rng, 0, 256));
        let mut key_of_attr = HashMap::new();
        key_of_attr.insert(d, 0u32);
        let rewritten =
            rewrite_literals(&plan, &ex.catalog, &schemes, &key_of_attr, &ring, &mut rng).unwrap();
        let sel = rewritten
            .postorder()
            .into_iter()
            .find(|&id| matches!(rewritten.node(id).op, Operator::Select { .. }))
            .unwrap();
        if let Operator::Select { pred } = &rewritten.node(sel).op {
            let Expr::And(parts) = pred else {
                panic!("expected the conjunction")
            };
            let Expr::Cmp(_, _, rhs) = &parts[0] else {
                panic!("expected comparison")
            };
            assert!(
                matches!(rhs.as_ref(), Expr::Lit(Value::Enc(_))),
                "literal must be encrypted, got {rhs:?}"
            );
            assert_eq!(parts[1], case, "nothing inside a CASE is rewritten");
        }
    }

    /// Literals are coerced to the compared column's declared type
    /// before encryption: det/OPE encodings are type-tagged, so an
    /// Int column filtered with a fractional Num bound must rewrite
    /// into the integer-equivalent predicate (`a < 4.5` ⇔ `a <= 4`) —
    /// and the rewritten plan must *execute* correctly over
    /// ciphertexts.
    #[test]
    fn fractional_bounds_on_int_columns_rewrite_and_execute() {
        use crate::engine::{execute, ExecCtx};
        use crate::table::Database;
        use mpq_algebra::{Catalog, CmpOp, DataType};
        use mpq_crypto::keyring::{ClusterKey, KeyRing};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut cat = Catalog::new();
        cat.add_relation("R", &[("a", DataType::Int)]).unwrap();
        let rel = cat.relation("R").unwrap().rel;
        let a = cat.attr("a").unwrap();
        let mut db = Database::new();
        db.load(&cat, "R", (0..10).map(|i| vec![Value::Int(i)]).collect());

        let run = |pred: Expr| -> usize {
            let mut plan = QueryPlan::new();
            let b = plan.add_base(rel, vec![a]);
            let e = plan.add(Operator::Encrypt { attrs: vec![a] }, vec![b]);
            plan.add(Operator::Select { pred }, vec![e]);
            let schemes = assign_schemes(&plan).unwrap();
            assert_eq!(schemes.scheme_of(a), EncScheme::Ope);
            let mut rng = StdRng::seed_from_u64(7);
            let ring = KeyRing::new();
            ring.insert(ClusterKey::generate(&mut rng, 0, 256));
            let mut koa = HashMap::new();
            koa.insert(a, 0u32);
            let rewritten = rewrite_literals(&plan, &cat, &schemes, &koa, &ring, &mut rng).unwrap();
            let ctx = ExecCtx::new(&cat, &db, &ring, &schemes, &koa);
            execute(&rewritten, &ctx).unwrap().len()
        };

        // a < 4.5 over 0..10 → {0,1,2,3,4}.
        let lt = Expr::cmp(Expr::Col(a), CmpOp::Lt, Expr::Lit(Value::Num(4.5)));
        assert_eq!(run(lt), 5);
        // 4.5 < a → {5..9}.
        let lit_left = Expr::cmp(Expr::Lit(Value::Num(4.5)), CmpOp::Lt, Expr::Col(a));
        assert_eq!(run(lit_left), 5);
        // a BETWEEN 1.5 AND 4.5 → {2,3,4}.
        let between = Expr::Between {
            expr: Box::new(Expr::Col(a)),
            lo: Box::new(Expr::Lit(Value::Num(1.5))),
            hi: Box::new(Expr::Lit(Value::Num(4.5))),
            negated: false,
        };
        assert_eq!(run(between), 3);
        // Integral Num literal still coerces exactly: a <= 4.0 → 5 rows.
        let le = Expr::cmp(Expr::Col(a), CmpOp::Le, Expr::Lit(Value::Num(4.0)));
        assert_eq!(run(le), 5);
    }

    /// `HAVING` is rewritten by the same walk as a selection, an
    /// `AggRef` standing for its aggregate's output: `BETWEEN` bounds
    /// over an OPE `max(x)` are encrypted (rounding inward on an Int
    /// column), the rewritten plan executes over ciphertexts, and
    /// rewriting it again is the identity — a ciphertext literal is
    /// never encrypted twice.
    #[test]
    fn having_over_an_aggregate_output_rewrites_once_and_executes() {
        use crate::engine::{execute, ExecCtx};
        use crate::table::Database;
        use mpq_algebra::expr::{AggExpr, AggFunc};
        use mpq_algebra::{Catalog, DataType};
        use mpq_crypto::keyring::{ClusterKey, KeyRing};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut cat = Catalog::new();
        cat.add_relation("R", &[("k", DataType::Str), ("x", DataType::Int)])
            .unwrap();
        let rel = cat.relation("R").unwrap().rel;
        let (k, x) = (cat.attr("k").unwrap(), cat.attr("x").unwrap());
        let mut db = Database::new();
        let rows = [("a", 1), ("a", 3), ("b", 5), ("b", 9), ("c", 2)];
        db.load(
            &cat,
            "R",
            rows.iter()
                .map(|(g, v)| vec![Value::str(g), Value::Int(*v)])
                .collect(),
        );

        let mut plan = QueryPlan::new();
        let b = plan.add_base(rel, vec![k, x]);
        let e = plan.add(Operator::Encrypt { attrs: vec![x] }, vec![b]);
        let g = plan.add(
            Operator::GroupBy {
                keys: vec![k],
                aggs: vec![AggExpr::over_col(AggFunc::Max, x)],
            },
            vec![e],
        );
        // max(x) BETWEEN 1.5 AND 4.5 AND max(x) > 1  →  groups a (3), c (2).
        let max_x = || Expr::AggRef(0);
        let having = plan.add(
            Operator::Having {
                pred: Expr::Between {
                    expr: Box::new(max_x()),
                    lo: Box::new(Expr::Lit(Value::Num(1.5))),
                    hi: Box::new(Expr::Lit(Value::Num(4.5))),
                    negated: false,
                }
                .and(Expr::cmp(max_x(), CmpOp::Gt, Expr::Lit(Value::Int(1)))),
            },
            vec![g],
        );
        let schemes = assign_schemes(&plan).unwrap();
        assert_eq!(schemes.scheme_of(x), EncScheme::Ope);

        let mut rng = StdRng::seed_from_u64(11);
        let ring = KeyRing::new();
        ring.insert(ClusterKey::generate(&mut rng, 0, 256));
        let koa = HashMap::from([(x, 0u32)]);
        let once = rewrite_literals(&plan, &cat, &schemes, &koa, &ring, &mut rng).unwrap();
        let Operator::Having {
            pred: Expr::And(parts),
        } = &once.node(having).op
        else {
            panic!("HAVING keeps its shape")
        };
        let Expr::Between { expr, lo, hi, .. } = &parts[0] else {
            panic!("BETWEEN keeps its shape")
        };
        assert_eq!(**expr, max_x(), "the reference itself stays");
        for bound in [lo, hi] {
            assert!(matches!(**bound, Expr::Lit(Value::Enc(_))), "{bound:?}");
        }
        assert!(matches!(
            &parts[1],
            Expr::Cmp(_, CmpOp::Gt, rhs) if matches!(**rhs, Expr::Lit(Value::Enc(_)))
        ));

        let twice = rewrite_literals(&once, &cat, &schemes, &koa, &ring, &mut rng).unwrap();
        assert_eq!(twice.node(having).op, once.node(having).op);

        let ctx = ExecCtx::new(&cat, &db, &ring, &schemes, &koa);
        assert_eq!(execute(&once, &ctx).unwrap().len(), 2);
    }

    /// A join condition runs on ciphertext as soon as *either* side
    /// arrives encrypted: extension encrypts the other side below the
    /// join (MPQ009), and that `Encrypt` must write ciphertexts of the
    /// partner's scheme, so the pair shares the equality scheme.
    #[test]
    fn a_mixed_form_join_pair_shares_its_scheme() {
        use mpq_algebra::JoinKind;
        let ex = RunningExample::new();
        let hosp = ex.catalog.relation("Hosp").unwrap().rel;
        let ins = ex.catalog.relation("Ins").unwrap().rel;
        let (s, c, p) = (ex.attr("S"), ex.attr("C"), ex.attr("P"));
        let mut plan = QueryPlan::new();
        let l = plan.add_base(hosp, vec![s]);
        let l = plan.add(Operator::Encrypt { attrs: vec![s] }, vec![l]);
        let r = plan.add_base(ins, vec![c, p]);
        let r = plan.add(Operator::Encrypt { attrs: vec![c] }, vec![r]);
        let j = plan.add(
            Operator::Join {
                kind: JoinKind::Inner,
                on: vec![(s, CmpOp::Eq, c)],
                residual: None,
            },
            vec![l, r],
        );
        plan.add(Operator::Encrypt { attrs: vec![p] }, vec![j]);
        let schemes = assign_schemes(&plan).unwrap();
        assert_eq!(schemes.scheme_of(s), EncScheme::Deterministic);
        assert_eq!(schemes.scheme_of(c), EncScheme::Deterministic);
        assert_eq!(schemes.scheme_of(p), EncScheme::Random);
    }

    /// Rewriting fails loudly when the dispatcher lacks a key.
    #[test]
    fn rewrite_without_key_fails() {
        use mpq_crypto::keyring::KeyRing;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ex = RunningExample::new();
        let hosp = ex.catalog.relation("Hosp").unwrap().rel;
        let d = ex.attr("D");
        let mut plan = QueryPlan::new();
        let b = plan.add_base(hosp, vec![d]);
        let e = plan.add(Operator::Encrypt { attrs: vec![d] }, vec![b]);
        plan.add(
            Operator::Select {
                pred: Expr::col_eq(d, Value::str("stroke")),
            },
            vec![e],
        );
        let schemes = assign_schemes(&plan).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let ring = KeyRing::new(); // empty
        let mut key_of_attr = HashMap::new();
        key_of_attr.insert(d, 0u32);
        assert!(
            rewrite_literals(&plan, &ex.catalog, &schemes, &key_of_attr, &ring, &mut rng).is_err()
        );
    }
}
