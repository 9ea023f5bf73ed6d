//! Scalar and aggregate expressions.
//!
//! The paper models predicates abstractly as `a op x` (attribute vs
//! constant) and `a_i op a_j` (attribute vs attribute). Real queries —
//! and the TPC-H workload of the paper's evaluation — need richer
//! predicates (conjunctions, LIKE, BETWEEN, CASE, arithmetic inside
//! aggregates). [`Expr`] carries the full expression for execution,
//! while [`Expr::const_compared_attrs`] and [`Expr::attr_pairs`]
//! project it back onto the paper's abstract view for profile
//! propagation (Fig. 2).
//!
//! Two functions know every variant's shape: [`Expr::children`], the
//! generic walk, and [`Expr::try_map`] (infallible: [`Expr::map`]), the
//! generic rewrite. Whatever rewrites an expression — resolving
//! aggregate references, encrypting or decrypting compared literals
//! ([`Expr::try_map_atoms`]) — is a closure over the latter that names
//! only the variants it acts on.

use crate::ids::AttrId;
use crate::value::Value;
use crate::{AttrSet, Catalog};
use std::fmt;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// `true` for `=`.
    pub fn is_equality(self) -> bool {
        matches!(self, CmpOp::Eq)
    }

    /// Evaluate against a three-way comparison result.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The operator with sides swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// Date fields for `EXTRACT`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DateField {
    /// `extract(year from …)`
    Year,
}

/// A scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Reference to an attribute of the input relation.
    Col(AttrId),
    /// Positional reference to the output of the `i`-th aggregate of a
    /// child group-by node (used by HAVING / ORDER BY / projections
    /// above a `GroupBy`).
    AggRef(usize),
    /// Literal.
    Lit(Value),
    /// Comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Conjunction (empty ⇒ TRUE).
    And(Vec<Expr>),
    /// Disjunction (empty ⇒ FALSE).
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like {
        /// String operand.
        expr: Box<Expr>,
        /// Pattern.
        pattern: String,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// Tested operand.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr IN (v, …)` over literals.
    InList {
        /// Tested operand.
        expr: Box<Expr>,
        /// Literal list.
        list: Vec<Value>,
        /// `NOT IN`.
        negated: bool,
    },
    /// Searched CASE.
    Case {
        /// `WHEN cond THEN value` branches.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` value (NULL if absent).
        else_: Option<Box<Expr>>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested operand.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `EXTRACT(field FROM expr)`.
    Extract {
        /// Field to extract.
        field: DateField,
        /// Date operand.
        expr: Box<Expr>,
    },
    /// `SUBSTRING(expr FROM start FOR len)` (1-based).
    Substring {
        /// String operand.
        expr: Box<Expr>,
        /// 1-based start.
        start: usize,
        /// Length.
        len: usize,
    },
}

impl Expr {
    /// `a op b` convenience constructor.
    pub fn cmp(a: Expr, op: CmpOp, b: Expr) -> Expr {
        Expr::Cmp(Box::new(a), op, Box::new(b))
    }

    /// Column-vs-literal equality.
    pub fn col_eq(a: AttrId, v: Value) -> Expr {
        Expr::cmp(Expr::Col(a), CmpOp::Eq, Expr::Lit(v))
    }

    /// Conjunction of two expressions, flattening nested ANDs.
    pub fn and(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::And(mut a), Expr::And(b)) => {
                a.extend(b);
                Expr::And(a)
            }
            (Expr::And(mut a), e) => {
                a.push(e);
                Expr::And(a)
            }
            (e, Expr::And(mut b)) => {
                b.insert(0, e);
                Expr::And(b)
            }
            (a, b) => Expr::And(vec![a, b]),
        }
    }

    /// Arithmetic convenience constructor.
    pub fn arith(a: Expr, op: ArithOp, b: Expr) -> Expr {
        Expr::Arith(Box::new(a), op, Box::new(b))
    }

    /// The direct sub-expressions, left to right. The one generic walk
    /// over an expression: [`Expr::attrs`] folds over it, and so does
    /// every other traversal that is not specific to a variant.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Col(_) | Expr::AggRef(_) | Expr::Lit(_) => vec![],
            Expr::Cmp(a, _, b) | Expr::Arith(a, _, b) => vec![a, b],
            Expr::And(v) | Expr::Or(v) => v.iter().collect(),
            Expr::Not(e)
            | Expr::Like { expr: e, .. }
            | Expr::InList { expr: e, .. }
            | Expr::IsNull { expr: e, .. }
            | Expr::Extract { expr: e, .. }
            | Expr::Substring { expr: e, .. } => vec![e],
            Expr::Between { expr, lo, hi, .. } => vec![expr, lo, hi],
            Expr::Case { branches, else_ } => branches
                .iter()
                .flat_map(|(c, v)| [c, v])
                .chain(else_.as_deref())
                .collect(),
        }
    }

    /// [`Expr::children`] for writing: the same sub-expressions in the
    /// same order.
    fn children_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            Expr::Col(_) | Expr::AggRef(_) | Expr::Lit(_) => vec![],
            Expr::Cmp(a, _, b) | Expr::Arith(a, _, b) => vec![a, b],
            Expr::And(v) | Expr::Or(v) => v.iter_mut().collect(),
            Expr::Not(e)
            | Expr::Like { expr: e, .. }
            | Expr::InList { expr: e, .. }
            | Expr::IsNull { expr: e, .. }
            | Expr::Extract { expr: e, .. }
            | Expr::Substring { expr: e, .. } => vec![e],
            Expr::Between { expr, lo, hi, .. } => vec![expr, lo, hi],
            Expr::Case { branches, else_ } => branches
                .iter_mut()
                .flat_map(|(c, v)| [c, v])
                .chain(else_.as_deref_mut())
                .collect(),
        }
    }

    /// A copy of the expression rewritten top-down — the one generic
    /// rewrite, as [`Expr::children`] is the one generic walk. `f` sees
    /// each node before its children and either returns what stands in
    /// its place (the walk does not enter a replacement) or `None`,
    /// which keeps the node and rewrites its children. An error from
    /// `f` ends the walk.
    pub fn try_map<E>(
        &self,
        f: &mut impl FnMut(&Expr) -> Result<Option<Expr>, E>,
    ) -> Result<Expr, E> {
        let mut out = self.clone();
        out.rewrite(f)?;
        Ok(out)
    }

    fn rewrite<E>(
        &mut self,
        f: &mut impl FnMut(&Expr) -> Result<Option<Expr>, E>,
    ) -> Result<(), E> {
        match f(self)? {
            Some(replacement) => *self = replacement,
            None => {
                for e in self.children_mut() {
                    e.rewrite(f)?;
                }
            }
        }
        Ok(())
    }

    /// [`Expr::try_map`] for a rewrite that cannot fail.
    pub fn map(&self, mut f: impl FnMut(&Expr) -> Option<Expr>) -> Expr {
        match self.try_map(&mut |e| Ok::<_, std::convert::Infallible>(f(e))) {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    /// [`Expr::try_map`] over a predicate's *atoms* — what its `AND`,
    /// `OR` and `NOT` connect. `f` is handed each atom whole and
    /// returns what stands in its place; nothing inside an atom (a
    /// `CASE` branch, a `LIKE` operand, arithmetic) is entered. The
    /// literal rewriters are maps of this kind: they act on a
    /// comparison where a predicate states it and nowhere deeper.
    pub fn try_map_atoms<E>(
        &self,
        f: &mut impl FnMut(&Expr) -> Result<Expr, E>,
    ) -> Result<Expr, E> {
        self.try_map(&mut |e| match e {
            Expr::And(_) | Expr::Or(_) | Expr::Not(_) => Ok(None),
            atom => f(atom).map(Some),
        })
    }

    /// All attributes referenced anywhere in the expression.
    pub fn attrs(&self) -> AttrSet {
        let mut s = AttrSet::new();
        self.collect_attrs(&mut s);
        s
    }

    fn collect_attrs(&self, out: &mut AttrSet) {
        if let Expr::Col(a) = self {
            out.insert(*a);
        }
        for e in self.children() {
            e.collect_attrs(out);
        }
    }

    /// Attributes compared against constants or otherwise *used* by the
    /// predicate without being paired to another attribute — the `a` of
    /// the paper's `σ_{a op x}` rule. These become implicit attributes
    /// of the selection result.
    pub fn const_compared_attrs(&self) -> AttrSet {
        let mut consts = AttrSet::new();
        let mut pairs = Vec::new();
        self.classify(&mut consts, &mut pairs);
        consts
    }

    /// Attribute-vs-attribute comparisons — the `{a_i, a_j}` pairs of
    /// the paper's `σ_{a_i op a_j}` rule. These feed the equivalence
    /// component of the result profile.
    pub fn attr_pairs(&self) -> Vec<(AttrId, AttrId)> {
        let mut consts = AttrSet::new();
        let mut pairs = Vec::new();
        self.classify(&mut consts, &mut pairs);
        pairs
    }

    fn classify(&self, consts: &mut AttrSet, pairs: &mut Vec<(AttrId, AttrId)>) {
        match self {
            Expr::Cmp(a, _, b) => {
                let sa = a.attrs();
                let sb = b.attrs();
                match (sa.len(), sb.len()) {
                    // attribute-to-attribute comparison: only the
                    // simple `Col op Col` form establishes equivalence;
                    // anything more complex conservatively marks all
                    // attributes as condition-involved (implicit).
                    (1, 1) => {
                        if let (Expr::Col(x), Expr::Col(y)) = (a.as_ref(), b.as_ref()) {
                            pairs.push((*x, *y));
                        } else {
                            consts.union_with(&sa);
                            consts.union_with(&sb);
                        }
                    }
                    _ => {
                        consts.union_with(&sa);
                        consts.union_with(&sb);
                    }
                }
            }
            Expr::And(v) | Expr::Or(v) => {
                for e in v {
                    e.classify(consts, pairs);
                }
            }
            Expr::Not(e) => e.classify(consts, pairs),
            Expr::Case { branches, else_ } => {
                for (c, v) in branches {
                    c.classify(consts, pairs);
                    consts.union_with(&v.attrs());
                }
                if let Some(e) = else_ {
                    consts.union_with(&e.attrs());
                }
            }
            // Everything else references attributes against constants
            // (LIKE/BETWEEN/IN/IS NULL) or computes over them.
            other => consts.union_with(&other.attrs()),
        }
    }
}

/// An [`Expr`] being printed: attributes by their catalog names where
/// a catalog is given, by id (`a3`) otherwise. Names go where a `Col`
/// is printed and nowhere else — a literal `'a3'` or a `LIKE` pattern
/// `'%a3%'` is the user's text, in a plan dump and in the sub-query
/// text sealed into a signed request alike.
pub struct ExprDisplay<'a> {
    expr: &'a Expr,
    catalog: Option<&'a Catalog>,
}

impl Expr {
    /// This expression with attribute names from `catalog`.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> ExprDisplay<'a> {
        ExprDisplay {
            expr: self,
            catalog: Some(catalog),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shown = ExprDisplay {
            expr: self,
            catalog: None,
        };
        shown.fmt(f)
    }
}

impl fmt::Display for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let catalog = self.catalog;
        let sub = |expr| ExprDisplay { expr, catalog };
        let joined = |v: &[Expr], sep| {
            let parts: Vec<String> = v
                .iter()
                .map(|expr| ExprDisplay { expr, catalog }.to_string())
                .collect();
            parts.join(sep)
        };
        let not = |negated: &bool| if *negated { "NOT " } else { "" };
        match self.expr {
            Expr::Col(a) => match catalog {
                Some(c) if a.index() < c.num_attrs() => f.write_str(c.attr_name(*a)),
                _ => write!(f, "{a}"),
            },
            Expr::AggRef(i) => write!(f, "agg#{i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(a, op, b) => write!(f, "({} {op} {})", sub(a), sub(b)),
            Expr::And(v) => write!(f, "({})", joined(v, " AND ")),
            Expr::Or(v) => write!(f, "({})", joined(v, " OR ")),
            Expr::Not(e) => write!(f, "NOT {}", sub(e)),
            Expr::Arith(a, op, b) => write!(f, "({} {op} {})", sub(a), sub(b)),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(f, "{} {}LIKE '{pattern}'", sub(expr), not(negated)),
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => write!(
                f,
                "{} {}BETWEEN {} AND {}",
                sub(expr),
                not(negated),
                sub(lo),
                sub(hi)
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|v| v.to_string()).collect();
                write!(f, "{} {}IN ({})", sub(expr), not(negated), items.join(", "))
            }
            Expr::Case { branches, else_ } => {
                write!(f, "CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {} THEN {}", sub(c), sub(v))?;
                }
                if let Some(e) = else_ {
                    write!(f, " ELSE {}", sub(e))?;
                }
                write!(f, " END")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "{} IS {}NULL", sub(expr), not(negated))
            }
            Expr::Extract { field, expr } => {
                let fname = match field {
                    DateField::Year => "year",
                };
                write!(f, "extract({fname} from {})", sub(expr))
            }
            Expr::Substring { expr, start, len } => {
                write!(f, "substring({} from {start} for {len})", sub(expr))
            }
        }
    }
}

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `count(*)` or `count(expr)`.
    Count,
    /// `count(distinct expr)`.
    CountDistinct,
    /// `sum(expr)`.
    Sum,
    /// `avg(expr)`.
    Avg,
    /// `min(expr)`.
    Min,
    /// `max(expr)`.
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count_distinct",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        })
    }
}

/// One aggregate of a group-by node.
///
/// Following the paper's simplification ("we consider the attribute
/// resulting from `f(a)` with the same name as `a`"), the output is
/// *named after* one of the input attributes: [`AggExpr::output`] must
/// reference an attribute occurring in [`AggExpr::input`] (or the first
/// group key for `count(*)`). This keeps the authorization domain equal
/// to the base attributes.
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    /// Aggregate function.
    pub func: AggFunc,
    /// Input expression (`Lit(1)` for `count(*)`).
    pub input: Expr,
    /// Output attribute name (one of the input attributes).
    pub output: AttrId,
}

impl AggExpr {
    /// Build an aggregate over a single column, output named after it.
    pub fn over_col(func: AggFunc, col: AttrId) -> AggExpr {
        AggExpr {
            func,
            input: Expr::Col(col),
            output: col,
        }
    }

    /// `count(*)` carried under the given (key) attribute's name.
    pub fn count_star(output: AttrId) -> AggExpr {
        AggExpr {
            func: AggFunc::Count,
            input: Expr::Lit(Value::Int(1)),
            output,
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})→{}", self.func, self.input, self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn attrs_collects_everything() {
        let e = Expr::cmp(
            Expr::arith(Expr::Col(a(0)), ArithOp::Mul, Expr::Col(a(1))),
            CmpOp::Gt,
            Expr::Lit(Value::Int(10)),
        );
        assert_eq!(e.attrs(), AttrSet::from_iter([a(0), a(1)]));
    }

    #[test]
    fn classify_const_vs_pairs() {
        // D = 'stroke' AND S = C  (the paper's σ and ⋈ conditions)
        let e = Expr::col_eq(a(2), Value::str("stroke")).and(Expr::cmp(
            Expr::Col(a(0)),
            CmpOp::Eq,
            Expr::Col(a(4)),
        ));
        assert_eq!(e.const_compared_attrs(), AttrSet::singleton(a(2)));
        assert_eq!(e.attr_pairs(), vec![(a(0), a(4))]);
    }

    #[test]
    fn complex_comparison_is_conservative() {
        // a0 + a1 > a2: no equivalence, all implicit.
        let e = Expr::cmp(
            Expr::arith(Expr::Col(a(0)), ArithOp::Add, Expr::Col(a(1))),
            CmpOp::Gt,
            Expr::Col(a(2)),
        );
        assert!(e.attr_pairs().is_empty());
        assert_eq!(
            e.const_compared_attrs(),
            AttrSet::from_iter([a(0), a(1), a(2)])
        );
    }

    #[test]
    fn cmp_eval_and_flip() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Le.eval(Less));
        assert!(!CmpOp::Le.eval(Greater));
        assert!(CmpOp::Ne.eval(Less));
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
    }

    #[test]
    fn and_flattens() {
        let e = Expr::col_eq(a(0), Value::Int(1))
            .and(Expr::col_eq(a(1), Value::Int(2)))
            .and(Expr::col_eq(a(2), Value::Int(3)));
        match e {
            Expr::And(v) => assert_eq!(v.len(), 3),
            other => panic!("expected flat AND, got {other:?}"),
        }
    }

    #[test]
    fn agg_expr_display() {
        let ag = AggExpr::over_col(AggFunc::Avg, a(5));
        assert_eq!(format!("{ag}"), "avg(a5)→a5");
    }
}
