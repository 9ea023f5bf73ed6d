//! Expression evaluation over rows.
//!
//! Evaluation is three-valued (SQL semantics): predicates yield
//! `Some(true)`, `Some(false)` or `None` (unknown, from NULLs);
//! filters keep rows only on `Some(true)`.
//!
//! Encrypted cells participate transparently where their scheme
//! allows: deterministic/OPE equality via [`Value::sql_eq`], OPE
//! ordering via [`Value::sql_cmp`]. A comparison the ciphertext cannot
//! support raises [`EvalError::EncryptedOperation`] instead of
//! silently returning false.

use crate::batch::ColumnVec;
use mpq_algebra::expr::DateField;
use mpq_algebra::{ArithOp, AttrId, CmpOp, Date, Expr, Value};

/// Errors during expression evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// Column not found in the row schema.
    UnknownColumn(AttrId),
    /// Aggregate reference outside a group-by context.
    AggRefOutsideGroup(usize),
    /// Operation not supported on the operand types.
    TypeError(String),
    /// Operation attempted on a ciphertext that does not support it —
    /// the authorization pipeline should have decrypted first.
    EncryptedOperation(String),
    /// Integer or date arithmetic left the representable range. Plans
    /// and cells arrive from peers, so this is an answer, not a panic
    /// (debug) or a silently wrapped value (release).
    Overflow(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnknownColumn(a) => write!(f, "unknown column {a}"),
            EvalError::AggRefOutsideGroup(i) => {
                write!(f, "aggregate reference #{i} outside group context")
            }
            EvalError::TypeError(m) => write!(f, "type error: {m}"),
            EvalError::EncryptedOperation(m) => {
                write!(f, "operation on ciphertext without capability: {m}")
            }
            EvalError::Overflow(m) => write!(f, "arithmetic overflow: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The storage a [`RowCtx`] reads from: a contiguous value slice
/// (materialized row) or one row position inside a columnar batch.
enum RowData<'a> {
    Slice(&'a [Value]),
    Columns { cols: &'a [ColumnVec], row: usize },
}

/// Evaluation context: one row, its column layout, and (above a
/// group-by) the base index of aggregate outputs. Rows are read either
/// from a materialized value slice or directly out of a batch's
/// columns — evaluation itself is storage-agnostic.
pub struct RowCtx<'a> {
    /// Column attribute per position.
    pub attrs: &'a [AttrId],
    data: RowData<'a>,
    /// Index of the first aggregate output column (group-by results:
    /// keys first, aggregates after), if applicable.
    pub agg_base: Option<usize>,
}

impl<'a> RowCtx<'a> {
    /// Context over a materialized row, without aggregate outputs.
    pub fn plain(attrs: &'a [AttrId], row: &'a [Value]) -> RowCtx<'a> {
        RowCtx {
            attrs,
            data: RowData::Slice(row),
            agg_base: None,
        }
    }

    /// Context over row `row` of a batch's columns, without aggregate
    /// outputs.
    pub fn batch(attrs: &'a [AttrId], cols: &'a [ColumnVec], row: usize) -> RowCtx<'a> {
        RowCtx {
            attrs,
            data: RowData::Columns { cols, row },
            agg_base: None,
        }
    }

    /// Same context with the aggregate output base set.
    pub fn with_agg_base(mut self, agg_base: Option<usize>) -> RowCtx<'a> {
        self.agg_base = agg_base;
        self
    }

    /// The cell at column position `i`, if in range. Returns an owned
    /// value: dense batch cells copy eight bytes, strings and
    /// ciphertexts bump an `Arc`.
    pub fn value_at(&self, i: usize) -> Option<Value> {
        match &self.data {
            RowData::Slice(row) => row.get(i).cloned(),
            RowData::Columns { cols, row } => cols.get(i).map(|c| c.get(*row)),
        }
    }

    fn col(&self, a: AttrId) -> Result<Value, EvalError> {
        self.attrs
            .iter()
            .position(|c| *c == a)
            .and_then(|i| self.value_at(i))
            .ok_or(EvalError::UnknownColumn(a))
    }
}

/// Evaluate an expression to a value.
pub fn eval(e: &Expr, ctx: &RowCtx<'_>) -> Result<Value, EvalError> {
    match e {
        Expr::Col(a) => ctx.col(*a),
        Expr::AggRef(i) => {
            let base = ctx.agg_base.ok_or(EvalError::AggRefOutsideGroup(*i))?;
            ctx.value_at(base + i)
                .ok_or(EvalError::AggRefOutsideGroup(*i))
        }
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Cmp(a, op, b) => {
            let va = eval(a, ctx)?;
            let vb = eval(b, ctx)?;
            Ok(truth_to_value(cmp_values(&va, *op, &vb)?))
        }
        Expr::And(parts) => {
            let mut any_unknown = false;
            for p in parts {
                match eval_pred(p, ctx)? {
                    Some(false) => return Ok(Value::Bool(false)),
                    None => any_unknown = true,
                    Some(true) => {}
                }
            }
            Ok(if any_unknown {
                Value::Null
            } else {
                Value::Bool(true)
            })
        }
        Expr::Or(parts) => {
            let mut any_unknown = false;
            for p in parts {
                match eval_pred(p, ctx)? {
                    Some(true) => return Ok(Value::Bool(true)),
                    None => any_unknown = true,
                    Some(false) => {}
                }
            }
            Ok(if any_unknown {
                Value::Null
            } else {
                Value::Bool(false)
            })
        }
        Expr::Not(x) => Ok(match eval_pred(x, ctx)? {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        }),
        Expr::Arith(a, op, b) => {
            let va = eval(a, ctx)?;
            let vb = eval(b, ctx)?;
            arith(&va, *op, &vb)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => {
                    let m = like_match(&s, pattern);
                    Ok(Value::Bool(m != *negated))
                }
                Value::Enc(_) => Err(EvalError::EncryptedOperation("LIKE over ciphertext".into())),
                other => Err(EvalError::TypeError(format!("LIKE over {other:?}"))),
            }
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let vlo = eval(lo, ctx)?;
            let vhi = eval(hi, ctx)?;
            let ge = cmp_values(&v, CmpOp::Ge, &vlo)?;
            let le = cmp_values(&v, CmpOp::Le, &vhi)?;
            Ok(match (ge, le) {
                (Some(a), Some(b)) => Value::Bool((a && b) != *negated),
                _ => Value::Null,
            })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                if equal_maybe_encrypted(&v, item)? {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Case { branches, else_ } => {
            for (cond, out) in branches {
                if eval_pred(cond, ctx)? == Some(true) {
                    return eval(out, ctx);
                }
            }
            match else_ {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Extract { field, expr } => {
            let v = eval(expr, ctx)?;
            match (field, v) {
                (DateField::Year, Value::Date(d)) => Ok(Value::Int(d.year() as i64)),
                (_, Value::Null) => Ok(Value::Null),
                (_, Value::Enc(_)) => Err(EvalError::EncryptedOperation(
                    "EXTRACT over ciphertext".into(),
                )),
                (_, other) => Err(EvalError::TypeError(format!("extract from {other:?}"))),
            }
        }
        Expr::Substring { expr, start, len } => {
            let v = eval(expr, ctx)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => {
                    let chars: Vec<char> = s.chars().collect();
                    let from = start.saturating_sub(1).min(chars.len());
                    let to = from.saturating_add(*len).min(chars.len());
                    Ok(Value::str(&chars[from..to].iter().collect::<String>()))
                }
                Value::Enc(_) => Err(EvalError::EncryptedOperation(
                    "SUBSTRING over ciphertext".into(),
                )),
                other => Err(EvalError::TypeError(format!("substring of {other:?}"))),
            }
        }
    }
}

/// Evaluate as a predicate: `Some(bool)` or `None` for unknown.
pub fn eval_pred(e: &Expr, ctx: &RowCtx<'_>) -> Result<Option<bool>, EvalError> {
    Ok(match eval(e, ctx)? {
        Value::Bool(b) => Some(b),
        Value::Null => None,
        other => {
            return Err(EvalError::TypeError(format!(
                "predicate evaluated to {other:?}"
            )))
        }
    })
}

fn truth_to_value(t: Option<bool>) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

/// Three-valued comparison, ciphertext-aware.
pub fn cmp_values(a: &Value, op: CmpOp, b: &Value) -> Result<Option<bool>, EvalError> {
    if a.is_null() || b.is_null() {
        return Ok(None);
    }
    // Equality works on deterministic ciphertexts; report capability
    // errors for other mixes.
    match (a, b) {
        (Value::Enc(ea), Value::Enc(eb)) => {
            if op.is_equality() || op == CmpOp::Ne {
                if !ea.scheme.supports_equality() || !eb.scheme.supports_equality() {
                    return Err(EvalError::EncryptedOperation(
                        "equality on non-deterministic ciphertext".into(),
                    ));
                }
                let eq = a.sql_eq(b);
                return Ok(Some(if op.is_equality() { eq } else { !eq }));
            }
            if !ea.scheme.supports_order() || !eb.scheme.supports_order() {
                return Err(EvalError::EncryptedOperation(
                    "ordering on non-OPE ciphertext".into(),
                ));
            }
            Ok(a.sql_cmp(b).map(|o| op.eval(o)))
        }
        (Value::Enc(_), _) | (_, Value::Enc(_)) => Err(EvalError::EncryptedOperation(
            "comparison between ciphertext and plaintext (literal not rewritten?)".into(),
        )),
        _ => match a.sql_cmp(b) {
            Some(o) => Ok(Some(op.eval(o))),
            None => {
                if op == CmpOp::Ne {
                    // Incomparable non-null values are simply unequal.
                    Ok(Some(true))
                } else if op.is_equality() {
                    Ok(Some(false))
                } else {
                    Err(EvalError::TypeError(format!(
                        "cannot order {a:?} and {b:?}"
                    )))
                }
            }
        },
    }
}

fn equal_maybe_encrypted(v: &Value, item: &Value) -> Result<bool, EvalError> {
    match (v, item) {
        (Value::Enc(e), Value::Enc(_)) | (Value::Enc(e), _) if !e.scheme.supports_equality() => {
            Err(EvalError::EncryptedOperation(
                "IN over non-deterministic ciphertext".into(),
            ))
        }
        (Value::Enc(_), Value::Enc(_)) => Ok(v.sql_eq(item)),
        (Value::Enc(_), _) | (_, Value::Enc(_)) => Err(EvalError::EncryptedOperation(
            "IN mixing ciphertext and plaintext".into(),
        )),
        _ => Ok(v.sql_eq(item)),
    }
}

fn arith(a: &Value, op: ArithOp, b: &Value) -> Result<Value, EvalError> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    if matches!(a, Value::Enc(_)) || matches!(b, Value::Enc(_)) {
        return Err(EvalError::EncryptedOperation(
            "scalar arithmetic over ciphertext".into(),
        ));
    }
    let overflow = || EvalError::Overflow(format!("{a:?} {op:?} {b:?}"));
    // Date ± integer days.
    if let (Value::Date(d), Value::Int(n)) = (a, b) {
        let days = match op {
            ArithOp::Add => i64::from(d.0).checked_add(*n),
            ArithOp::Sub => i64::from(d.0).checked_sub(*n),
            _ => return Err(EvalError::TypeError("date multiplication".into())),
        };
        let days = days.and_then(|t| i32::try_from(t).ok());
        return Ok(Value::Date(Date(days.ok_or_else(overflow)?)));
    }
    // Integer arithmetic stays integral except division.
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return Ok(match op {
            ArithOp::Add => Value::Int(x.checked_add(*y).ok_or_else(overflow)?),
            ArithOp::Sub => Value::Int(x.checked_sub(*y).ok_or_else(overflow)?),
            ArithOp::Mul => Value::Int(x.checked_mul(*y).ok_or_else(overflow)?),
            ArithOp::Div => {
                if *y == 0 {
                    Value::Null
                } else {
                    Value::Num(*x as f64 / *y as f64)
                }
            }
        });
    }
    let (x, y) = match (a.as_num(), b.as_num()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(EvalError::TypeError(format!(
                "arithmetic over {a:?} and {b:?}"
            )))
        }
    };
    Ok(match op {
        ArithOp::Add => Value::Num(x + y),
        ArithOp::Sub => Value::Num(x - y),
        ArithOp::Mul => Value::Num(x * y),
        ArithOp::Div => {
            if y == 0.0 {
                Value::Null
            } else {
                Value::Num(x / y)
            }
        }
    })
}

/// SQL LIKE with `%` (any run) and `_` (any single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=s.len()).any(|k| rec(&s[k..], rest))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::AttrId;

    fn ctx_vals() -> (Vec<AttrId>, Vec<Value>) {
        (
            vec![AttrId(0), AttrId(1), AttrId(2)],
            vec![Value::Int(10), Value::str("stroke"), Value::Num(2.5)],
        )
    }

    #[test]
    fn column_and_literal() {
        let (cols, row) = ctx_vals();
        let ctx = RowCtx::plain(&cols, &row);
        assert!(eval(&Expr::Col(AttrId(0)), &ctx)
            .unwrap()
            .sql_eq(&Value::Int(10)));
        assert!(matches!(
            eval(&Expr::Col(AttrId(9)), &ctx),
            Err(EvalError::UnknownColumn(_))
        ));
    }

    #[test]
    fn three_valued_logic() {
        let cols = vec![AttrId(0)];
        let row = vec![Value::Null];
        let ctx = RowCtx::plain(&cols, &row);
        let null_eq = Expr::col_eq(AttrId(0), Value::Int(1));
        assert_eq!(eval_pred(&null_eq, &ctx).unwrap(), None);
        // NULL AND false = false; NULL OR true = true.
        let and = Expr::And(vec![null_eq.clone(), Expr::Lit(Value::Bool(false))]);
        assert_eq!(eval_pred(&and, &ctx).unwrap(), Some(false));
        let or = Expr::Or(vec![null_eq.clone(), Expr::Lit(Value::Bool(true))]);
        assert_eq!(eval_pred(&or, &ctx).unwrap(), Some(true));
        let not = Expr::Not(Box::new(null_eq));
        assert_eq!(eval_pred(&not, &ctx).unwrap(), None);
    }

    #[test]
    fn arithmetic_rules() {
        let (cols, row) = ctx_vals();
        let ctx = RowCtx::plain(&cols, &row);
        let e = Expr::arith(Expr::Col(AttrId(0)), ArithOp::Mul, Expr::Col(AttrId(2)));
        assert!(eval(&e, &ctx).unwrap().sql_eq(&Value::Num(25.0)));
        // Int/Int stays Int for +,-,*.
        let ii = Expr::arith(
            Expr::Lit(Value::Int(7)),
            ArithOp::Add,
            Expr::Lit(Value::Int(3)),
        );
        assert!(matches!(eval(&ii, &ctx).unwrap(), Value::Int(10)));
        // Division by zero → NULL.
        let div0 = Expr::arith(
            Expr::Lit(Value::Int(1)),
            ArithOp::Div,
            Expr::Lit(Value::Int(0)),
        );
        assert!(eval(&div0, &ctx).unwrap().is_null());
        // Date + days.
        let d = Expr::arith(
            Expr::Lit(Value::Date(Date::parse("1994-01-01").unwrap())),
            ArithOp::Add,
            Expr::Lit(Value::Int(31)),
        );
        assert!(eval(&d, &ctx)
            .unwrap()
            .sql_eq(&Value::Date(Date::parse("1994-02-01").unwrap())));
    }

    /// Cells and plans arrive from peers: out-of-range arithmetic is a
    /// typed error in debug and release alike.
    #[test]
    fn out_of_range_arithmetic_is_an_error_not_a_panic_or_a_wrap() {
        let cols = vec![AttrId(0), AttrId(1)];
        let row = vec![Value::Int(i64::MAX), Value::Date(Date(i32::MAX))];
        let ctx = RowCtx::plain(&cols, &row);
        let int = |n| Expr::Lit(Value::Int(n));
        let overflows = |a: &Expr, op, b: &Expr| {
            let e = Expr::arith(a.clone(), op, b.clone());
            matches!(eval(&e, &ctx), Err(EvalError::Overflow(_)))
        };
        let (max, last_day) = (Expr::Col(AttrId(0)), Expr::Col(AttrId(1)));
        assert!(overflows(&max, ArithOp::Add, &int(1)));
        assert!(overflows(&int(-2), ArithOp::Sub, &max));
        assert!(overflows(&max, ArithOp::Mul, &int(2)));
        // Date ± days: past the last day, a day count no `i32` holds
        // (the old cast truncated it), and the negation of `i64::MIN`.
        let epoch = Expr::Lit(Value::Date(Date(0)));
        assert!(overflows(&last_day, ArithOp::Add, &int(1)));
        assert!(overflows(&epoch, ArithOp::Add, &int(1 << 32)));
        assert!(overflows(&epoch, ArithOp::Sub, &int(i64::MIN)));
        // In range still computes.
        let back = Expr::arith(last_day, ArithOp::Sub, int(i64::from(i32::MAX)));
        assert_eq!(eval(&back, &ctx).unwrap(), Value::Date(Date(0)));
    }

    /// A peer-supplied `len` near `usize::MAX` used to wrap `from + len`
    /// below `from` and panic on the slice, in release builds too.
    #[test]
    fn substring_length_saturates() {
        let cols = vec![AttrId(0)];
        let row = vec![Value::str("abcdefgh")];
        let ss = Expr::Substring {
            expr: Box::new(Expr::Col(AttrId(0))),
            start: 6,
            len: usize::MAX,
        };
        let tail = eval(&ss, &RowCtx::plain(&cols, &row)).unwrap();
        assert_eq!(tail, Value::str("fgh"));
    }

    #[test]
    fn like_semantics() {
        assert!(like_match("PROMO BRASS", "%BRASS"));
        assert!(like_match("anything", "%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_b"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("xxyyzz", "%yy%"));
    }

    #[test]
    fn between_and_in() {
        let (cols, row) = ctx_vals();
        let ctx = RowCtx::plain(&cols, &row);
        let btw = Expr::Between {
            expr: Box::new(Expr::Col(AttrId(0))),
            lo: Box::new(Expr::Lit(Value::Int(5))),
            hi: Box::new(Expr::Lit(Value::Int(15))),
            negated: false,
        };
        assert_eq!(eval_pred(&btw, &ctx).unwrap(), Some(true));
        let inl = Expr::InList {
            expr: Box::new(Expr::Col(AttrId(1))),
            list: vec![Value::str("flu"), Value::str("stroke")],
            negated: false,
        };
        assert_eq!(eval_pred(&inl, &ctx).unwrap(), Some(true));
    }

    #[test]
    fn case_and_substring_and_extract() {
        let (cols, row) = ctx_vals();
        let ctx = RowCtx::plain(&cols, &row);
        let case = Expr::Case {
            branches: vec![(
                Expr::col_eq(AttrId(1), Value::str("stroke")),
                Expr::Lit(Value::Int(1)),
            )],
            else_: Some(Box::new(Expr::Lit(Value::Int(0)))),
        };
        assert!(eval(&case, &ctx).unwrap().sql_eq(&Value::Int(1)));
        let ss = Expr::Substring {
            expr: Box::new(Expr::Col(AttrId(1))),
            start: 1,
            len: 3,
        };
        assert!(eval(&ss, &ctx).unwrap().sql_eq(&Value::str("str")));
        let ex = Expr::Extract {
            field: DateField::Year,
            expr: Box::new(Expr::Lit(Value::Date(Date::parse("1997-06-09").unwrap()))),
        };
        assert!(eval(&ex, &ctx).unwrap().sql_eq(&Value::Int(1997)));
    }

    #[test]
    fn encrypted_capability_errors() {
        use mpq_algebra::value::{EncScheme, EncValue};
        use std::sync::Arc;
        let rnd = Value::Enc(EncValue {
            scheme: EncScheme::Random,
            key_id: 0,
            bytes: Arc::from(&[1u8, 2][..]),
        });
        let det = Value::Enc(EncValue {
            scheme: EncScheme::Deterministic,
            key_id: 0,
            bytes: Arc::from(&[1u8, 2][..]),
        });
        // Equality on randomized ciphertext: capability error.
        assert!(matches!(
            cmp_values(&rnd, CmpOp::Eq, &rnd),
            Err(EvalError::EncryptedOperation(_))
        ));
        // Equality on deterministic: fine.
        assert_eq!(cmp_values(&det, CmpOp::Eq, &det).unwrap(), Some(true));
        // Ordering on deterministic: capability error.
        assert!(matches!(
            cmp_values(&det, CmpOp::Lt, &det),
            Err(EvalError::EncryptedOperation(_))
        ));
        // Ciphertext vs plaintext literal: the dispatcher failed to
        // rewrite the constant.
        assert!(matches!(
            cmp_values(&det, CmpOp::Eq, &Value::Int(1)),
            Err(EvalError::EncryptedOperation(_))
        ));
    }
}
