//! Expression evaluation: the cell rules, and the column evaluator the
//! engine runs over them.
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
//!
//! What an operation does to one cell is stated once, in the cell
//! rules (`cmp_values`, `arith`, `equal_maybe_encrypted`,
//! `like_chars`, …). The engine applies them through [`eval_mask`],
//! [`eval_column`] and σ's selection: an expression over a whole batch,
//! one sub-expression at a time — under σ, HAVING, γ inputs, sort keys,
//! udf bodies and a join's residual (a mask over its candidate pairs).
//! Columns are resolved to positions once per batch. A comparison or an
//! arithmetic decides its loop once per kernel call — the operand kinds
//! (`Int` / `Num` columns and literals on either side, dates against
//! dates, strings against strings as bytes), column or literal, and the
//! operator — and then runs one monomorphic loop: over the slices
//! themselves when the selection is every row of the range, over the
//! selection otherwise. A literal stays one value inside a loop, and
//! becomes its dense column in one step where a whole column is asked
//! of it. Everything else goes through the cell rules on *borrowed*
//! cells ([`CellRef`]: a string where it lies in its column, a
//! ciphertext on the bytes where they lie). A predicate *narrows* one
//! selection — ascending row numbers, compacted in place without a
//! branch on the data — and `AND` / `OR` / `BETWEEN` / `CASE` hand it
//! from part to part, so part *k* sees only the rows parts *1..k* left
//! undecided and every sub-expression sees exactly the rows a
//! row-at-a-time walk would have shown it: results and errors are the
//! row walk's. That walk — one materialized row at a time over the same
//! cell rules — is the [`crate::rowref`] oracle's own.

use crate::batch::{ColumnVec, StrColumn, Text};
use crate::table::Table;
use mpq_algebra::expr::DateField;
use mpq_algebra::value::{CellRef, EncColumn, EncScheme};
use mpq_algebra::{ArithOp, AttrId, CmpOp, Date, Expr, Value};
use std::borrow::Cow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::Range;

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

// ---------------------------------------------------------------------------
// Cell rules: what each operation does to one cell, stated once
// ---------------------------------------------------------------------------

/// A three-valued truth, or why a cell has none.
pub(crate) type Truth = Result<Option<bool>, EvalError>;

pub(crate) fn truth_to_value(t: Option<bool>) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

/// A value in predicate position.
pub(crate) fn truth_of(v: &Value) -> Truth {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(EvalError::TypeError(format!(
            "predicate evaluated to {other:?}"
        ))),
    }
}

/// A ciphertext where it lies: scheme, key id, bytes.
type EncRef<'a> = (EncScheme, u32, &'a [u8]);

/// Comparison of two non-NULL ciphertexts.
fn cmp_enc(a: EncRef<'_>, op: CmpOp, b: EncRef<'_>) -> Truth {
    let same_key = (a.0, a.1) == (b.0, b.1);
    if op.is_equality() || op == CmpOp::Ne {
        if !a.0.supports_equality() || !b.0.supports_equality() {
            return Err(EvalError::EncryptedOperation(
                "equality on non-deterministic ciphertext".into(),
            ));
        }
        let eq = same_key && a.2 == b.2;
        return Ok(Some(eq == op.is_equality()));
    }
    if !a.0.supports_order() || !b.0.supports_order() {
        return Err(EvalError::EncryptedOperation(
            "ordering on non-OPE ciphertext".into(),
        ));
    }
    Ok(same_key.then(|| op.eval(a.2.cmp(b.2))))
}

/// Three-valued comparison, ciphertext-aware.
pub(crate) fn cmp_values(a: &Value, op: CmpOp, b: &Value) -> Truth {
    cmp_cells(a.into(), op, b.into())
}

/// [`cmp_values`] on cells read where they lie (a ciphertext is
/// compared on its bytes in its column).
pub(crate) fn cmp_cells(a: CellRef<'_>, op: CmpOp, b: CellRef<'_>) -> Truth {
    // Equality works on deterministic ciphertexts; report capability
    // errors for other mixes.
    match (a, b) {
        (CellRef::Null, _) | (_, CellRef::Null) => Ok(None),
        (CellRef::Enc(s, k, x), CellRef::Enc(t, l, y)) => cmp_enc((s, k, x), op, (t, l, y)),
        (CellRef::Enc(..), _) | (_, CellRef::Enc(..)) => Err(EvalError::EncryptedOperation(
            "comparison between ciphertext and plaintext (literal not rewritten?)".into(),
        )),
        _ => match a.sql_cmp(b) {
            Some(o) => Ok(Some(op.eval(o))),
            // Incomparable non-null values are simply unequal.
            None if op == CmpOp::Ne => Ok(Some(true)),
            None if op.is_equality() => Ok(Some(false)),
            None => Err(EvalError::TypeError(format!(
                "cannot order {:?} and {:?}",
                Value::from(a),
                Value::from(b)
            ))),
        },
    }
}

/// `BETWEEN` from its two bound comparisons, joined as SQL's `AND`:
/// FALSE wins over NULL, so `5 BETWEEN NULL AND 3` is FALSE.
pub(crate) fn between(ge: Option<bool>, le: Option<bool>, negated: bool) -> Option<bool> {
    if ge == Some(false) || le == Some(false) {
        return Some(negated);
    }
    Some((ge? && le?) != negated)
}

/// `v = item` for `IN`: `v` a non-NULL cell, read where it lies.
fn equal_maybe_encrypted(v: CellRef<'_>, item: &Value) -> Result<bool, EvalError> {
    match (v, item) {
        (CellRef::Enc(scheme, ..), _) if !scheme.supports_equality() => Err(
            EvalError::EncryptedOperation("IN over non-deterministic ciphertext".into()),
        ),
        (CellRef::Enc(..), Value::Enc(_)) => Ok(v.key_eq(item.into())),
        (CellRef::Enc(..), _) | (_, Value::Enc(_)) => Err(EvalError::EncryptedOperation(
            "IN mixing ciphertext and plaintext".into(),
        )),
        _ => Ok(v.key_eq(item.into())),
    }
}

/// `v IN list`: a NULL item equals nothing, but when no item matches it
/// leaves the answer unknown, so `2 IN (1, NULL)` is NULL.
pub(crate) fn in_list_cell(v: CellRef<'_>, list: &[Value], negated: bool) -> Truth {
    if matches!(v, CellRef::Null) {
        return Ok(None);
    }
    for item in list.iter().filter(|item| !item.is_null()) {
        if equal_maybe_encrypted(v, item)? {
            return Ok(Some(!negated));
        }
    }
    Ok((!list.iter().any(Value::is_null)).then_some(negated))
}

fn overflow(a: &Value, op: ArithOp, b: &Value) -> EvalError {
    EvalError::Overflow(format!("{a:?} {op:?} {b:?}"))
}

pub(crate) fn arith(a: &Value, op: ArithOp, b: &Value) -> Result<Value, EvalError> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    if matches!(a, Value::Enc(_)) || matches!(b, Value::Enc(_)) {
        return Err(EvalError::EncryptedOperation(
            "scalar arithmetic over ciphertext".into(),
        ));
    }
    // Date ± integer days.
    if let (Value::Date(d), Value::Int(n)) = (a, b) {
        let days = match op {
            ArithOp::Add => i64::from(d.0).checked_add(*n),
            ArithOp::Sub => i64::from(d.0).checked_sub(*n),
            _ => return Err(EvalError::TypeError("date multiplication".into())),
        };
        let days = days.and_then(|t| i32::try_from(t).ok());
        return Ok(Value::Date(Date(days.ok_or_else(|| overflow(a, op, b))?)));
    }
    // Integer arithmetic stays integral except division.
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        if op != ArithOp::Div {
            let int = int_arith(*x, op, *y).ok_or_else(|| overflow(a, op, b))?;
            return Ok(Value::Int(int));
        }
    }
    let (x, y) = match (a.as_num(), b.as_num()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(EvalError::TypeError(format!(
                "arithmetic over {a:?} and {b:?}"
            )))
        }
    };
    Ok(if op == ArithOp::Div && y == 0.0 {
        Value::Null
    } else {
        Value::Num(num_arith(x, op, y))
    })
}

/// `+`, `-`, `*` over integers; `None` past the representable range.
fn int_arith(x: i64, op: ArithOp, y: i64) -> Option<i64> {
    match op {
        ArithOp::Add => x.checked_add(y),
        ArithOp::Sub => x.checked_sub(y),
        ArithOp::Mul => x.checked_mul(y),
        ArithOp::Div => unreachable!("integer division is numeric"),
    }
}

/// Numeric arithmetic; the caller has sent `/ 0` to NULL.
fn num_arith(x: f64, op: ArithOp, y: f64) -> f64 {
    match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => x / y,
    }
}

pub(crate) fn like_cell(v: CellRef<'_>, pattern: &[char], negated: bool) -> Truth {
    match v {
        CellRef::Null => Ok(None),
        CellRef::Str(s) => Ok(Some(like_chars(s, pattern) != negated)),
        CellRef::Enc(..) => Err(EvalError::EncryptedOperation("LIKE over ciphertext".into())),
        other => Err(EvalError::TypeError(format!(
            "LIKE over {:?}",
            Value::from(other)
        ))),
    }
}

pub(crate) fn extract_cell(field: DateField, v: &Value) -> Result<Value, EvalError> {
    match (field, v) {
        (DateField::Year, Value::Date(d)) => Ok(Value::Int(d.year() as i64)),
        (_, Value::Null) => Ok(Value::Null),
        (_, Value::Enc(_)) => Err(EvalError::EncryptedOperation(
            "EXTRACT over ciphertext".into(),
        )),
        (_, other) => Err(EvalError::TypeError(format!("extract from {other:?}"))),
    }
}

pub(crate) fn substring_cell(v: &Value, start: usize, len: usize) -> Result<Value, EvalError> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => {
            let chars: Vec<char> = s.chars().collect();
            let from = start.saturating_sub(1).min(chars.len());
            let to = from.saturating_add(len).min(chars.len());
            Ok(Value::str(&chars[from..to].iter().collect::<String>()))
        }
        Value::Enc(_) => Err(EvalError::EncryptedOperation(
            "SUBSTRING over ciphertext".into(),
        )),
        other => Err(EvalError::TypeError(format!("substring of {other:?}"))),
    }
}

/// SQL LIKE with `%` (any run) and `_` (any single char), against a
/// pattern prepared once per batch. Two
/// pointers and the last `%`: on a mismatch that `%` takes one more
/// character and the match resumes behind it — `O(cell × pattern)`, no
/// recursion, no allocation. (Patterns arrive in signed sub-queries;
/// trying every split at every `%` let thirty bytes stall a party.)
fn like_chars(s: &str, pattern: &[char]) -> bool {
    let mut cell = s.chars();
    let mut p = 0;
    // Pattern position behind the last `%`, and the cell from where
    // that `%` currently ends.
    let mut last_any: Option<(usize, std::str::Chars<'_>)> = None;
    loop {
        let here = cell.clone();
        let Some(c) = cell.next() else {
            return pattern[p..].iter().all(|&c| c == '%');
        };
        match pattern.get(p) {
            Some('%') => {
                p += 1;
                if p == pattern.len() {
                    return true;
                }
                cell = here.clone();
                last_any = Some((p, here));
            }
            Some(&want) if want == '_' || want == c => p += 1,
            _ => {
                let Some((behind, reach)) = &mut last_any else {
                    return false;
                };
                reach.next();
                cell = reach.clone();
                p = *behind;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The column evaluator (every engine operator)
// ---------------------------------------------------------------------------

/// Three-valued truth of `pred` on each of `rows` of `batch`
/// (`agg_base`: where aggregate outputs start, above a group-by). Fails
/// as the row walk over `rows` would: with the error of the first row
/// that has one.
pub fn eval_mask(
    pred: &Expr,
    batch: &Table,
    agg_base: Option<usize>,
    rows: Range<usize>,
) -> Result<Vec<Option<bool>>, EvalError> {
    let (mask, failed) = mask_until_failure(pred, batch, agg_base, rows);
    failed.map_or(Ok(mask), |(_, e)| Err(e))
}

/// [`eval_mask`] that keeps what it has when a row fails: the truths of
/// the rows before it, and the row (counted from `rows.start`) with its
/// error. A join whose `Semi` / `Anti` probe row matches before such a
/// row never reaches it, and reads on.
pub(crate) fn mask_until_failure(
    pred: &Expr,
    batch: &Table,
    agg_base: Option<usize>,
    rows: Range<usize>,
) -> (Vec<Option<bool>>, Option<(usize, EvalError)>) {
    let mut ev = Evaluator::new(batch, agg_base, rows);
    let mask = ev.mask(pred, ev.all_rows());
    (mask, ev.failed)
}

/// The rows of `batch` where `pred` is TRUE: what σ keeps. Fails as
/// [`eval_mask`] does.
pub(crate) fn eval_select(
    pred: &Expr,
    batch: &Table,
    agg_base: Option<usize>,
) -> Result<Vec<usize>, EvalError> {
    let mut ev = Evaluator::new(batch, agg_base, 0..batch.len());
    let mut kept = ev.all_rows();
    let unknown = ev.narrow(pred, &mut kept, false);
    retain(&mut kept, &unknown, false);
    ev.failed.map_or(Ok(kept), |(_, e)| Err(e))
}

/// What [`eval_column`] returns: the column, and — when some row failed
/// — the first such row with its error; the cells before it are valid.
/// An operator that interleaves evaluation with other fallible work
/// per row (group-by, several sort keys) needs both to fail where the
/// row walk would.
pub type Evaluated<'a> = (Cow<'a, ColumnVec>, Option<(usize, EvalError)>);

/// `expr` over every row of `batch`, as one column: an input column is
/// borrowed as it is, anything computed is built densely (`Int` / `Num`
/// when uniform, as pushing the cells one by one would).
pub fn eval_column<'a>(expr: &Expr, batch: &'a Table, agg_base: Option<usize>) -> Evaluated<'a> {
    let whole = || Evaluator::new(batch, agg_base, 0..batch.len());
    if let Some(Ok(input)) = whole().input(expr) {
        return (Cow::Borrowed(input), None);
    }
    let mut ev = whole();
    let column = match ev.column(expr, &ev.all_rows()) {
        Col::Int(v) => ColumnVec::Int(v.into_owned()),
        Col::Num(v) => ColumnVec::Num(v.into_owned()),
        Col::Date(v) => ColumnVec::Date(v.to_vec()),
        Col::Str(c, from) => ColumnVec::Str(c.slice(from..from + ev.n)),
        Col::Val(v) => ColumnVec::from_values(v.into_owned()),
        Col::Enc(c, from) => ColumnVec::Enc(c.slice(from..from + ev.n)),
        Col::Lit(v) => ColumnVec::repeat(v, ev.n),
    };
    (Cow::Owned(column), ev.failed)
}

static NULL: Value = Value::Null;

/// An operand: rows of an input column borrowed where they lie, a
/// literal, or a computed column. Indexed by row within the evaluated
/// range; a computed column is meaningful on the rows it was computed
/// for.
enum Col<'a> {
    Int(Cow<'a, [i64]>),
    Num(Cow<'a, [f64]>),
    Date(&'a [Date]),
    /// The cells of a string column from the given one on.
    Str(&'a StrColumn, usize),
    Val(Cow<'a, [Value]>),
    /// The cells of an encrypted column from the given one on.
    Enc(&'a EncColumn, usize),
    Lit(&'a Value),
}

/// One operand of a typed loop: its cells by row within the range.
trait Lane: Copy {
    type Cell: Copy;
    fn at(self, r: usize) -> Self::Cell;
    /// The cells of rows `0..n`, in order.
    fn cells(self, n: usize) -> impl Iterator<Item = Self::Cell> {
        (0..n).map(move |r| self.at(r))
    }
}

impl<T: Copy> Lane for &[T] {
    type Cell = T;
    fn at(self, r: usize) -> T {
        self[r]
    }
    fn cells(self, n: usize) -> impl Iterator<Item = T> {
        self[..n].iter().copied()
    }
}

/// A literal: one cell on every row.
#[derive(Clone, Copy)]
struct One<T>(T);

impl<T: Copy> Lane for One<T> {
    type Cell = T;
    fn at(self, _: usize) -> T {
        self.0
    }
}

/// An integer column read as numerics, each cell widened as
/// [`Value::as_num`] widens it.
#[derive(Clone, Copy)]
struct Wide<'s>(&'s [i64]);

impl Lane for Wide<'_> {
    type Cell = f64;
    fn at(self, r: usize) -> f64 {
        self.0[r] as f64
    }
}

/// The cells of a string column from the given one on, as bytes.
#[derive(Clone, Copy)]
struct Bytes<'s>(&'s StrColumn, usize);

impl<'s> Lane for Bytes<'s> {
    type Cell = Text<'s>;
    fn at(self, r: usize) -> Text<'s> {
        self.0.text(self.1 + r)
    }
    fn cells(self, n: usize) -> impl Iterator<Item = Text<'s>> {
        self.0.texts(self.1..self.1 + n)
    }
}

/// Two operands read side by side.
impl<A: Lane, B: Lane> Lane for (A, B) {
    type Cell = (A::Cell, B::Cell);
    fn at(self, r: usize) -> Self::Cell {
        (self.0.at(r), self.1.at(r))
    }
    fn cells(self, n: usize) -> impl Iterator<Item = Self::Cell> {
        self.0.cells(n).zip(self.1.cells(n))
    }
}

/// A typed operand: a lane over the rows, or a literal.
#[derive(Clone, Copy)]
enum Side<L, T> {
    Rows(L),
    Lit(T),
}

impl<L: Lane> Side<L, L::Cell> {
    fn at(self, r: usize) -> L::Cell {
        match self {
            Side::Rows(l) => l.at(r),
            Side::Lit(x) => x,
        }
    }
}

/// An operand as the typed loops read it.
enum Typed<'s> {
    Int(Side<&'s [i64], i64>),
    Num(Side<&'s [f64], f64>),
    Day(Side<&'s [Date], Date>),
    Text(Side<Bytes<'s>, Text<'s>>),
}

/// A loop over two operands of one cell type, instantiated once per
/// pair of lane types: nothing in it asks a cell's representation.
trait Kernel<T> {
    type Out;
    fn run(self, a: impl Lane<Cell = T>, b: impl Lane<Cell = T>) -> Self::Out;
}

/// `k` over two sides, whichever of a slice or a literal each is.
fn sides<T: Copy, K: Kernel<T>>(
    x: Side<impl Lane<Cell = T>, T>,
    y: Side<impl Lane<Cell = T>, T>,
    k: K,
) -> K::Out {
    match (x, y) {
        (Side::Rows(p), Side::Rows(q)) => k.run(p, q),
        (Side::Rows(p), Side::Lit(q)) => k.run(p, One(q)),
        (Side::Lit(p), Side::Rows(q)) => k.run(One(p), q),
        (Side::Lit(p), Side::Lit(q)) => k.run(One(p), One(q)),
    }
}

/// `k` over two numeric operands read as numerics; `None` when either
/// is not numeric.
fn nums<K: Kernel<f64>>(x: Typed<'_>, y: Typed<'_>, k: K) -> Option<K::Out> {
    let wide = |s| match s {
        Side::Rows(v) => Side::Rows(Wide(v)),
        Side::Lit(i) => Side::Lit(i as f64),
    };
    Some(match (x, y) {
        (Typed::Num(x), Typed::Num(y)) => sides(x, y, k),
        (Typed::Int(x), Typed::Num(y)) => sides(wide(x), y, k),
        (Typed::Num(x), Typed::Int(y)) => sides(x, wide(y), k),
        (Typed::Int(x), Typed::Int(y)) => sides(wide(x), wide(y), k),
        _ => return None,
    })
}

/// `f` on each row of `live`, into `out`: over the lanes themselves
/// when `live` is every row.
fn each<T, O>(
    a: impl Lane<Cell = T>,
    b: impl Lane<Cell = T>,
    live: &[usize],
    out: &mut [O],
    f: impl Fn(T, T) -> O,
) {
    let n = out.len();
    if live.len() == n {
        for (o, (p, q)) in out.iter_mut().zip(a.cells(n).zip(b.cells(n))) {
            *o = f(p, q);
        }
    } else {
        live.iter().for_each(|&r| out[r] = f(a.at(r), b.at(r)));
    }
}

/// Keep the rows of `sel` whose cell in `lane` satisfies `f`, compacted
/// in place without a branch on the data — over the lane itself when
/// `sel` is every one of its `n` rows.
fn keep<C>(lane: impl Lane<Cell = C>, sel: &mut Vec<usize>, n: usize, f: impl Fn(C) -> bool) {
    let mut kept = 0;
    if sel.len() == n {
        for (r, cell) in lane.cells(n).enumerate() {
            sel[kept] = r;
            kept += usize::from(f(cell));
        }
    } else {
        for i in 0..sel.len() {
            let r = sel[i];
            sel[kept] = r;
            kept += usize::from(f(lane.at(r)));
        }
    }
    sel.truncate(kept);
}

/// Keep the rows of `sel` (of `n`) where `a op b` is not the given
/// truth. Equality needs no order; a pair an ordering finds none for (a
/// NaN) is kept, and the kernel yields `false`: the cell rule answers
/// for the rows it kept.
struct Narrow<'s>(CmpOp, bool, &'s mut Vec<usize>, usize);

impl<T: PartialOrd> Kernel<T> for Narrow<'_> {
    type Out = bool;
    fn run(self, a: impl Lane<Cell = T>, b: impl Lane<Cell = T>) -> bool {
        let Narrow(op, drop, sel, n) = self;
        let (lanes, ordered) = ((a, b), Cell::new(true));
        let by = |(p, q): (T, T), test: fn(Ordering) -> bool| {
            let o = p.partial_cmp(&q);
            ordered.set(ordered.get() & o.is_some());
            o.is_none_or(|o| test(o) != drop)
        };
        match op {
            CmpOp::Eq => keep(lanes, sel, n, |(p, q)| (p == q) != drop),
            CmpOp::Ne => keep(lanes, sel, n, |(p, q)| (p != q) != drop),
            CmpOp::Lt => keep(lanes, sel, n, |pq| by(pq, Ordering::is_lt)),
            CmpOp::Le => keep(lanes, sel, n, |pq| by(pq, Ordering::is_le)),
            CmpOp::Gt => keep(lanes, sel, n, |pq| by(pq, Ordering::is_gt)),
            CmpOp::Ge => keep(lanes, sel, n, |pq| by(pq, Ordering::is_ge)),
        }
        ordered.get()
    }
}

/// `a op b` as numerics on each row of `live`, 0 elsewhere — or `None`
/// when a live row divides by zero: `/ 0` is NULL, which no dense
/// column holds.
struct Widened<'s>(ArithOp, &'s [usize], usize);

impl Kernel<f64> for Widened<'_> {
    type Out = Option<Vec<f64>>;
    fn run(self, a: impl Lane<Cell = f64>, b: impl Lane<Cell = f64>) -> Option<Vec<f64>> {
        let Widened(op, live, n) = self;
        if op == ArithOp::Div && live.iter().any(|&r| b.at(r) == 0.0) {
            return None;
        }
        let mut out = vec![0.0; n];
        match op {
            ArithOp::Add => each(a, b, live, &mut out, |p, q| p + q),
            ArithOp::Sub => each(a, b, live, &mut out, |p, q| p - q),
            ArithOp::Mul => each(a, b, live, &mut out, |p, q| p * q),
            ArithOp::Div => each(a, b, live, &mut out, |p, q| p / q),
        }
        Some(out)
    }
}

impl Col<'_> {
    /// Cell `r` where it lies: what comparisons, `IN`, `LIKE` and
    /// `IS NULL` read.
    #[inline]
    fn cell_ref(&self, r: usize) -> CellRef<'_> {
        match self {
            Col::Int(v) => CellRef::Int(v[r]),
            Col::Num(v) => CellRef::Num(v[r]),
            Col::Date(v) => CellRef::Date(v[r]),
            Col::Str(c, from) => CellRef::Str(c.cell(from + r)),
            Col::Val(v) => (&v[r]).into(),
            Col::Enc(c, from) => match c.cell(from + r) {
                [] => CellRef::Null,
                cell => CellRef::Enc(c.scheme(), c.key_id(), cell),
            },
            Col::Lit(v) => (*v).into(),
        }
    }

    /// Cell `r` as a value of its own, for the cell rules that compute
    /// one (arithmetic, `EXTRACT`, `SUBSTRING`, `CASE`) or report it:
    /// borrowed when it exists as a [`Value`], copied out otherwise.
    fn cell(&self, r: usize) -> Cow<'_, Value> {
        match self {
            Col::Val(v) => Cow::Borrowed(&v[r]),
            Col::Lit(v) => Cow::Borrowed(v),
            _ => Cow::Owned(self.cell_ref(r).into()),
        }
    }

    /// The operand as the typed loops read it; `None` when they cannot.
    fn typed(&self) -> Option<Typed<'_>> {
        Some(match self {
            Col::Int(v) => Typed::Int(Side::Rows(v)),
            Col::Num(v) => Typed::Num(Side::Rows(v)),
            Col::Date(v) => Typed::Day(Side::Rows(v)),
            Col::Str(c, from) => Typed::Text(Side::Rows(Bytes(c, *from))),
            Col::Lit(Value::Int(x)) => Typed::Int(Side::Lit(*x)),
            Col::Lit(Value::Num(x)) => Typed::Num(Side::Lit(*x)),
            Col::Lit(Value::Date(d)) => Typed::Day(Side::Lit(*d)),
            Col::Lit(Value::Str(s)) => Typed::Text(Side::Lit(Text::new(s.as_bytes()))),
            _ => return None,
        })
    }

    /// `true` when every non-NULL cell is a ciphertext under one header.
    fn is_enc(&self) -> bool {
        matches!(self, Col::Enc(..) | Col::Lit(Value::Enc(_)))
    }

    /// Ciphertext `r` of an [`is_enc`](Col::is_enc) operand where it
    /// lies; `None` for NULL.
    fn enc(&self, r: usize) -> Option<EncRef<'_>> {
        match self {
            Col::Enc(c, from) => {
                let cell = c.cell(from + r);
                (!cell.is_empty()).then_some((c.scheme(), c.key_id(), cell))
            }
            Col::Lit(Value::Enc(e)) => Some((e.scheme, e.key_id, &e.bytes)),
            _ => None,
        }
    }
}

/// One expression over one range of one batch. Kernels take a
/// *selection* — ascending row numbers within the range — and touch
/// nothing else.
///
/// The first row a kernel fails on ends the batch there: the error is
/// kept, every row from it on is dead to later kernels, and a later
/// failure can only be on an earlier row, where it replaces the kept
/// one. A row's sub-expressions are visited in the row walk's order, so
/// what is kept at the end is the first failing row's first error —
/// the row walk's error.
struct Evaluator<'a> {
    attrs: &'a [AttrId],
    cols: &'a [ColumnVec],
    agg_base: Option<usize>,
    /// First row of the range in the batch, and the range's length.
    start: usize,
    n: usize,
    failed: Option<(usize, EvalError)>,
}

impl<'a> Evaluator<'a> {
    fn new(batch: &'a Table, agg_base: Option<usize>, rows: Range<usize>) -> Evaluator<'a> {
        Evaluator {
            attrs: batch.attrs(),
            cols: batch.columns(),
            agg_base,
            start: rows.start,
            n: rows.len(),
            failed: None,
        }
    }

    fn all_rows(&self) -> Vec<usize> {
        (0..self.n).collect()
    }

    /// The rows of `sel` still alive: those before the failed one.
    fn live<'s>(&self, sel: &'s [usize]) -> &'s [usize] {
        match self.failed {
            Some((dead, _)) => &sel[..sel.partition_point(|&r| r < dead)],
            None => sel,
        }
    }

    /// Apply `rule` to each live row of `sel`, into `out`.
    fn fill<T>(
        &mut self,
        sel: &[usize],
        out: &mut [T],
        mut rule: impl FnMut(usize) -> Result<T, EvalError>,
    ) {
        for &r in self.live(sel) {
            match rule(r) {
                Ok(v) => out[r] = v,
                Err(e) => {
                    self.failed = Some((r, e));
                    return;
                }
            }
        }
    }

    /// A computed column: `rule` on each live row of `sel`, `blank`
    /// elsewhere.
    fn apply<T: Clone>(
        &mut self,
        sel: &[usize],
        blank: T,
        rule: impl FnMut(usize) -> Result<T, EvalError>,
    ) -> Vec<T> {
        let mut out = vec![blank; self.n];
        self.fill(sel, &mut out, rule);
        out
    }

    /// The input column a column or aggregate reference names; `None`
    /// for any other expression.
    fn input(&self, e: &Expr) -> Option<Result<&'a ColumnVec, EvalError>> {
        let (pos, unknown) = match e {
            Expr::Col(a) => (
                self.attrs.iter().position(|c| c == a),
                EvalError::UnknownColumn(*a),
            ),
            Expr::AggRef(i) => (
                self.agg_base.map(|base| base + i),
                EvalError::AggRefOutsideGroup(*i),
            ),
            _ => return None,
        };
        Some(pos.and_then(|i| self.cols.get(i)).ok_or(unknown))
    }

    fn column(&mut self, e: &'a Expr, sel: &[usize]) -> Col<'a> {
        if let Some(input) = self.input(e) {
            let rows = self.start..self.start + self.n;
            return match input {
                Ok(ColumnVec::Int(v)) => Col::Int(Cow::Borrowed(&v[rows])),
                Ok(ColumnVec::Num(v)) => Col::Num(Cow::Borrowed(&v[rows])),
                Ok(ColumnVec::Date(v)) => Col::Date(&v[rows]),
                Ok(ColumnVec::Str(c)) => Col::Str(c, self.start),
                Ok(ColumnVec::Val(v)) => Col::Val(Cow::Borrowed(&v[rows])),
                Ok(ColumnVec::Enc(c)) => Col::Enc(c, self.start),
                Err(unknown) => {
                    // Every row that looks fails; none may be looking.
                    if let Some(&first) = self.live(sel).first() {
                        self.failed = Some((first, unknown));
                    }
                    Col::Lit(&NULL)
                }
            };
        }
        match e {
            Expr::Lit(v) => Col::Lit(v),
            Expr::Arith(a, op, b) => {
                let (x, y) = (self.column(a, sel), self.column(b, sel));
                self.arith(&x, *op, &y, sel)
            }
            Expr::Case { branches, else_ } => {
                let mut out = vec![Value::Null; self.n];
                let mut open = sel.to_vec();
                for (cond, then) in branches {
                    if open.is_empty() {
                        break;
                    }
                    let mut taken = open.clone();
                    let unknown = self.narrow(cond, &mut taken, false);
                    retain(&mut taken, &unknown, false);
                    self.scatter(then, &taken, &mut out);
                    retain(&mut open, &taken, false);
                }
                if let Some(e) = else_ {
                    self.scatter(e, &open, &mut out);
                }
                Col::Val(out.into())
            }
            Expr::Extract { field, expr } => {
                let v = self.column(expr, sel);
                let year = self.apply(sel, Value::Null, |r| extract_cell(*field, &v.cell(r)));
                Col::Val(year.into())
            }
            Expr::Substring { expr, start, len } => {
                let v = self.column(expr, sel);
                let cut = |r| substring_cell(&v.cell(r), *start, *len);
                Col::Val(self.apply(sel, Value::Null, cut).into())
            }
            _ => {
                let truth = self.mask(e, sel.to_vec());
                Col::Val(truth.into_iter().map(truth_to_value).collect())
            }
        }
    }

    /// `e` on the rows of `sel`, written to those rows of `out`.
    fn scatter(&mut self, e: &'a Expr, sel: &[usize], out: &mut [Value]) {
        let v = self.column(e, sel);
        self.fill(sel, out, |r| Ok(v.cell(r).into_owned()));
    }

    fn arith(&mut self, a: &Col<'_>, op: ArithOp, b: &Col<'_>, sel: &[usize]) -> Col<'a> {
        let widened = match (a.typed(), b.typed()) {
            (Some(Typed::Int(x)), Some(Typed::Int(y))) if op != ArithOp::Div => {
                let checked = |r| {
                    int_arith(x.at(r), op, y.at(r))
                        .ok_or_else(|| overflow(&a.cell(r), op, &b.cell(r)))
                };
                return Col::Int(self.apply(sel, 0, checked).into());
            }
            (Some(x), Some(y)) => nums(x, y, Widened(op, self.live(sel), self.n)).flatten(),
            _ => None,
        };
        if let Some(v) = widened {
            return Col::Num(v.into());
        }
        let by_cell = |r| arith(&a.cell(r), op, &b.cell(r));
        Col::Val(self.apply(sel, Value::Null, by_cell).into())
    }

    /// Three-valued truth of `e` on the rows of `kept`, by row of the
    /// range (FALSE on the rows outside it).
    fn mask(&mut self, e: &'a Expr, mut kept: Vec<usize>) -> Vec<Option<bool>> {
        let unknown = self.narrow(e, &mut kept, false);
        let mut out = vec![Some(false); self.n];
        kept.iter().for_each(|&r| out[r] = Some(true));
        unknown.iter().for_each(|&r| out[r] = None);
        out
    }

    /// Narrow `sel` to its live rows where `e` is not `drop` — for
    /// `false` the TRUE and the NULL ones — and return the NULL ones it
    /// kept. Every part of `e` sees exactly the rows the row walk shows
    /// it, and fails on the first of them it fails on.
    fn narrow(&mut self, e: &'a Expr, sel: &mut Vec<usize>, drop: bool) -> Vec<usize> {
        let mut unknown = match e {
            Expr::Cmp(a, op, b) => {
                let (x, y) = (self.column(a, sel), self.column(b, sel));
                self.cmp(&x, *op, &y, sel, drop)
            }
            Expr::And(parts) | Expr::Or(parts) => {
                // A part that comes out `decides` settles its row, and
                // later parts see only the rows still open.
                let decides = matches!(e, Expr::Or(_));
                self.flip(sel, drop, decides, |ev, open| {
                    let mut unknown = Vec::new();
                    for part in parts {
                        if open.is_empty() {
                            break;
                        }
                        unknown.extend(ev.narrow(part, open, decides));
                    }
                    settle(unknown, open)
                })
            }
            Expr::Not(x) => self.narrow(x, sel, !drop),
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = self.column(expr, sel);
                let (lo, hi) = (self.column(lo, sel), self.column(hi, sel));
                // SQL's AND of the two bounds, which the row walk both
                // evaluates: `<= hi` also meets the rows `>= lo` settles
                // FALSE unless it cannot fail on one.
                let narrows = can_follow(&v, &hi);
                self.flip(sel, drop != *negated, false, |ev, open| {
                    let mut le = (!narrows).then(|| open.clone());
                    let mut unknown = ev.cmp(&v, CmpOp::Ge, &lo, open, false);
                    let le_rows = le.as_mut().unwrap_or(open);
                    unknown.extend(ev.cmp(&v, CmpOp::Le, &hi, le_rows, false));
                    if let Some(le) = &le {
                        retain(open, le, true);
                    }
                    settle(unknown, open)
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.column(expr, sel);
                let pattern: Vec<char> = pattern.chars().collect();
                self.sift(sel, drop, |r| like_cell(v.cell_ref(r), &pattern, *negated))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.column(expr, sel);
                // A string column against string literals: as bytes.
                let items: Option<Vec<Text>> = (list.iter())
                    .map(|item| match item {
                        Value::Str(s) => Some(Text::new(s.as_bytes())),
                        _ => None,
                    })
                    .collect();
                if let (Col::Str(c, from), Some(items)) = (&v, items) {
                    sel.truncate(self.live(sel).len());
                    let hit = |cell| items.iter().fold(false, |hit, &item| hit | (item == cell));
                    let hit = |cell| hit(cell) != (*negated != drop);
                    keep(Bytes(c, *from), sel, self.n, hit);
                    return Vec::new();
                }
                self.sift(sel, drop, |r| in_list_cell(v.cell_ref(r), list, *negated))
            }
            Expr::IsNull { expr, negated } => {
                let v = self.column(expr, sel);
                let null = |r| matches!(v.cell_ref(r), CellRef::Null);
                self.sift(sel, drop, |r| Ok(Some(null(r) != *negated)))
            }
            _ => {
                let v = self.column(e, sel);
                self.sift(sel, drop, |r| truth_of(&v.cell(r)))
            }
        };
        sel.truncate(self.live(sel).len());
        unknown.truncate(self.live(&unknown).len());
        unknown
    }

    /// [`narrow`](Evaluator::narrow) by `drop` through `walk`, which
    /// narrows by `native`: on `sel` itself when the two agree, else on
    /// a copy, whose rows that are not NULL then leave `sel`.
    fn flip(
        &mut self,
        sel: &mut Vec<usize>,
        drop: bool,
        native: bool,
        walk: impl FnOnce(&mut Self, &mut Vec<usize>) -> Vec<usize>,
    ) -> Vec<usize> {
        if drop == native {
            return walk(self, sel);
        }
        let mut settled = sel.clone();
        let unknown = walk(self, &mut settled);
        retain(&mut settled, &unknown, false);
        retain(sel, &settled, false);
        unknown
    }

    /// Narrow `sel` by `rule`, each live row's truth, in row order up to
    /// the first failing row.
    fn sift(
        &mut self,
        sel: &mut Vec<usize>,
        drop: bool,
        mut rule: impl FnMut(usize) -> Truth,
    ) -> Vec<usize> {
        let (mut kept, mut unknown) = (0, Vec::new());
        for i in 0..self.live(sel).len() {
            let r = sel[i];
            match rule(r) {
                Ok(truth) => {
                    sel[kept] = r;
                    kept += usize::from(truth != Some(drop));
                    if truth.is_none() {
                        unknown.push(r);
                    }
                }
                Err(e) => {
                    self.failed = Some((r, e));
                    break;
                }
            }
        }
        sel.truncate(kept);
        unknown
    }

    fn cmp(
        &mut self,
        a: &Col<'_>,
        op: CmpOp,
        b: &Col<'_>,
        sel: &mut Vec<usize>,
        drop: bool,
    ) -> Vec<usize> {
        sel.truncate(self.live(sel).len());
        // One typed loop per pair of operand kinds: integers, numerics,
        // dates by day, strings by byte. The rows of a pair it cannot
        // order — NaN — it keeps for the cell rule.
        let k = Narrow(op, drop, sel, self.n);
        let typed = match (a.typed(), b.typed()) {
            (Some(Typed::Int(x)), Some(Typed::Int(y))) => sides(x, y, k),
            (Some(Typed::Day(x)), Some(Typed::Day(y))) => sides(x, y, k),
            (Some(Typed::Text(x)), Some(Typed::Text(y))) => sides(x, y, k),
            (Some(x), Some(y)) => nums(x, y, k).unwrap_or(false),
            _ => false,
        };
        if typed {
            Vec::new()
        } else if a.is_enc() && b.is_enc() {
            // Two ciphertext operands: compared on their bytes, through
            // the capability checks alone.
            self.sift(sel, drop, |r| match (a.enc(r), b.enc(r)) {
                (Some(x), Some(y)) => cmp_enc(x, op, y),
                _ => Ok(None),
            })
        } else {
            self.sift(sel, drop, |r| cmp_cells(a.cell_ref(r), op, b.cell_ref(r)))
        }
    }
}

/// `true` when `v <= hi` cannot fail on a row where `v` has an order:
/// one typed loop reads both, and `hi` holds no NaN.
fn can_follow(v: &Col<'_>, hi: &Col<'_>) -> bool {
    use Typed::*;
    match (v.typed(), hi.typed()) {
        (Some(Int(_) | Num(_)), Some(Int(_))) | (Some(Day(_)), Some(Day(_))) => true,
        (Some(Text(_)), Some(Text(_))) => true,
        (Some(Int(_) | Num(_)), Some(Num(Side::Lit(x)))) => !x.is_nan(),
        _ => false,
    }
}

/// The NULL rows some parts kept, as those of `open` — in order, once
/// each.
fn settle(mut unknown: Vec<usize>, open: &[usize]) -> Vec<usize> {
    unknown.sort_unstable();
    unknown.dedup();
    retain(&mut unknown, open, true);
    unknown
}

/// Keep the rows of `sel` that `rows` holds (`within`) or does not hold;
/// both ascending.
fn retain(sel: &mut Vec<usize>, rows: &[usize], within: bool) {
    let mut at = 0;
    sel.retain(|&r| {
        while rows.get(at).is_some_and(|&x| x < r) {
            at += 1;
        }
        (rows.get(at) == Some(&r)) == within
    });
}

/// SQL LIKE with `%` (any run) and `_` (any single char).
#[cfg(test)]
fn like_match(s: &str, pattern: &str) -> bool {
    like_chars(s, &pattern.chars().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowref::{eval, eval_pred, RowCtx};
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

    /// The recursive matcher tried every split at every `%`: this
    /// pattern took minutes on this cell, and it arrives in a signed
    /// sub-query. Two pointers answer in microseconds.
    #[test]
    fn like_cannot_be_made_to_hang() {
        let cell = "a".repeat(64);
        let pattern = "%a".repeat(16) + "b";
        let start = std::time::Instant::now();
        assert!(!like_match(&cell, &pattern));
        assert!(like_match(&cell, &"%a".repeat(16)));
        assert!(like_match(&(cell + "b"), &pattern));
        assert!(start.elapsed() < std::time::Duration::from_millis(10));
    }

    #[test]
    fn like_wildcards_at_the_edges() {
        // Only `%`: anything, the empty cell included.
        assert!(like_match("", "%%%") && like_match("abc", "%%"));
        // A trailing `%` takes the rest, or nothing.
        assert!(like_match("PROMO", "PROMO%") && like_match("PROMO TIN", "PROMO%"));
        assert!(!like_match("PROM", "PROMO%"));
        // `_` behind `%` still needs its one character.
        assert!(like_match("b", "%_") && like_match("xab", "%_b") && like_match("ab", "%_b"));
        assert!(!like_match("", "%_") && !like_match("b", "%_b"));
        // The `%` gives back what a later literal needs.
        assert!(
            like_match("abab", "%ab") && like_match("aab", "a%ab") && !like_match("ab", "a%ab")
        );
        // Wildcards count characters, not bytes.
        assert!(like_match("ünï", "ü_ï") && like_match("ünï", "%ï") && like_match("ü", "_"));
        assert!(!like_match("ü", "__") && !like_match("ünï", "u%"));
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

        // BETWEEN joins its two bounds as SQL's AND: FALSE wins, then NULL.
        let (t, f, u) = (Some(true), Some(false), None);
        let table = [
            (t, t, t),
            (t, f, f),
            (t, u, u),
            (f, t, f),
            (f, f, f),
            (f, u, f),
            (u, t, u),
            (u, f, f),
            (u, u, u),
        ];
        for (ge, le, inside) in table {
            assert_eq!(between(ge, le, false), inside, "{ge:?} {le:?}");
            assert_eq!(between(ge, le, true), inside.map(|b| !b), "{ge:?} {le:?}");
        }
        let lit = |v| Box::new(Expr::Lit(v));
        let five_between_null_and_3 = |negated| Expr::Between {
            expr: lit(Value::Int(5)),
            lo: lit(Value::Null),
            hi: lit(Value::Int(3)),
            negated,
        };
        assert_eq!(eval_pred(&five_between_null_and_3(false), &ctx), Ok(f));
        assert_eq!(eval_pred(&five_between_null_and_3(true), &ctx), Ok(t));

        // A NULL item equals nothing, but leaves a miss unknown.
        let in_list = |v, negated| Expr::InList {
            expr: lit(Value::Int(v)),
            list: vec![Value::Int(1), Value::Null],
            negated,
        };
        assert_eq!(eval_pred(&in_list(2, false), &ctx), Ok(u));
        assert_eq!(eval_pred(&in_list(2, true), &ctx), Ok(u));
        assert_eq!(eval_pred(&in_list(1, false), &ctx), Ok(t));
        assert_eq!(eval_pred(&in_list(1, true), &ctx), Ok(f));
        let null_free = Expr::InList {
            expr: lit(Value::Int(2)),
            list: vec![Value::Int(1)],
            negated: true,
        };
        assert_eq!(eval_pred(&null_free, &ctx), Ok(t));
        // …and a NULL item beside a ciphertext cell is no plaintext.
        use mpq_algebra::value::EncValue;
        let det = |byte: u8| {
            Value::Enc(EncValue {
                scheme: EncScheme::Deterministic,
                key_id: 0,
                bytes: std::sync::Arc::from(&[byte][..]),
            })
        };
        assert_eq!(
            in_list_cell((&det(2)).into(), &[det(1), Value::Null], false),
            Ok(u)
        );
        assert_eq!(
            in_list_cell((&det(1)).into(), &[Value::Null, det(1)], true),
            Ok(f)
        );
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
