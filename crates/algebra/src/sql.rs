//! SQL front-end for the paper's query class.
//!
//! The paper considers queries of the general form
//! `select … from … where … group by … having …` with joins among
//! relations of different authorities. This module provides a lexer and
//! recursive-descent parser for exactly that dialect (plus `ORDER BY`,
//! `LIMIT`, date literals and intervals needed by TPC-H). The output is
//! a name-based AST; [`crate::builder`] resolves names against a
//! [`crate::Catalog`] and produces a [`crate::QueryPlan`] with
//! projections pushed down.

use crate::error::{AlgebraError, Result};
use crate::expr::{AggFunc, ArithOp, CmpOp};
use crate::value::{Date, Value};

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// Name-based expression AST.
#[derive(Clone, Debug, PartialEq)]
pub enum AstExpr {
    /// Column reference (optionally `table.column`; the table part is
    /// dropped since attribute names are globally unique).
    Col(String),
    /// Literal value.
    Lit(Value),
    /// `INTERVAL 'n' unit`; only meaningful inside date arithmetic and
    /// folded away at build time.
    Interval(i64, IntervalUnit),
    /// Aggregate call (`count(DISTINCT x)` is `AggFunc::CountDistinct`).
    Agg(AggFunc, Box<AstExpr>),
    /// `count(*)`.
    CountStar,
    /// Comparison.
    Cmp(Box<AstExpr>, CmpOp, Box<AstExpr>),
    /// Conjunction.
    And(Vec<AstExpr>),
    /// Disjunction.
    Or(Vec<AstExpr>),
    /// Negation.
    Not(Box<AstExpr>),
    /// Arithmetic.
    Arith(Box<AstExpr>, ArithOp, Box<AstExpr>),
    /// LIKE.
    Like(Box<AstExpr>, String, bool),
    /// BETWEEN.
    Between(Box<AstExpr>, Box<AstExpr>, Box<AstExpr>, bool),
    /// IN over literals.
    InList(Box<AstExpr>, Vec<Value>, bool),
    /// Searched CASE.
    Case(Vec<(AstExpr, AstExpr)>, Option<Box<AstExpr>>),
    /// `IS [NOT] NULL`.
    IsNull(Box<AstExpr>, bool),
    /// extract(year from e).
    ExtractYear(Box<AstExpr>),
    /// substring(e from i for n).
    Substring(Box<AstExpr>, usize, usize),
    /// `[NOT] EXISTS (query)` (no left-hand side) or `x [NOT] IN
    /// (query)`: a WHERE conjunct the builder plans as a semi/anti join.
    Sub(Option<Box<AstExpr>>, Box<SelectStmt>, bool),
}

impl AstExpr {
    /// The direct sub-expressions, left to right (a subquery's
    /// statement is not one).
    pub(crate) fn children(&self) -> Vec<&AstExpr> {
        match self {
            AstExpr::Col(_) | AstExpr::Lit(_) | AstExpr::Interval(..) | AstExpr::CountStar => {
                vec![]
            }
            AstExpr::Agg(_, x)
            | AstExpr::Not(x)
            | AstExpr::Like(x, _, _)
            | AstExpr::IsNull(x, _)
            | AstExpr::ExtractYear(x)
            | AstExpr::Substring(x, _, _)
            | AstExpr::InList(x, _, _) => vec![x],
            AstExpr::Cmp(a, _, b) | AstExpr::Arith(a, _, b) => vec![a, b],
            AstExpr::And(v) | AstExpr::Or(v) => v.iter().collect(),
            AstExpr::Between(a, lo, hi, _) => vec![a, lo, hi],
            AstExpr::Case(branches, else_) => (branches.iter())
                .flat_map(|(c, v)| [c, v])
                .chain(else_.as_deref())
                .collect(),
            AstExpr::Sub(lhs, _, _) => lhs.as_deref().into_iter().collect(),
        }
    }
}

/// Units for `INTERVAL` literals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntervalUnit {
    /// Days.
    Day,
    /// Months.
    Month,
    /// Years.
    Year,
}

/// One item of the select list.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectItem {
    /// Expression.
    pub expr: AstExpr,
    /// Optional alias (informational).
    pub alias: Option<String>,
}

/// A table in the FROM clause.
#[derive(Clone, Debug, PartialEq)]
pub struct TableRef {
    /// Relation name, or a derived table's alias.
    pub name: String,
    /// A derived table's query (`(SELECT …) name`).
    pub query: Option<Box<SelectStmt>>,
    /// Explicit `JOIN … ON` condition binding this table to the
    /// preceding ones (None for the first table / comma syntax).
    pub join_on: Option<AstExpr>,
    /// `LEFT OUTER JOIN`.
    pub outer: bool,
}

/// A parsed `SELECT` statement.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    /// Select list (empty for `*`).
    pub items: Vec<SelectItem>,
    /// FROM tables, in syntactic order.
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_: Option<AstExpr>,
    /// GROUP BY column names.
    pub group_by: Vec<String>,
    /// HAVING predicate.
    pub having: Option<AstExpr>,
    /// ORDER BY items (expression, ascending).
    pub order_by: Vec<(AstExpr, bool)>,
    /// LIMIT.
    pub limit: Option<u64>,
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Num(f64),
    Str(String),
    Sym(&'static str),
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    toks: Vec<(Tok, usize)>,
}

impl<'a> Lexer<'a> {
    fn tokenize(src: &'a str) -> Result<Vec<(Tok, usize)>> {
        let mut lx = Lexer {
            src,
            pos: 0,
            toks: Vec::new(),
        };
        lx.run()?;
        Ok(lx.toks)
    }

    fn err(&self, msg: &str) -> AlgebraError {
        AlgebraError::Parse {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn run(&mut self) -> Result<()> {
        let b = self.src.as_bytes();
        while self.pos < b.len() {
            let start = self.pos;
            let c = b[self.pos];
            match c {
                b' ' | b'\t' | b'\n' | b'\r' => {
                    self.pos += 1;
                }
                b'-' if b.get(self.pos + 1) == Some(&b'-') => {
                    // line comment
                    while self.pos < b.len() && b[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'\'' => {
                    self.pos += 1;
                    let mut s = String::new();
                    loop {
                        if self.pos >= b.len() {
                            return Err(self.err("unterminated string literal"));
                        }
                        if b[self.pos] == b'\'' {
                            if b.get(self.pos + 1) == Some(&b'\'') {
                                s.push('\'');
                                self.pos += 2;
                            } else {
                                self.pos += 1;
                                break;
                            }
                        } else {
                            s.push(b[self.pos] as char);
                            self.pos += 1;
                        }
                    }
                    self.toks.push((Tok::Str(s), start));
                }
                b'0'..=b'9' => {
                    let mut j = self.pos;
                    let mut is_float = false;
                    while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'.') {
                        if b[j] == b'.' {
                            is_float = true;
                        }
                        j += 1;
                    }
                    let text = &self.src[self.pos..j];
                    let tok = if is_float {
                        Tok::Num(text.parse().map_err(|_| self.err("bad number"))?)
                    } else {
                        Tok::Int(text.parse().map_err(|_| self.err("bad integer"))?)
                    };
                    self.toks.push((tok, start));
                    self.pos = j;
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let mut j = self.pos;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    self.toks.push((
                        Tok::Ident(self.src[self.pos..j].to_ascii_lowercase()),
                        start,
                    ));
                    self.pos = j;
                }
                _ => {
                    let two = self.src.get(self.pos..self.pos + 2);
                    let sym = match two {
                        Some("<=") => Some("<="),
                        Some(">=") => Some(">="),
                        Some("<>") => Some("<>"),
                        Some("!=") => Some("<>"),
                        _ => None,
                    };
                    if let Some(s) = sym {
                        self.toks.push((Tok::Sym(s), start));
                        self.pos += 2;
                    } else {
                        let s = match c {
                            b'(' => "(",
                            b')' => ")",
                            b',' => ",",
                            b'.' => ".",
                            b'=' => "=",
                            b'<' => "<",
                            b'>' => ">",
                            b'+' => "+",
                            b'-' => "-",
                            b'*' => "*",
                            b'/' => "/",
                            b';' => ";",
                            _ => return Err(self.err("unexpected character")),
                        };
                        self.toks.push((Tok::Sym(s), start));
                        self.pos += 1;
                    }
                }
            }
        }
        self.toks.push((Tok::Eof, self.pos));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse a single `SELECT` statement.
pub(crate) fn parse_select(src: &str) -> Result<SelectStmt> {
    let toks = Lexer::tokenize(src)?;
    let mut p = Parser { toks, i: 0 };
    let stmt = p.select()?;
    p.eat_sym(";").ok();
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.i].0
    }

    fn pos(&self) -> usize {
        self.toks[self.i].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.i].0.clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> AlgebraError {
        AlgebraError::Parse {
            pos: self.pos(),
            msg: msg.into(),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> Result<()> {
        if matches!(self.peek(), Tok::Sym(s) if *s == sym) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected '{sym}'")))
        }
    }

    fn try_sym(&mut self, sym: &str) -> bool {
        self.eat_sym(sym).is_ok()
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(self.err("trailing tokens after statement"))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            _ => Err(self.err("expected identifier")),
        }
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let mut items = Vec::new();
        if !self.try_sym("*") {
            items.push(self.select_item()?);
            while self.try_sym(",") {
                items.push(self.select_item()?);
            }
        }
        self.expect_kw("from")?;
        let mut from = vec![self.table_ref(false)?];
        loop {
            if self.try_sym(",") {
                from.push(self.table_ref(false)?);
                continue;
            }
            let outer = self.eat_kw("left");
            if outer {
                self.eat_kw("outer");
            } else {
                self.eat_kw("inner");
            }
            if !self.eat_kw("join") {
                break;
            }
            let mut t = self.table_ref(outer)?;
            self.expect_kw("on")?;
            t.join_on = Some(self.expr()?);
            from.push(t);
        }
        let where_ = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.ident()?);
            while self.try_sym(",") {
                group_by.push(self.ident()?);
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                order_by.push((e, asc));
                if !self.try_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.bump() {
                Tok::Int(n) if n >= 0 => Some(n as u64),
                _ => return Err(self.err("expected non-negative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            where_,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    /// A relation name, or a derived table `(SELECT …) alias`.
    fn table_ref(&mut self, outer: bool) -> Result<TableRef> {
        let query = match self.try_sym("(") {
            true => Some(Box::new(self.subquery()?)),
            false => None,
        };
        let name = self.ident()?;
        Ok(TableRef {
            name,
            query,
            join_on: None,
            outer,
        })
    }

    /// A parenthesised `SELECT`, its `(` already consumed.
    fn subquery(&mut self) -> Result<SelectStmt> {
        let stmt = self.select()?;
        self.eat_sym(")")?;
        Ok(stmt)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let first = self.and_expr()?;
        let mut parts = vec![first];
        while self.eat_kw("or") {
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            AstExpr::Or(parts)
        })
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let first = self.not_expr()?;
        let mut parts = vec![first];
        while self.eat_kw("and") {
            parts.push(self.not_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            AstExpr::And(parts)
        })
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.eat_kw("not") {
            Ok(match self.not_expr()? {
                AstExpr::Sub(lhs, query, negated) => AstExpr::Sub(lhs, query, !negated),
                other => AstExpr::Not(Box::new(other)),
            })
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<AstExpr> {
        let lhs = self.add_expr()?;
        // Optional comparison / BETWEEN / LIKE / IN / IS NULL suffix.
        let negated = if matches!(self.peek(), Tok::Ident(s) if s == "not") {
            // lookahead: NOT LIKE / NOT BETWEEN / NOT IN
            let next = self.toks.get(self.i + 1).map(|t| t.0.clone());
            match next {
                Some(Tok::Ident(ref k)) if k == "like" || k == "between" || k == "in" => {
                    self.bump();
                    true
                }
                _ => false,
            }
        } else {
            false
        };
        if self.eat_kw("like") {
            let pat = match self.bump() {
                Tok::Str(s) => s,
                _ => return Err(self.err("expected string pattern after LIKE")),
            };
            return Ok(AstExpr::Like(Box::new(lhs), pat, negated));
        }
        if self.eat_kw("between") {
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            return Ok(AstExpr::Between(
                Box::new(lhs),
                Box::new(lo),
                Box::new(hi),
                negated,
            ));
        }
        if self.eat_kw("in") {
            self.eat_sym("(")?;
            if matches!(self.peek(), Tok::Ident(k) if k == "select") {
                let query = Box::new(self.subquery()?);
                return Ok(AstExpr::Sub(Some(Box::new(lhs)), query, negated));
            }
            let mut list = Vec::new();
            loop {
                match self.add_expr()? {
                    AstExpr::Lit(v) => list.push(v),
                    _ => return Err(self.err("IN list must contain literals")),
                }
                if !self.try_sym(",") {
                    break;
                }
            }
            self.eat_sym(")")?;
            return Ok(AstExpr::InList(Box::new(lhs), list, negated));
        }
        if self.eat_kw("is") {
            let neg = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(AstExpr::IsNull(Box::new(lhs), neg));
        }
        let op = match self.peek() {
            Tok::Sym("=") => Some(CmpOp::Eq),
            Tok::Sym("<>") => Some(CmpOp::Ne),
            Tok::Sym("<") => Some(CmpOp::Lt),
            Tok::Sym("<=") => Some(CmpOp::Le),
            Tok::Sym(">") => Some(CmpOp::Gt),
            Tok::Sym(">=") => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_expr()?;
            return Ok(AstExpr::Cmp(Box::new(lhs), op, Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("+") => ArithOp::Add,
                Tok::Sym("-") => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = AstExpr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("*") => ArithOp::Mul,
                Tok::Sym("/") => ArithOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = AstExpr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<AstExpr> {
        if self.try_sym("-") {
            let e = self.unary_expr()?;
            return Ok(match e {
                AstExpr::Lit(Value::Int(i)) => AstExpr::Lit(Value::Int(-i)),
                AstExpr::Lit(Value::Num(f)) => AstExpr::Lit(Value::Num(-f)),
                other => AstExpr::Arith(
                    Box::new(AstExpr::Lit(Value::Int(0))),
                    ArithOp::Sub,
                    Box::new(other),
                ),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.bump() {
            Tok::Int(i) => Ok(AstExpr::Lit(Value::Int(i))),
            Tok::Num(f) => Ok(AstExpr::Lit(Value::Num(f))),
            Tok::Str(s) => Ok(AstExpr::Lit(Value::str(&s))),
            Tok::Sym("(") => {
                let e = self.expr()?;
                self.eat_sym(")")?;
                Ok(e)
            }
            Tok::Sym("*") => Ok(AstExpr::CountStar), // only valid inside count()
            Tok::Ident(id) => self.ident_expr(id),
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }

    fn ident_expr(&mut self, id: String) -> Result<AstExpr> {
        match id.as_str() {
            "date" => {
                // date 'YYYY-MM-DD'
                match self.bump() {
                    Tok::Str(s) => Date::parse(&s)
                        .map(|d| AstExpr::Lit(Value::Date(d)))
                        .ok_or_else(|| self.err("invalid date literal")),
                    _ => Err(self.err("expected string after DATE")),
                }
            }
            "interval" => {
                let n = match self.bump() {
                    Tok::Str(s) => s
                        .trim()
                        .parse::<i64>()
                        .map_err(|_| self.err("invalid interval quantity"))?,
                    Tok::Int(i) => i,
                    _ => return Err(self.err("expected quantity after INTERVAL")),
                };
                let unit = match self.ident()?.as_str() {
                    "day" | "days" => IntervalUnit::Day,
                    "month" | "months" => IntervalUnit::Month,
                    "year" | "years" => IntervalUnit::Year,
                    _ => return Err(self.err("unknown interval unit")),
                };
                Ok(AstExpr::Interval(n, unit))
            }
            "exists" => {
                self.eat_sym("(")?;
                Ok(AstExpr::Sub(None, Box::new(self.subquery()?), false))
            }
            "null" => Ok(AstExpr::Lit(Value::Null)),
            "true" => Ok(AstExpr::Lit(Value::Bool(true))),
            "false" => Ok(AstExpr::Lit(Value::Bool(false))),
            "case" => {
                let mut branches = Vec::new();
                while self.eat_kw("when") {
                    let c = self.expr()?;
                    self.expect_kw("then")?;
                    let v = self.expr()?;
                    branches.push((c, v));
                }
                let else_ = if self.eat_kw("else") {
                    Some(Box::new(self.expr()?))
                } else {
                    None
                };
                self.expect_kw("end")?;
                Ok(AstExpr::Case(branches, else_))
            }
            "extract" => {
                self.eat_sym("(")?;
                self.expect_kw("year")?;
                self.expect_kw("from")?;
                let e = self.expr()?;
                self.eat_sym(")")?;
                Ok(AstExpr::ExtractYear(Box::new(e)))
            }
            "substring" => {
                self.eat_sym("(")?;
                let e = self.expr()?;
                self.expect_kw("from")?;
                let start = match self.bump() {
                    Tok::Int(i) if i >= 1 => i as usize,
                    _ => return Err(self.err("substring start must be a positive integer")),
                };
                self.expect_kw("for")?;
                let len = match self.bump() {
                    Tok::Int(i) if i >= 0 => i as usize,
                    _ => return Err(self.err("substring length must be a non-negative integer")),
                };
                self.eat_sym(")")?;
                Ok(AstExpr::Substring(Box::new(e), start, len))
            }
            "count" | "sum" | "avg" | "min" | "max" => {
                self.eat_sym("(")?;
                if id != "count" && matches!(self.peek(), Tok::Ident(k) if k == "distinct") {
                    return Err(
                        self.err(format!("{id}(DISTINCT …): only count has a distinct form"))
                    );
                }
                let distinct = self.eat_kw("distinct");
                let inner = self.expr()?;
                self.eat_sym(")")?;
                let func = match (id.as_str(), distinct) {
                    ("count", true) => AggFunc::CountDistinct,
                    ("count", false) => AggFunc::Count,
                    ("sum", _) => AggFunc::Sum,
                    ("avg", _) => AggFunc::Avg,
                    ("min", _) => AggFunc::Min,
                    ("max", _) => AggFunc::Max,
                    _ => unreachable!(),
                };
                if matches!(inner, AstExpr::CountStar) {
                    if func == AggFunc::Count {
                        Ok(AstExpr::CountStar)
                    } else {
                        Err(self.err("'*' only valid in count(*)"))
                    }
                } else {
                    Ok(AstExpr::Agg(func, Box::new(inner)))
                }
            }
            _ => {
                // qualified name table.column → column
                if self.try_sym(".") {
                    let col = self.ident()?;
                    Ok(AstExpr::Col(col))
                } else {
                    Ok(AstExpr::Col(id))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query() {
        let q = "select T, avg(P) from Hosp join Ins on S=C \
                 where D='stroke' group by T having avg(P)>100";
        let stmt = parse_select(q).unwrap();
        assert_eq!(stmt.items.len(), 2);
        assert_eq!(stmt.from.len(), 2);
        assert!(stmt.from[1].join_on.is_some());
        assert_eq!(stmt.group_by, vec!["t"]);
        assert!(stmt.having.is_some());
        assert!(matches!(stmt.items[1].expr, AstExpr::Agg(AggFunc::Avg, _)));
    }

    #[test]
    fn parses_tpch_q6_style() {
        let q = "select sum(l_extendedprice * l_discount) as revenue \
                 from lineitem \
                 where l_shipdate >= date '1994-01-01' \
                   and l_shipdate < date '1994-01-01' + interval '1' year \
                   and l_discount between 0.05 and 0.07 \
                   and l_quantity < 24";
        let stmt = parse_select(q).unwrap();
        assert_eq!(stmt.items[0].alias.as_deref(), Some("revenue"));
        let w = stmt.where_.unwrap();
        match w {
            AstExpr::And(parts) => assert_eq!(parts.len(), 4),
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn parses_count_star_and_order_limit() {
        let q = "select D, count(*) from Hosp group by D order by count(*) desc, D limit 10";
        let stmt = parse_select(q).unwrap();
        assert!(matches!(stmt.items[1].expr, AstExpr::CountStar));
        assert_eq!(stmt.order_by.len(), 2);
        assert!(!stmt.order_by[0].1);
        assert!(stmt.order_by[1].1);
        assert_eq!(stmt.limit, Some(10));
    }

    #[test]
    fn parses_in_like_case() {
        let q = "select C from Ins where C in ('a','b') and C not like '%x%' \
                 and P = case when C = 'a' then 1 else 2 end";
        let stmt = parse_select(q).unwrap();
        let w = stmt.where_.unwrap();
        let AstExpr::And(parts) = w else {
            panic!("expected AND")
        };
        assert!(matches!(parts[0], AstExpr::InList(_, _, false)));
        assert!(matches!(parts[1], AstExpr::Like(_, _, true)));
        assert!(matches!(parts[2], AstExpr::Cmp(_, CmpOp::Eq, _)));
    }

    #[test]
    fn parses_extract_and_substring() {
        let q =
            "select extract(year from B) from Hosp where substring(S from 1 for 2) in ('13','31')";
        let stmt = parse_select(q).unwrap();
        assert!(matches!(stmt.items[0].expr, AstExpr::ExtractYear(_)));
    }

    #[test]
    fn string_escapes() {
        let q = "select C from Ins where C = 'O''Brien'";
        let stmt = parse_select(q).unwrap();
        match stmt.where_.unwrap() {
            AstExpr::Cmp(_, _, rhs) => {
                assert_eq!(*rhs, AstExpr::Lit(Value::str("O'Brien")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_positions() {
        let err = parse_select("select from x").unwrap_err();
        assert!(matches!(err, AlgebraError::Parse { .. }));
        assert!(parse_select("select a b c from x").is_err());
        assert!(parse_select("select a from x where 'unterminated").is_err());
        assert!(parse_select("select a from x limit -1").is_err());
    }

    #[test]
    fn qualified_names_drop_table_prefix() {
        let stmt = parse_select("select hosp.D from Hosp").unwrap();
        assert_eq!(stmt.items[0].expr, AstExpr::Col("d".into()));
    }

    #[test]
    fn not_between_and_not_in() {
        let q = "select P from Ins where P not between 1 and 2 and P not in (3, 4)";
        let stmt = parse_select(q).unwrap();
        let AstExpr::And(parts) = stmt.where_.unwrap() else {
            panic!()
        };
        assert!(matches!(parts[0], AstExpr::Between(_, _, _, true)));
        assert!(matches!(parts[1], AstExpr::InList(_, _, true)));
    }

    /// Only `count` has a distinct aggregate: `sum(DISTINCT x)` and
    /// `avg(DISTINCT x)` are refused at the keyword, never read as
    /// `sum(x)` and `avg(x)`.
    #[test]
    fn distinct_is_refused_outside_count() {
        for func in ["sum", "avg", "min", "max"] {
            let q = format!("select T, {func}(distinct P) from Ins group by T");
            let at = q.find("distinct").unwrap();
            let err = parse_select(&q).unwrap_err();
            assert!(
                matches!(err, AlgebraError::Parse { pos, .. } if pos == at),
                "{func}: {err:?}"
            );
        }
        let stmt = parse_select("select T, count(distinct P) from Ins group by T").unwrap();
        assert!(matches!(
            stmt.items[1].expr,
            AstExpr::Agg(AggFunc::CountDistinct, _)
        ));
    }
}
