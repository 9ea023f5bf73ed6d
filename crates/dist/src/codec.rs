//! Hand-rolled binary wire codec for the TCP transport and the
//! `mpq-server` protocol.
//!
//! The build environment has no serde, so every frame that crosses a
//! socket is encoded here explicitly: big-endian integers, `u32`
//! length-prefixed byte strings, tag bytes for enums. Two invariants
//! matter:
//!
//! * **cells are length-prefixed** — [`Value::canonical_bytes`] is
//!   self-describing but *not* self-delimiting (`Str`/`Enc` consume
//!   the rest of the buffer), so every cell travels behind its own
//!   length;
//! * **plans round-trip with identical `NodeId`s** — [`QueryPlan`]
//!   construction is append-only (children precede parents), so
//!   re-`add`ing nodes in index order reproduces the arena exactly,
//!   which the assignment and key maps rely on.
//!
//! Decoding is total: every `decode_*` returns `Option`, and a
//! malformed frame surfaces as a typed
//! [`TransportError::Frame`](crate::transport::TransportError) at the
//! transport layer, never a panic in a party loop.

use crate::party::{QueryJob, Transfer};
use crate::runtime::Msg;
use mpq_algebra::expr::{AggExpr, AggFunc, ArithOp, CmpOp, DateField, Expr};
use mpq_algebra::plan::{JoinKind, Operator, QueryPlan};
use mpq_algebra::value::EncScheme;
use mpq_algebra::{AttrId, NodeId, RelId, SubjectId, Value};
use mpq_crypto::bignum::BigUint;
use mpq_crypto::rsa::{RsaPublic, SignedEnvelope};
use mpq_exec::{Batch, ColumnVec, SchemePlan, Table, TableSchema};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Primitive writers / reader
// ---------------------------------------------------------------------------

fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}

fn put_bool(b: &mut Vec<u8>, v: bool) {
    b.push(u8::from(v));
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_be_bytes());
}

fn put_bytes(b: &mut Vec<u8>, v: &[u8]) {
    put_u32(b, v.len() as u32);
    b.extend_from_slice(v);
}

fn put_str(b: &mut Vec<u8>, v: &str) {
    put_bytes(b, v.as_bytes());
}

/// Cursor over a received frame; every accessor is bounds-checked.
struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8]) -> Reader<'a> {
        Reader { b, at: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.b.get(self.at)?;
        self.at += 1;
        Some(v)
    }

    fn bool(&mut self) -> Option<bool> {
        Some(self.u8()? != 0)
    }

    fn u32(&mut self) -> Option<u32> {
        let v = u32::from_be_bytes(self.b.get(self.at..self.at + 4)?.try_into().ok()?);
        self.at += 4;
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let v = u64::from_be_bytes(self.b.get(self.at..self.at + 8)?.try_into().ok()?);
        self.at += 8;
        Some(v)
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let v = self.b.get(self.at..self.at + len)?;
        self.at += len;
        Some(v)
    }

    fn str(&mut self) -> Option<String> {
        Some(std::str::from_utf8(self.bytes()?).ok()?.to_string())
    }

    /// The whole input must be consumed — trailing garbage is a
    /// malformed frame, not padding.
    fn finish(self) -> Option<()> {
        (self.at == self.b.len()).then_some(())
    }
}

// ---------------------------------------------------------------------------
// Values and tables
// ---------------------------------------------------------------------------

fn put_value(b: &mut Vec<u8>, v: &Value) {
    put_bytes(b, &v.canonical_bytes());
}

fn get_value(r: &mut Reader) -> Option<Value> {
    Value::from_canonical_bytes(r.bytes()?)
}

/// Tables travel column-major (all of column 0, then column 1, …),
/// matching the columnar in-memory layout so neither end transposes.
/// Every cell is still individually length-prefixed, so the frame size
/// is byte-identical to the old row-major encoding.
fn put_table(b: &mut Vec<u8>, t: &Table) {
    put_u32(b, t.attrs().len() as u32);
    for a in t.attrs() {
        put_u32(b, a.0);
    }
    put_u32(b, t.len() as u32);
    for col in t.columns() {
        for i in 0..col.len() {
            put_value(b, &col.get(i));
        }
    }
}

fn get_table(r: &mut Reader) -> Option<Table> {
    let ncols = r.u32()? as usize;
    let mut attrs = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        attrs.push(AttrId(r.u32()?));
    }
    let nrows = r.u32()? as usize;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let mut col = ColumnVec::with_capacity(nrows);
        for _ in 0..nrows {
            col.push(get_value(r)?);
        }
        cols.push(col);
    }
    Some(Table::from_batch(Batch::new(TableSchema::new(attrs), cols)))
}

// ---------------------------------------------------------------------------
// Expressions and plans
// ---------------------------------------------------------------------------

fn put_expr(b: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Col(a) => {
            put_u8(b, 0);
            put_u32(b, a.0);
        }
        Expr::AggRef(i) => {
            put_u8(b, 1);
            put_u64(b, *i as u64);
        }
        Expr::Lit(v) => {
            put_u8(b, 2);
            put_value(b, v);
        }
        Expr::Cmp(l, op, r) => {
            put_u8(b, 3);
            put_expr(b, l);
            put_u8(b, cmp_tag(*op));
            put_expr(b, r);
        }
        Expr::And(es) => {
            put_u8(b, 4);
            put_u32(b, es.len() as u32);
            for e in es {
                put_expr(b, e);
            }
        }
        Expr::Or(es) => {
            put_u8(b, 5);
            put_u32(b, es.len() as u32);
            for e in es {
                put_expr(b, e);
            }
        }
        Expr::Not(e) => {
            put_u8(b, 6);
            put_expr(b, e);
        }
        Expr::Arith(l, op, r) => {
            put_u8(b, 7);
            put_expr(b, l);
            put_u8(
                b,
                match op {
                    ArithOp::Add => 0,
                    ArithOp::Sub => 1,
                    ArithOp::Mul => 2,
                    ArithOp::Div => 3,
                },
            );
            put_expr(b, r);
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            put_u8(b, 8);
            put_expr(b, expr);
            put_str(b, pattern);
            put_bool(b, *negated);
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            put_u8(b, 9);
            put_expr(b, expr);
            put_expr(b, lo);
            put_expr(b, hi);
            put_bool(b, *negated);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            put_u8(b, 10);
            put_expr(b, expr);
            put_u32(b, list.len() as u32);
            for v in list {
                put_value(b, v);
            }
            put_bool(b, *negated);
        }
        Expr::Case { branches, else_ } => {
            put_u8(b, 11);
            put_u32(b, branches.len() as u32);
            for (w, t) in branches {
                put_expr(b, w);
                put_expr(b, t);
            }
            match else_ {
                Some(e) => {
                    put_bool(b, true);
                    put_expr(b, e);
                }
                None => put_bool(b, false),
            }
        }
        Expr::IsNull { expr, negated } => {
            put_u8(b, 12);
            put_expr(b, expr);
            put_bool(b, *negated);
        }
        Expr::Extract { field, expr } => {
            put_u8(b, 13);
            put_u8(
                b,
                match field {
                    DateField::Year => 0,
                },
            );
            put_expr(b, expr);
        }
        Expr::Substring { expr, start, len } => {
            put_u8(b, 14);
            put_expr(b, expr);
            put_u64(b, *start as u64);
            put_u64(b, *len as u64);
        }
    }
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn get_cmp(tag: u8) -> Option<CmpOp> {
    Some(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return None,
    })
}

fn get_expr(r: &mut Reader) -> Option<Expr> {
    Some(match r.u8()? {
        0 => Expr::Col(AttrId(r.u32()?)),
        1 => Expr::AggRef(r.u64()? as usize),
        2 => Expr::Lit(get_value(r)?),
        3 => {
            let l = get_expr(r)?;
            let op = get_cmp(r.u8()?)?;
            let rhs = get_expr(r)?;
            Expr::Cmp(Box::new(l), op, Box::new(rhs))
        }
        4 => {
            let n = r.u32()? as usize;
            let mut es = Vec::with_capacity(n);
            for _ in 0..n {
                es.push(get_expr(r)?);
            }
            Expr::And(es)
        }
        5 => {
            let n = r.u32()? as usize;
            let mut es = Vec::with_capacity(n);
            for _ in 0..n {
                es.push(get_expr(r)?);
            }
            Expr::Or(es)
        }
        6 => Expr::Not(Box::new(get_expr(r)?)),
        7 => {
            let l = get_expr(r)?;
            let op = match r.u8()? {
                0 => ArithOp::Add,
                1 => ArithOp::Sub,
                2 => ArithOp::Mul,
                3 => ArithOp::Div,
                _ => return None,
            };
            let rhs = get_expr(r)?;
            Expr::Arith(Box::new(l), op, Box::new(rhs))
        }
        8 => Expr::Like {
            expr: Box::new(get_expr(r)?),
            pattern: r.str()?,
            negated: r.bool()?,
        },
        9 => Expr::Between {
            expr: Box::new(get_expr(r)?),
            lo: Box::new(get_expr(r)?),
            hi: Box::new(get_expr(r)?),
            negated: r.bool()?,
        },
        10 => {
            let expr = Box::new(get_expr(r)?);
            let n = r.u32()? as usize;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push(get_value(r)?);
            }
            Expr::InList {
                expr,
                list,
                negated: r.bool()?,
            }
        }
        11 => {
            let n = r.u32()? as usize;
            let mut branches = Vec::with_capacity(n);
            for _ in 0..n {
                let w = get_expr(r)?;
                let t = get_expr(r)?;
                branches.push((w, t));
            }
            let else_ = if r.bool()? {
                Some(Box::new(get_expr(r)?))
            } else {
                None
            };
            Expr::Case { branches, else_ }
        }
        12 => Expr::IsNull {
            expr: Box::new(get_expr(r)?),
            negated: r.bool()?,
        },
        13 => {
            let field = match r.u8()? {
                0 => DateField::Year,
                _ => return None,
            };
            Expr::Extract {
                field,
                expr: Box::new(get_expr(r)?),
            }
        }
        14 => Expr::Substring {
            expr: Box::new(get_expr(r)?),
            start: r.u64()? as usize,
            len: r.u64()? as usize,
        },
        _ => return None,
    })
}

fn put_attrs(b: &mut Vec<u8>, attrs: &[AttrId]) {
    put_u32(b, attrs.len() as u32);
    for a in attrs {
        put_u32(b, a.0);
    }
}

fn get_attrs(r: &mut Reader) -> Option<Vec<AttrId>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(AttrId(r.u32()?));
    }
    Some(out)
}

fn put_op(b: &mut Vec<u8>, op: &Operator) {
    match op {
        Operator::Base { rel, attrs } => {
            put_u8(b, 0);
            put_u32(b, rel.0);
            put_attrs(b, attrs);
        }
        Operator::Project { attrs } => {
            put_u8(b, 1);
            put_attrs(b, attrs);
        }
        Operator::Select { pred } => {
            put_u8(b, 2);
            put_expr(b, pred);
        }
        Operator::Product => put_u8(b, 3),
        Operator::Join { kind, on, residual } => {
            put_u8(b, 4);
            put_u8(
                b,
                match kind {
                    JoinKind::Inner => 0,
                    JoinKind::LeftOuter => 1,
                    JoinKind::Semi => 2,
                    JoinKind::Anti => 3,
                },
            );
            put_u32(b, on.len() as u32);
            for (l, op, r) in on {
                put_u32(b, l.0);
                put_u8(b, cmp_tag(*op));
                put_u32(b, r.0);
            }
            match residual {
                Some(e) => {
                    put_bool(b, true);
                    put_expr(b, e);
                }
                None => put_bool(b, false),
            }
        }
        Operator::GroupBy { keys, aggs } => {
            put_u8(b, 5);
            put_attrs(b, keys);
            put_u32(b, aggs.len() as u32);
            for a in aggs {
                put_u8(
                    b,
                    match a.func {
                        AggFunc::Count => 0,
                        AggFunc::CountDistinct => 1,
                        AggFunc::Sum => 2,
                        AggFunc::Avg => 3,
                        AggFunc::Min => 4,
                        AggFunc::Max => 5,
                    },
                );
                put_expr(b, &a.input);
                put_u32(b, a.output.0);
            }
        }
        Operator::Having { pred } => {
            put_u8(b, 6);
            put_expr(b, pred);
        }
        Operator::Udf {
            name,
            inputs,
            output,
            body,
        } => {
            put_u8(b, 7);
            put_str(b, name);
            put_attrs(b, inputs);
            put_u32(b, output.0);
            match body {
                Some(e) => {
                    put_bool(b, true);
                    put_expr(b, e);
                }
                None => put_bool(b, false),
            }
        }
        Operator::Encrypt { attrs } => {
            put_u8(b, 8);
            put_attrs(b, attrs);
        }
        Operator::Decrypt { attrs } => {
            put_u8(b, 9);
            put_attrs(b, attrs);
        }
        Operator::Sort { keys } => {
            put_u8(b, 10);
            put_u32(b, keys.len() as u32);
            for (e, asc) in keys {
                put_expr(b, e);
                put_bool(b, *asc);
            }
        }
        Operator::Limit { n } => {
            put_u8(b, 11);
            put_u64(b, *n);
        }
    }
}

fn get_op(r: &mut Reader) -> Option<Operator> {
    Some(match r.u8()? {
        0 => Operator::Base {
            rel: RelId(r.u32()?),
            attrs: get_attrs(r)?,
        },
        1 => Operator::Project {
            attrs: get_attrs(r)?,
        },
        2 => Operator::Select { pred: get_expr(r)? },
        3 => Operator::Product,
        4 => {
            let kind = match r.u8()? {
                0 => JoinKind::Inner,
                1 => JoinKind::LeftOuter,
                2 => JoinKind::Semi,
                3 => JoinKind::Anti,
                _ => return None,
            };
            let n = r.u32()? as usize;
            let mut on = Vec::with_capacity(n);
            for _ in 0..n {
                let l = AttrId(r.u32()?);
                let op = get_cmp(r.u8()?)?;
                let rhs = AttrId(r.u32()?);
                on.push((l, op, rhs));
            }
            let residual = if r.bool()? { Some(get_expr(r)?) } else { None };
            Operator::Join { kind, on, residual }
        }
        5 => {
            let keys = get_attrs(r)?;
            let n = r.u32()? as usize;
            let mut aggs = Vec::with_capacity(n);
            for _ in 0..n {
                let func = match r.u8()? {
                    0 => AggFunc::Count,
                    1 => AggFunc::CountDistinct,
                    2 => AggFunc::Sum,
                    3 => AggFunc::Avg,
                    4 => AggFunc::Min,
                    5 => AggFunc::Max,
                    _ => return None,
                };
                let input = get_expr(r)?;
                let output = AttrId(r.u32()?);
                aggs.push(AggExpr {
                    func,
                    input,
                    output,
                });
            }
            Operator::GroupBy { keys, aggs }
        }
        6 => Operator::Having { pred: get_expr(r)? },
        7 => {
            let name = r.str()?;
            let inputs = get_attrs(r)?;
            let output = AttrId(r.u32()?);
            let body = if r.bool()? { Some(get_expr(r)?) } else { None };
            Operator::Udf {
                name,
                inputs,
                output,
                body,
            }
        }
        8 => Operator::Encrypt {
            attrs: get_attrs(r)?,
        },
        9 => Operator::Decrypt {
            attrs: get_attrs(r)?,
        },
        10 => {
            let n = r.u32()? as usize;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                let e = get_expr(r)?;
                let asc = r.bool()?;
                keys.push((e, asc));
            }
            Operator::Sort { keys }
        }
        11 => Operator::Limit { n: r.u64()? },
        _ => return None,
    })
}

fn put_plan(b: &mut Vec<u8>, plan: &QueryPlan) {
    let order: Vec<NodeId> = (0..plan.len()).map(NodeId::from_index).collect();
    put_u32(b, order.len() as u32);
    for id in order {
        let node = plan.node(id);
        put_u32(b, node.children.len() as u32);
        for c in &node.children {
            put_u32(b, c.0);
        }
        put_op(b, &node.op);
    }
    put_u32(b, plan.root().0);
}

fn get_plan(r: &mut Reader) -> Option<QueryPlan> {
    let n = r.u32()? as usize;
    if n == 0 {
        return None;
    }
    let mut plan = QueryPlan::new();
    // Child edges can point *forward*: `splice_above` appends the
    // spliced node at the end of the arena and re-targets an earlier
    // parent's edge at it, so extended plans are not in child-first
    // order. Any in-bounds index is accepted here; tree-shape is
    // validated below.
    let mut child_uses = vec![0u32; n];
    for expect in 0..n {
        let nc = r.u32()? as usize;
        let mut children = Vec::with_capacity(nc.min(64));
        for _ in 0..nc {
            let c = NodeId(r.u32()?);
            if c.index() >= n {
                return None;
            }
            child_uses[c.index()] += 1;
            children.push(c);
        }
        let op = get_op(r)?;
        if op.arity() != children.len() {
            return None;
        }
        let id = plan.add(op, children);
        if id.index() != expect {
            return None;
        }
    }
    let root = NodeId(r.u32()?);
    if root.index() >= n {
        return None;
    }
    plan.set_root(root);
    // Plans are trees: every node is some parent's child at most once
    // (sharing would double-execute under postorder)…
    if child_uses.iter().any(|&uses| uses > 1) {
        return None;
    }
    // …and the reachable region is acyclic — a cyclic frame must not
    // hang the receiver's postorder walk. Tri-state DFS from the root.
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = in progress, 2 = done
    let mut stack = vec![(root, 0usize)];
    while let Some((id, cursor)) = stack.pop() {
        if cursor == 0 {
            match state[id.index()] {
                1 => return None,
                2 => continue,
                _ => state[id.index()] = 1,
            }
        }
        let kids = &plan.node(id).children;
        if cursor < kids.len() {
            stack.push((id, cursor + 1));
            let c = kids[cursor];
            match state[c.index()] {
                1 => return None,
                2 => {}
                _ => stack.push((c, 0)),
            }
        } else {
            state[id.index()] = 2;
        }
    }
    Some(plan)
}

// ---------------------------------------------------------------------------
// Envelopes and keys
// ---------------------------------------------------------------------------

fn put_envelope(b: &mut Vec<u8>, e: &SignedEnvelope) {
    put_bytes(b, &e.wrapped_key);
    put_bytes(b, &e.body);
    put_bytes(b, &e.signature);
}

fn get_envelope(r: &mut Reader) -> Option<SignedEnvelope> {
    Some(SignedEnvelope {
        wrapped_key: r.bytes()?.to_vec(),
        body: r.bytes()?.to_vec(),
        signature: r.bytes()?.to_vec(),
    })
}

fn put_rsa_public(b: &mut Vec<u8>, p: &RsaPublic) {
    put_bytes(b, &p.n.to_bytes_be());
    put_bytes(b, &p.e.to_bytes_be());
}

fn get_rsa_public(r: &mut Reader) -> Option<RsaPublic> {
    let n = BigUint::from_bytes_be(r.bytes()?);
    let e = BigUint::from_bytes_be(r.bytes()?);
    Some(RsaPublic::new(n, e))
}

// ---------------------------------------------------------------------------
// Remote jobs
// ---------------------------------------------------------------------------

/// The shipped fields of a [`QueryJob`]; the receiver re-derives the
/// rest (order, parents, fusion sites, participants) in
/// [`QueryJob::new`]. Servers never see each other's request envelopes
/// or any private RSA key.
fn put_job(b: &mut Vec<u8>, j: &QueryJob) {
    put_plan(b, &j.plan);
    let mut schemes: Vec<(AttrId, EncScheme)> = j.schemes.iter().collect();
    schemes.sort_by_key(|(a, _)| a.0);
    put_u32(b, schemes.len() as u32);
    for (a, s) in schemes {
        put_u32(b, a.0);
        put_u8(
            b,
            match s {
                EncScheme::Random => 0,
                EncScheme::Deterministic => 1,
                EncScheme::Ope => 2,
                EncScheme::Paillier => 3,
            },
        );
    }
    let mut koa: Vec<(AttrId, u32)> = j.key_of_attr.iter().map(|(a, k)| (*a, *k)).collect();
    koa.sort_by_key(|(a, _)| a.0);
    put_u32(b, koa.len() as u32);
    for (a, k) in koa {
        put_u32(b, a.0);
        put_u32(b, k);
    }
    let mut assignment: Vec<(NodeId, SubjectId)> =
        j.assignment.iter().map(|(n, s)| (*n, *s)).collect();
    assignment.sort_by_key(|(n, _)| n.0);
    put_u32(b, assignment.len() as u32);
    for (n, s) in assignment {
        put_u32(b, n.0);
        put_u32(b, s.0);
    }
    put_u32(b, j.user.0);
    put_u64(b, j.exec_seed);
    put_u64(b, j.timeout_ms);
    put_bool(b, j.fuse);
}

fn get_job(r: &mut Reader) -> Option<QueryJob> {
    let plan = get_plan(r)?;
    let n = r.u32()? as usize;
    let mut schemes = SchemePlan::default();
    for _ in 0..n {
        let a = AttrId(r.u32()?);
        let s = match r.u8()? {
            0 => EncScheme::Random,
            1 => EncScheme::Deterministic,
            2 => EncScheme::Ope,
            3 => EncScheme::Paillier,
            _ => return None,
        };
        schemes.set(a, s);
    }
    let n = r.u32()? as usize;
    let mut key_of_attr = HashMap::with_capacity(n);
    for _ in 0..n {
        let a = AttrId(r.u32()?);
        let k = r.u32()?;
        key_of_attr.insert(a, k);
    }
    let n = r.u32()? as usize;
    let mut assignment = HashMap::with_capacity(n);
    for _ in 0..n {
        let node = NodeId(r.u32()?);
        let s = SubjectId(r.u32()?);
        assignment.insert(node, s);
    }
    // A job whose assignment is not total over its plan is malformed.
    QueryJob::new(
        plan,
        schemes,
        key_of_attr,
        assignment,
        SubjectId(r.u32()?),
        r.u64()?,
        r.u64()?,
        r.bool()?,
    )
    .ok()
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Every message the TCP transport and the `mpq-server` protocol
/// exchange, one tag byte each. `Peer`/`Data` are the data plane
/// (party ↔ party); the rest is the coordinator's control plane.
//
// Variant sizes are deliberately lopsided: frames are built,
// serialized, and dropped — the only retained copies are the handful
// of recovery frames (pending `Execute`s, cached outcomes) — so
// boxing the big control-plane payloads would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub(crate) enum Frame {
    /// First frame on a data connection: who is talking.
    Peer {
        /// The connecting subject.
        from: SubjectId,
    },
    /// A data-plane message of query `epoch`.
    Data {
        /// Query epoch the message belongs to.
        epoch: u64,
        /// The payload.
        msg: Msg,
    },
    /// First frame on a control connection (coordinator → server).
    Hello {
        /// The querying user the coordinator speaks for.
        user: SubjectId,
        /// The user's RSA public key (request-envelope verification).
        public: RsaPublic,
    },
    /// Control handshake response (server → coordinator).
    HelloAck {
        /// The subject this server hosts.
        me: SubjectId,
        /// Its RSA public key (request envelopes are sealed to it).
        public: RsaPublic,
    },
    /// Def. 6.1 full-key provisioning: the sealed
    /// `[[ClusterKey]_priU]_pubS` envelope for this holder.
    Provision {
        /// Envelope whose payload is [`ClusterKey::to_bytes`].
        envelope: SignedEnvelope,
    },
    /// Def. 6.1 public-half provisioning: the Paillier public modulus
    /// for computing non-holders (public material, travels in clear).
    ProvisionPublic {
        /// Cluster-key id.
        id: u32,
        /// Paillier modulus `n`, big-endian.
        n: Vec<u8>,
    },
    /// Execute your share of query `epoch`.
    Execute {
        /// Query epoch.
        epoch: u64,
        /// The query job (shared with the coordinator's own party and
        /// its recovery copy of this frame).
        job: Arc<QueryJob>,
        /// This recipient's signed request envelope (absent only for
        /// the user's own party, which needs no self-request).
        envelope: Option<SignedEnvelope>,
    },
    /// A party finished its share cleanly (server → coordinator).
    Done {
        /// Query epoch.
        epoch: u64,
        /// Bytes received per (producer, me) edge.
        transfers: Vec<(SubjectId, SubjectId, u64)>,
    },
    /// A party failed its share (server → coordinator).
    Failed {
        /// Query epoch.
        epoch: u64,
        /// Display rendering of the party's `SimError`.
        message: String,
    },
    /// The coordinator is done with this server; exit cleanly.
    Shutdown,
}

/// Encode a frame body (the transport adds the `u32` length prefix).
pub(crate) fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut b = Vec::new();
    match f {
        Frame::Peer { from } => {
            put_u8(&mut b, 0);
            put_u32(&mut b, from.0);
        }
        Frame::Data { epoch, msg } => {
            put_u8(&mut b, 1);
            put_u64(&mut b, *epoch);
            match msg {
                Msg::Table(t) => {
                    put_u8(&mut b, 0);
                    put_u32(&mut b, t.node.0);
                    put_u32(&mut b, t.from.0);
                    put_u64(&mut b, t.seq);
                    put_table(&mut b, &t.table);
                }
                Msg::Abort => put_u8(&mut b, 1),
            }
        }
        Frame::Hello { user, public } => {
            put_u8(&mut b, 2);
            put_u32(&mut b, user.0);
            put_rsa_public(&mut b, public);
        }
        Frame::HelloAck { me, public } => {
            put_u8(&mut b, 3);
            put_u32(&mut b, me.0);
            put_rsa_public(&mut b, public);
        }
        Frame::Provision { envelope } => {
            put_u8(&mut b, 4);
            put_envelope(&mut b, envelope);
        }
        Frame::ProvisionPublic { id, n } => {
            put_u8(&mut b, 5);
            put_u32(&mut b, *id);
            put_bytes(&mut b, n);
        }
        Frame::Execute {
            epoch,
            job,
            envelope,
        } => {
            put_u8(&mut b, 6);
            put_u64(&mut b, *epoch);
            put_job(&mut b, job);
            match envelope {
                Some(e) => {
                    put_bool(&mut b, true);
                    put_envelope(&mut b, e);
                }
                None => put_bool(&mut b, false),
            }
        }
        Frame::Done { epoch, transfers } => {
            put_u8(&mut b, 7);
            put_u64(&mut b, *epoch);
            put_u32(&mut b, transfers.len() as u32);
            for (f, t, bytes) in transfers {
                put_u32(&mut b, f.0);
                put_u32(&mut b, t.0);
                put_u64(&mut b, *bytes);
            }
        }
        Frame::Failed { epoch, message } => {
            put_u8(&mut b, 8);
            put_u64(&mut b, *epoch);
            put_str(&mut b, message);
        }
        Frame::Shutdown => put_u8(&mut b, 9),
    }
    b
}

/// Decode a frame body (`None` on any malformation, including
/// trailing bytes).
pub(crate) fn decode_frame(bytes: &[u8]) -> Option<Frame> {
    let mut r = Reader::new(bytes);
    let frame = match r.u8()? {
        0 => Frame::Peer {
            from: SubjectId(r.u32()?),
        },
        1 => {
            let epoch = r.u64()?;
            let msg = match r.u8()? {
                0 => Msg::Table(Transfer {
                    node: NodeId(r.u32()?),
                    from: SubjectId(r.u32()?),
                    seq: r.u64()?,
                    table: get_table(&mut r)?,
                }),
                1 => Msg::Abort,
                _ => return None,
            };
            Frame::Data { epoch, msg }
        }
        2 => Frame::Hello {
            user: SubjectId(r.u32()?),
            public: get_rsa_public(&mut r)?,
        },
        3 => Frame::HelloAck {
            me: SubjectId(r.u32()?),
            public: get_rsa_public(&mut r)?,
        },
        4 => Frame::Provision {
            envelope: get_envelope(&mut r)?,
        },
        5 => Frame::ProvisionPublic {
            id: r.u32()?,
            n: r.bytes()?.to_vec(),
        },
        6 => {
            let epoch = r.u64()?;
            let job = Arc::new(get_job(&mut r)?);
            let envelope = if r.bool()? {
                Some(get_envelope(&mut r)?)
            } else {
                None
            };
            Frame::Execute {
                epoch,
                job,
                envelope,
            }
        }
        7 => {
            let epoch = r.u64()?;
            let n = r.u32()? as usize;
            let mut transfers = Vec::with_capacity(n);
            for _ in 0..n {
                let f = SubjectId(r.u32()?);
                let t = SubjectId(r.u32()?);
                let bytes = r.u64()?;
                transfers.push((f, t, bytes));
            }
            Frame::Done { epoch, transfers }
        }
        8 => Frame::Failed {
            epoch: r.u64()?,
            message: r.str()?,
        },
        9 => Frame::Shutdown,
        _ => return None,
    };
    r.finish()?;
    Some(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::Date;

    fn roundtrip(f: &Frame) -> Frame {
        decode_frame(&encode_frame(f)).expect("frame decodes")
    }

    #[test]
    fn values_and_tables_roundtrip() {
        let table = Table::from_rows(
            vec![AttrId(3), AttrId(7)],
            vec![
                vec![
                    Value::str("alice"),
                    Value::Date(Date::parse("1970-01-01").expect("valid date")),
                ],
                vec![Value::Null, Value::Num(1.5)],
            ],
        );
        let f = roundtrip(&Frame::Data {
            epoch: 42,
            msg: Msg::Table(Transfer {
                node: NodeId(5),
                from: SubjectId(2),
                seq: 77,
                table: table.clone(),
            }),
        });
        match f {
            Frame::Data {
                epoch: 42,
                msg:
                    Msg::Table(Transfer {
                        node,
                        from,
                        seq,
                        table: t,
                    }),
            } => {
                assert_eq!(node, NodeId(5));
                assert_eq!(from, SubjectId(2));
                assert_eq!(seq, 77);
                assert_eq!(t.attrs(), table.attrs());
                assert_eq!(t.to_rows(), table.to_rows());
                assert_eq!(t.byte_size(), table.byte_size());
            }
            _ => panic!("wrong frame"),
        }
    }

    #[test]
    fn plans_roundtrip_with_identical_node_ids() {
        use mpq_core::fixtures::RunningExample;
        let ex = RunningExample::new();
        for plan in [&ex.plan, &ex.fig7a_extended().plan] {
            let mut b = Vec::new();
            put_plan(&mut b, plan);
            let back = get_plan(&mut Reader::new(&b)).expect("plan decodes");
            assert_eq!(back.len(), plan.len());
            assert_eq!(back.root(), plan.root());
            for id in plan.postorder() {
                assert_eq!(back.node(id).op, plan.node(id).op);
                assert_eq!(back.node(id).children, plan.node(id).children);
            }
        }
    }

    #[test]
    fn expressions_roundtrip() {
        let e = Expr::And(vec![
            Expr::Cmp(
                Box::new(Expr::Col(AttrId(1))),
                CmpOp::Ge,
                Box::new(Expr::Lit(Value::Int(10))),
            ),
            Expr::Like {
                expr: Box::new(Expr::Col(AttrId(2))),
                pattern: "%x%".into(),
                negated: true,
            },
            Expr::Case {
                branches: vec![(
                    Expr::IsNull {
                        expr: Box::new(Expr::Col(AttrId(3))),
                        negated: false,
                    },
                    Expr::Lit(Value::Int(0)),
                )],
                else_: Some(Box::new(Expr::AggRef(1))),
            },
            Expr::Substring {
                expr: Box::new(Expr::Col(AttrId(4))),
                start: 1,
                len: 2,
            },
        ]);
        let mut b = Vec::new();
        put_expr(&mut b, &e);
        let back = get_expr(&mut Reader::new(&b)).expect("expr decodes");
        assert_eq!(back, e);
    }

    #[test]
    fn malformed_frames_are_rejected_not_panicked() {
        assert!(decode_frame(&[]).is_none());
        assert!(decode_frame(&[99]).is_none());
        // Truncated table frame.
        let mut good = encode_frame(&Frame::Data {
            epoch: 1,
            msg: Msg::Table(Transfer {
                node: NodeId(0),
                from: SubjectId(0),
                seq: 0,
                table: Table::new(vec![AttrId(0)]),
            }),
        });
        good.pop();
        assert!(decode_frame(&good).is_none());
        // Trailing garbage.
        let mut padded = encode_frame(&Frame::Shutdown);
        padded.push(0);
        assert!(decode_frame(&padded).is_none());
    }

    #[test]
    fn cluster_keys_roundtrip_through_bytes() {
        use mpq_crypto::keyring::ClusterKey;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let key = ClusterKey::generate(&mut rng, 9, 256);
        let back = ClusterKey::from_bytes(&key.to_bytes()).expect("key decodes");
        assert_eq!(back.id, key.id);
        assert_eq!(back.det_key(), key.det_key());
        assert_eq!(back.rnd_key(), key.rnd_key());
        assert_eq!(back.ope_key(), key.ope_key());
        assert_eq!(back.paillier_public(), key.paillier_public());
        // The private half survives: decrypt what the original encrypts.
        let m = mpq_crypto::bignum::BigUint::from_u64(123456);
        let c = key.paillier_public().encrypt(&mut rng, &m);
        assert_eq!(back.paillier().decrypt(&c), m);
        // So does the holder's encryption, rebuilt from the shipped
        // factors alone.
        let c = back.paillier().encrypt(&mut rng, &m);
        assert_eq!(key.paillier().decrypt(&c), m);
        // Layout: id ‖ det ‖ rnd ‖ ope ‖ len·p ‖ len·q at 128-bit
        // factors; a damaged factor fails the whole key.
        let bytes = key.to_bytes();
        assert_eq!(bytes.len(), 4 + 48 + 2 * (4 + 16));
        let mut even = bytes.clone();
        *even.last_mut().expect("non-empty") &= !1;
        assert!(ClusterKey::from_bytes(&even).is_none());
        assert!(ClusterKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }
}
