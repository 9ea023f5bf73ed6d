//! Hand-rolled binary wire codec for the TCP transport and the
//! `mpq-server` protocol.
//!
//! The build environment has no serde, so every frame that crosses a
//! socket is encoded here explicitly: big-endian integers, `u32`
//! length-prefixed byte strings, tag bytes for enums. Each type's
//! format is stated **once**, as its [`Encode`] impl — for enums one
//! `tag => Variant` table that yields both directions — so an encoder
//! and its decoder cannot drift apart. Three invariants matter:
//!
//! * **scalars are length-prefixed** — [`Value::canonical_bytes`] is
//!   self-describing but *not* self-delimiting (`Str`/`Enc` consume
//!   the rest of the buffer), so a literal or a general column's cell
//!   travels behind its own length; typed columns travel packed (see
//!   the [`ColumnVec`] impl);
//! * **plans round-trip with identical `NodeId`s** — [`QueryPlan`]
//!   construction is append-only, so re-`add`ing nodes in index order
//!   reproduces the arena exactly, which the assignment and key maps
//!   rely on;
//! * **a frame of `n` bytes costs `O(n)` to refuse** — every byte
//!   comes from a peer this party does not trust. Element counts pass
//!   through [`Reader::count`], which refuses one the bytes left in
//!   the frame could not hold, *before* anything is allocated for it;
//!   nesting is capped at [`MAX_DEPTH`]; key material is validated as
//!   it is decoded ([`RsaPublic::from_parts`]).
//!
//! Decoding is total: [`decode_frame`] returns `Option`, and a
//! malformed frame surfaces as a typed
//! [`TransportError::Frame`](crate::transport::TransportError) at the
//! transport layer, never a panic in a party loop.

use crate::party::{QueryJob, Transfer};
use crate::runtime::Msg;
use mpq_algebra::expr::{AggExpr, AggFunc, ArithOp, CmpOp, DateField, Expr};
use mpq_algebra::plan::{JoinKind, Operator, PlanNode, QueryPlan};
use mpq_algebra::value::{CellRef, EncColumn, EncScheme};
use mpq_algebra::{AttrId, NodeId, RelId, SubjectId, Value};
use mpq_crypto::bignum::BigUint;
use mpq_crypto::rsa::{RsaPublic, SignedEnvelope};
use mpq_exec::{Batches, ColumnVec, SchemePlan, Table, TableSchema};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The trait and the reader
// ---------------------------------------------------------------------------

/// A type with one wire format: `get(put(x))` is `x`, and `get` is
/// total over arbitrary bytes.
trait Encode: Sized {
    /// Fewest bytes an encoded value occupies; what [`Reader::count`]
    /// divides the rest of the frame by.
    const MIN_LEN: usize = 1;

    /// Append the encoding of `self` to `b`.
    fn put(&self, b: &mut Vec<u8>);

    /// Decode one value at the cursor (`None`: malformed).
    fn get(r: &mut Reader) -> Option<Self>;
}

/// Deepest nesting of values inside one frame. Expressions and plans
/// recurse, and a frame of nothing but `Not` tags must run out of
/// depth before the decoder runs out of stack. Legitimate frames stay
/// far below: a plan node's predicate starts at depth 8 and each
/// expression level adds two.
const MAX_DEPTH: usize = 256;

/// Cursor over a received frame; every accessor is bounds-checked.
struct Reader<'a> {
    b: &'a [u8],
    at: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8]) -> Reader<'a> {
        Reader { b, at: 0, depth: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let v = self.b.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(v)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// A `u32` element count — the one place a peer-supplied count is
    /// believed, and only as far as the frame can back it: `count`
    /// elements of at least `min_each` bytes must fit in the bytes
    /// left. Whatever is then allocated for `count` elements is
    /// proportional to bytes the peer really sent.
    fn count(&mut self, min_each: usize) -> Option<usize> {
        let n = usize::try_from(u32::get(self)?).ok()?;
        (n.checked_mul(min_each)? <= self.b.len() - self.at).then_some(n)
    }

    /// A length-prefixed byte string, borrowed from the frame.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Decode a nested `T`, one level deeper.
    fn get<T: Encode>(&mut self) -> Option<T> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let v = T::get(self);
        self.depth -= 1;
        v
    }

    /// The whole input must be consumed — trailing garbage is a
    /// malformed frame, not padding.
    fn finish(self) -> Option<()> {
        (self.at == self.b.len()).then_some(())
    }
}

fn write_len(b: &mut Vec<u8>, n: usize) {
    u32::try_from(n)
        .expect("a frame holds fewer than 2^32 of anything")
        .put(b);
}

fn write_bytes(b: &mut Vec<u8>, v: &[u8]) {
    write_len(b, v.len());
    b.extend_from_slice(v);
}

/// A count, then the elements: the encoding of every sequence.
fn write_seq<'a, T: Encode + 'a>(b: &mut Vec<u8>, items: impl ExactSizeIterator<Item = &'a T>) {
    write_len(b, items.len());
    for item in items {
        item.put(b);
    }
}

// ---------------------------------------------------------------------------
// Generic impls: integers, strings, containers, tuples
// ---------------------------------------------------------------------------

macro_rules! wire_int {
    ($($ty:ident),+) => {$(
        impl Encode for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            fn put(&self, b: &mut Vec<u8>) {
                b.extend_from_slice(&self.to_be_bytes());
            }
            fn get(r: &mut Reader) -> Option<Self> {
                Some($ty::from_be_bytes(r.take(Self::MIN_LEN)?.try_into().ok()?))
            }
        }
    )+};
}
wire_int!(u32, u64);

/// `usize` fields (aggregate references, substring bounds) travel as
/// `u64`.
impl Encode for usize {
    const MIN_LEN: usize = u64::MIN_LEN;
    fn put(&self, b: &mut Vec<u8>) {
        (*self as u64).put(b);
    }
    fn get(r: &mut Reader) -> Option<Self> {
        usize::try_from(u64::get(r)?).ok()
    }
}

impl Encode for bool {
    fn put(&self, b: &mut Vec<u8>) {
        b.push(u8::from(*self));
    }
    fn get(r: &mut Reader) -> Option<Self> {
        Some(r.u8()? != 0)
    }
}

/// Byte strings move as one slice, not as a sequence of elements —
/// which is why `u8` itself is not `Encode`.
impl Encode for Vec<u8> {
    fn put(&self, b: &mut Vec<u8>) {
        write_bytes(b, self);
    }
    fn get(r: &mut Reader) -> Option<Self> {
        Some(r.bytes()?.to_vec())
    }
}

impl Encode for String {
    fn put(&self, b: &mut Vec<u8>) {
        write_bytes(b, self.as_bytes());
    }
    fn get(r: &mut Reader) -> Option<Self> {
        Some(std::str::from_utf8(r.bytes()?).ok()?.to_string())
    }
}

impl<T: Encode> Encode for Option<T> {
    fn put(&self, b: &mut Vec<u8>) {
        self.is_some().put(b);
        if let Some(v) = self {
            v.put(b);
        }
    }
    fn get(r: &mut Reader) -> Option<Self> {
        Some(if bool::get(r)? { Some(r.get()?) } else { None })
    }
}

macro_rules! wire_ptr {
    ($($ptr:ident),+) => {$(
        impl<T: Encode> Encode for $ptr<T> {
            const MIN_LEN: usize = T::MIN_LEN;
            fn put(&self, b: &mut Vec<u8>) {
                (**self).put(b);
            }
            fn get(r: &mut Reader) -> Option<Self> {
                Some($ptr::new(r.get()?))
            }
        }
    )+};
}
wire_ptr!(Box, Arc);

/// The only caller of [`Reader::count`] besides byte strings and the
/// packed columns: every `Vec`, and through it every map, is sized
/// from a count the frame can back.
impl<T: Encode> Encode for Vec<T> {
    fn put(&self, b: &mut Vec<u8>) {
        write_seq(b, self.iter());
    }
    fn get(r: &mut Reader) -> Option<Self> {
        let n = r.count(T::MIN_LEN)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(r.get()?);
        }
        Some(out)
    }
}

/// Maps travel as their pairs in ascending key order, so equal maps
/// encode to equal bytes.
impl<K: Encode + Copy + Ord + Hash, V: Encode + Copy> Encode for HashMap<K, V> {
    fn put(&self, b: &mut Vec<u8>) {
        let mut pairs: Vec<(K, V)> = self.iter().map(|(k, v)| (*k, *v)).collect();
        pairs.sort_by_key(|(k, _)| *k);
        pairs.put(b);
    }
    fn get(r: &mut Reader) -> Option<Self> {
        Some(Vec::<(K, V)>::get(r)?.into_iter().collect())
    }
}

macro_rules! wire_tuple {
    ($($t:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($t: Encode),+> Encode for ($($t,)+) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)+;
            fn put(&self, b: &mut Vec<u8>) {
                let ($($t,)+) = self;
                $($t.put(b);)+
            }
            fn get(r: &mut Reader) -> Option<Self> {
                Some(($(r.get::<$t>()?,)+))
            }
        }
    };
}
wire_tuple!(A, B);
wire_tuple!(A, B, C);

// ---------------------------------------------------------------------------
// Tables of tags and fields
// ---------------------------------------------------------------------------

macro_rules! wire_id {
    ($($ty:ident),+) => {$(
        impl Encode for $ty {
            const MIN_LEN: usize = u32::MIN_LEN;
            fn put(&self, b: &mut Vec<u8>) {
                self.0.put(b);
            }
            fn get(r: &mut Reader) -> Option<Self> {
                Some($ty(u32::get(r)?))
            }
        }
    )+};
}
wire_id!(AttrId, RelId, NodeId, SubjectId);

/// A struct is its fields, in the order listed.
macro_rules! wire_struct {
    ($ty:ident: $($f:ident),+) => {
        impl Encode for $ty {
            fn put(&self, b: &mut Vec<u8>) {
                $(self.$f.put(b);)+
            }
            fn get(r: &mut Reader) -> Option<Self> {
                $(let $f = r.get()?;)+
                Some($ty { $($f),+ })
            }
        }
    };
}

/// An enum is a tag byte, then the variant's fields in the order
/// listed. One table gives both directions: `tag => Unit`,
/// `tag => Tuple(a, b)` or `tag => Struct { a, b }`.
macro_rules! wire_enum {
    ($ty:ident {
        $($tag:literal => $var:ident $(($($t:ident),+))? $({ $($f:ident),+ })?),+ $(,)?
    }) => {
        impl Encode for $ty {
            fn put(&self, b: &mut Vec<u8>) {
                match self {
                    $($ty::$var $(($($t),+))? $({ $($f),+ })? => {
                        b.push($tag);
                        $($($t.put(b);)+)?
                        $($($f.put(b);)+)?
                    })+
                }
            }
            fn get(r: &mut Reader) -> Option<Self> {
                Some(match r.u8()? {
                    $($tag => {
                        $($(let $t = r.get()?;)+)?
                        $($(let $f = r.get()?;)+)?
                        $ty::$var $(($($t),+))? $({ $($f),+ })?
                    })+
                    _ => return None,
                })
            }
        }
    };
}

wire_enum!(CmpOp { 0 => Eq, 1 => Ne, 2 => Lt, 3 => Le, 4 => Gt, 5 => Ge });
wire_enum!(ArithOp { 0 => Add, 1 => Sub, 2 => Mul, 3 => Div });
wire_enum!(DateField { 0 => Year });
wire_enum!(JoinKind { 0 => Inner, 1 => LeftOuter, 2 => Semi, 3 => Anti });
wire_enum!(AggFunc { 0 => Count, 1 => CountDistinct, 2 => Sum, 3 => Avg, 4 => Min, 5 => Max });

/// The scheme's table lives with the type: [`Value::canonical_bytes`]
/// writes the same byte.
impl Encode for EncScheme {
    fn put(&self, b: &mut Vec<u8>) {
        b.push(self.tag());
    }
    fn get(r: &mut Reader) -> Option<Self> {
        EncScheme::from_tag(r.u8()?)
    }
}

// ---------------------------------------------------------------------------
// Values and tables
// ---------------------------------------------------------------------------

/// One cell, wherever it lies: its canonical bytes behind their length.
fn put_cell(b: &mut Vec<u8>, cell: CellRef<'_>) {
    write_len(b, cell.canonical_len());
    cell.write_canonical(b);
}

impl Encode for Value {
    /// The length prefix and the type tag.
    const MIN_LEN: usize = 5;
    fn put(&self, b: &mut Vec<u8>) {
        put_cell(b, self.into());
    }
    fn get(r: &mut Reader) -> Option<Self> {
        Value::from_canonical_bytes(r.bytes()?)
    }
}

/// Fixed-width words packed back to back, after a count the caller
/// wrote.
fn write_words<const W: usize>(b: &mut Vec<u8>, words: impl ExactSizeIterator<Item = [u8; W]>) {
    b.reserve(words.len() * W);
    words.for_each(|w| b.extend_from_slice(&w));
}

fn read_packed<const W: usize, T>(r: &mut Reader, word: fn([u8; W]) -> T) -> Option<Vec<T>> {
    let n = r.count(W)?;
    let words = r.take(n * W)?.chunks_exact(W);
    Some(
        words
            .map(|w| word(w.try_into().expect("W bytes")))
            .collect(),
    )
}

/// A column travels as it is held: a representation tag, then the
/// cells in that representation's own packing — `Int`/`Num` as an
/// array of big-endian words, `Enc` as its header, its offsets and its
/// one buffer (the sender's cipher wrote those bytes once; nothing
/// touches them cell by cell again), `Val` as length-prefixed cells.
/// `Date`/`Str` columns travel as the `Val` cells they hold, byte for
/// byte — the format has no tag for them — and tag 0 decodes through
/// [`ColumnVec::from_values`], which types them again. The receiver
/// holds what the sender held, so a column re-encodes to the same
/// bytes.
impl Encode for ColumnVec {
    fn put(&self, b: &mut Vec<u8>) {
        put_column(b, &[self]);
    }
    fn get(r: &mut Reader) -> Option<Self> {
        Some(match r.u8()? {
            0 => ColumnVec::from_values(r.get()?),
            1 => ColumnVec::Int(read_packed(r, i64::from_be_bytes)?),
            2 => ColumnVec::Num(read_packed(r, f64::from_be_bytes)?),
            3 => {
                let (scheme, key_id) = (r.get()?, u32::get(r)?);
                let ends = read_packed(r, u32::from_be_bytes)?;
                // Offsets that do not cut the buffer into cells are
                // refused here; a cell that is no ciphertext is
                // `BadCiphertext` when someone decrypts it.
                ColumnVec::Enc(EncColumn::from_parts(scheme, key_id, ends, r.get()?)?)
            }
            _ => return None,
        })
    }
}

/// The part of `parts` — one column of consecutive batches — whose
/// representation the column they append to keeps
/// ([`ColumnVec::append`]), or `None` when that column holds general
/// cells: it stays `Int`, `Num` or `Enc` under one key while every
/// part with rows is so, and takes a part's representation while
/// nothing before it had rows.
fn appended_form<'a>(parts: &[&'a ColumnVec]) -> Option<&'a ColumnVec> {
    let (mut held, mut rows): (Option<&ColumnVec>, usize) = (None, 0);
    for &part in parts {
        let kept = match (held, part) {
            (Some(ColumnVec::Int(_)), ColumnVec::Int(_)) => true,
            (Some(ColumnVec::Num(_)), ColumnVec::Num(_)) => true,
            (Some(ColumnVec::Enc(a)), ColumnVec::Enc(b)) => {
                (a.scheme(), a.key_id()) == (b.scheme(), b.key_id())
            }
            _ => false,
        };
        if !kept {
            held = (rows == 0).then_some(part);
        }
        rows += part.len();
    }
    held
}

/// Write the column `parts` append to ([`ColumnVec::append`]) as that
/// column's [`Encode`] writes it, without building it: the cells of
/// each part go straight into the frame, `Enc` offsets shifted by the
/// bytes before them. The cell loops stay direct — this is the only
/// part of a frame measured in megabytes.
fn put_column(b: &mut Vec<u8>, parts: &[&ColumnVec]) {
    let held = appended_form(parts);
    let tag = match held {
        Some(ColumnVec::Int(_)) => 1,
        Some(ColumnVec::Num(_)) => 2,
        Some(ColumnVec::Enc(_)) => 3,
        _ => 0,
    };
    b.push(tag);
    if let Some(ColumnVec::Enc(c)) = held {
        c.scheme().put(b);
        c.key_id().put(b);
    }
    write_len(b, parts.iter().map(|c| c.len()).sum());
    // A part held otherwise than the whole is empty: it writes nothing.
    let mut base = 0;
    for part in parts {
        match (tag, part) {
            (0, _) => (0..part.len()).for_each(|i| put_cell(b, part.cell_ref(i))),
            (1, ColumnVec::Int(v)) => write_words(b, v.iter().map(|x| x.to_be_bytes())),
            (2, ColumnVec::Num(v)) => write_words(b, v.iter().map(|x| x.to_be_bytes())),
            (3, ColumnVec::Enc(c)) => {
                let shift = u32::try_from(base).expect("a frame holds fewer than 2^32 bytes");
                write_words(b, c.ends().iter().map(|end| (shift + end).to_be_bytes()));
                base += c.bytes().len();
            }
            _ => {}
        }
    }
    if tag == 3 {
        write_len(b, base);
        for part in parts {
            if let ColumnVec::Enc(c) = part {
                b.extend_from_slice(c.bytes());
            }
        }
    }
}

/// A relation travels column-major as the one table its batches
/// concatenate to ([`Batches::into_table`]) — all of column 0, then
/// column 1, …, matching the columnar in-memory layout so neither end
/// transposes: the schema, then one column per attribute, all of one
/// length. The batches are never concatenated for it, and a received
/// relation is one batch.
impl Encode for Batches {
    fn put(&self, b: &mut Vec<u8>) {
        write_seq(b, self.schema.attrs().iter());
        for i in 0..self.schema.len() {
            let parts: Vec<&ColumnVec> = self.batches.iter().map(|t| t.column(i)).collect();
            put_column(b, &parts);
        }
    }
    fn get(r: &mut Reader) -> Option<Self> {
        let attrs: Vec<AttrId> = r.get()?;
        let cols = (attrs.iter().map(|_| r.get())).collect::<Option<Vec<ColumnVec>>>()?;
        let rows = cols.first().map_or(0, ColumnVec::len);
        (cols.iter().all(|c| c.len() == rows))
            .then(|| Table::from_columns(TableSchema::new(attrs), cols).into())
    }
}

// ---------------------------------------------------------------------------
// Expressions and plans
// ---------------------------------------------------------------------------

wire_enum!(Expr {
    0 => Col(attr),
    1 => AggRef(index),
    2 => Lit(value),
    3 => Cmp(lhs, op, rhs),
    4 => And(conjuncts),
    5 => Or(disjuncts),
    6 => Not(inner),
    7 => Arith(lhs, op, rhs),
    8 => Like { expr, pattern, negated },
    9 => Between { expr, lo, hi, negated },
    10 => InList { expr, list, negated },
    11 => Case { branches, else_ },
    12 => IsNull { expr, negated },
    13 => Extract { field, expr },
    14 => Substring { expr, start, len },
});

wire_struct!(AggExpr: func, input, output);

wire_enum!(Operator {
    0 => Base { rel, attrs },
    1 => Project { attrs },
    2 => Select { pred },
    3 => Product,
    4 => Join { kind, on, residual },
    5 => GroupBy { keys, aggs },
    6 => Having { pred },
    7 => Udf { name, inputs, output, body },
    8 => Encrypt { attrs },
    9 => Decrypt { attrs },
    10 => Sort { keys },
    11 => Limit { n },
});

/// A node is its child edges, then its operator; the two must agree
/// on the arity.
impl Encode for PlanNode {
    const MIN_LEN: usize = 5;
    fn put(&self, b: &mut Vec<u8>) {
        self.children.put(b);
        self.op.put(b);
    }
    fn get(r: &mut Reader) -> Option<Self> {
        let children: Vec<NodeId> = r.get()?;
        let op: Operator = r.get()?;
        (op.arity() == children.len()).then_some(PlanNode { op, children })
    }
}

/// The arena in index order, then the root.
impl Encode for QueryPlan {
    fn put(&self, b: &mut Vec<u8>) {
        write_seq(b, (0..self.len()).map(|i| self.node(NodeId::from_index(i))));
        self.root().put(b);
    }
    fn get(r: &mut Reader) -> Option<Self> {
        let nodes: Vec<PlanNode> = r.get()?;
        let root: NodeId = r.get()?;
        let n = nodes.len();
        // (Also refuses the empty arena.)
        if root.index() >= n {
            return None;
        }
        // Child edges can point *forward*: `splice_above` appends the
        // spliced node at the end of the arena and re-targets an earlier
        // parent's edge at it, so extended plans are not in child-first
        // order. Any in-bounds index is accepted here; tree-shape is
        // validated below.
        let mut child_uses = vec![0u32; n];
        let mut plan = QueryPlan::new();
        for PlanNode { op, children } in nodes {
            for c in &children {
                *child_uses.get_mut(c.index())? += 1;
            }
            plan.add(op, children);
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
}

// ---------------------------------------------------------------------------
// Envelopes, keys and jobs
// ---------------------------------------------------------------------------

wire_struct!(SignedEnvelope: wrapped_key, body, signature);

/// Modulus, then exponent, big-endian. A key that decodes is one an
/// envelope can be sealed to: [`RsaPublic::from_parts`] refuses the
/// rest here, where it enters.
impl Encode for RsaPublic {
    fn put(&self, b: &mut Vec<u8>) {
        write_bytes(b, &self.n.to_bytes_be());
        write_bytes(b, &self.e.to_bytes_be());
    }
    fn get(r: &mut Reader) -> Option<Self> {
        let n = BigUint::from_bytes_be(r.bytes()?);
        let e = BigUint::from_bytes_be(r.bytes()?);
        RsaPublic::from_parts(n, e)
    }
}

/// The shipped fields of a [`QueryJob`]; the receiver re-derives the
/// rest (regions, participants) in
/// [`QueryJob::new`]. Servers never see each other's request envelopes
/// or any private RSA key.
impl Encode for QueryJob {
    fn put(&self, b: &mut Vec<u8>) {
        self.plan.put(b);
        let mut schemes: Vec<(AttrId, EncScheme)> = self.schemes.iter().collect();
        schemes.sort_by_key(|(attr, _)| *attr);
        schemes.put(b);
        self.key_of_attr.put(b);
        self.assignment.put(b);
        self.user.put(b);
        self.exec_seed.put(b);
        self.timeout_ms.put(b);
    }
    fn get(r: &mut Reader) -> Option<Self> {
        let plan = r.get()?;
        let mut schemes = SchemePlan::default();
        for (attr, scheme) in r.get::<Vec<(AttrId, EncScheme)>>()? {
            schemes.set(attr, scheme);
        }
        let (key_of_attr, assignment) = (r.get()?, r.get()?);
        let (user, exec_seed, timeout_ms) = (r.get()?, r.get()?, r.get()?);
        // A job whose assignment is not total over its plan is malformed.
        QueryJob::new(
            plan,
            schemes,
            key_of_attr,
            assignment,
            user,
            exec_seed,
            timeout_ms,
        )
        .ok()
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

wire_struct!(Transfer: node, from, seq, batches);
wire_enum!(Msg { 0 => Table(transfer), 1 => Abort });

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
        /// Its RSA public key, which the coordinator holds to the
        /// fleet's.
        public: RsaPublic,
        /// The highest query epoch the server has been sent: the
        /// coordinator numbers its queries above it.
        epoch: u64,
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
        /// Bytes received per (producer, me) edge: the party's
        /// `PartyOut::transfers`, on the wire as `(from, to, bytes)`
        /// records in ascending edge order.
        transfers: HashMap<(SubjectId, SubjectId), usize>,
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

wire_enum!(Frame {
    0 => Peer { from },
    1 => Data { epoch, msg },
    2 => Hello { user, public },
    3 => HelloAck { me, public, epoch },
    4 => Provision { envelope },
    5 => ProvisionPublic { id, n },
    6 => Execute { epoch, job, envelope },
    7 => Done { epoch, transfers },
    8 => Failed { epoch, message },
    9 => Shutdown,
});

fn decode<T: Encode>(bytes: &[u8]) -> Option<T> {
    let mut r = Reader::new(bytes);
    let v = r.get()?;
    r.finish()?;
    Some(v)
}

/// Encode a frame body (the transport adds the `u32` length prefix)
/// into a buffer sized once for the table a `Data` frame carries: its
/// cells' bytes ([`Batches::byte_size`]) and a word per cell for an
/// offset or a cell's tag and length. A frame of megabytes would
/// otherwise grow by doubling.
pub(crate) fn encode_frame(f: &Frame) -> Vec<u8> {
    let carried = match f {
        Frame::Data {
            msg: Msg::Table(t), ..
        } => {
            let cells = (t.batches.batches.iter()).map(|b| b.len() * b.schema().len());
            t.batches.byte_size() + 4 * cells.sum::<usize>()
        }
        _ => 0,
    };
    let mut b = Vec::with_capacity(64 + carried);
    f.put(&mut b);
    b
}

/// Decode a frame body (`None` on any malformation, including
/// trailing bytes).
pub(crate) fn decode_frame(bytes: &[u8]) -> Option<Frame> {
    decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::value::EncValue;
    use mpq_algebra::Date;
    use mpq_core::fixtures::RunningExample;
    use mpq_crypto::sha256::sha256_hex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn encode<T: Encode>(v: &T) -> Vec<u8> {
        let mut b = Vec::new();
        v.put(&mut b);
        b
    }

    /// A table travels as a one-batch relation.
    impl Encode for Table {
        fn put(&self, b: &mut Vec<u8>) {
            Batches::from(self.clone()).put(b);
        }
        fn get(r: &mut Reader) -> Option<Self> {
            Some(Batches::get(r)?.into_table())
        }
    }

    // ---- named fixtures ---------------------------------------------------

    fn date(s: &str) -> Value {
        Value::Date(Date::parse(s).expect("valid date"))
    }

    fn enc(scheme: EncScheme, key_id: u32, bytes: &[u8]) -> Value {
        Value::Enc(EncValue {
            scheme,
            key_id,
            bytes: Arc::from(bytes),
        })
    }

    /// A cell of every kind; dense, encrypted and degraded columns
    /// (ciphertexts under three keys share no `Enc` column).
    fn mixed_table() -> Table {
        let table = Table::from_rows(
            (0..6).map(AttrId).collect(),
            vec![
                vec![
                    Value::Int(-42),
                    Value::Num(1.5),
                    Value::str("alice"),
                    date("1994-01-01"),
                    enc(EncScheme::Deterministic, 1, &[1, 2, 3, 4, 5, 6, 7, 8]),
                    enc(EncScheme::Random, 4, &[7; 17]),
                ],
                vec![
                    Value::Int(7),
                    Value::Num(-0.25),
                    Value::Null,
                    date("1970-01-01"),
                    enc(EncScheme::Paillier, 2, &[9; 40]),
                    Value::Null,
                ],
                vec![
                    Value::Int(i64::MAX),
                    Value::Num(0.0),
                    Value::str(""),
                    Value::Null,
                    enc(EncScheme::Ope, 3, &[0, 0, 0, 0, 0, 0, 1, 0]),
                    enc(EncScheme::Random, 4, &[8; 20]),
                ],
            ],
        );
        let held = |i| match table.column(i) {
            ColumnVec::Val(_) | ColumnVec::Date(_) | ColumnVec::Str(_) => 0,
            ColumnVec::Int(_) => 1,
            ColumnVec::Num(_) => 2,
            ColumnVec::Enc(_) => 3,
        };
        assert_eq!([0, 1, 2, 3, 4, 5].map(held), [1, 2, 0, 0, 0, 3]);
        table
    }

    fn fixture_expr() -> Expr {
        Expr::And(vec![
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
        ])
    }

    /// The Fig. 7(a) extended plan as the job an `Execute` carries.
    fn fig7a_job() -> QueryJob {
        let ex = RunningExample::new();
        let ext = ex.fig7a_extended();
        let schemes = mpq_exec::assign_schemes(&ext.plan).expect("fig7a schemes do not conflict");
        let key_of_attr = ext
            .encrypted_attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (a, i as u32 + 1))
            .collect();
        QueryJob::new(
            ext.plan,
            schemes,
            key_of_attr,
            ext.assignment,
            ex.subject("U"),
            7,
            30_000,
        )
        .expect("the fig7a assignment is total")
    }

    fn golden_key() -> RsaPublic {
        let mut n: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(0x81))
            .collect();
        n[63] |= 1;
        RsaPublic::from_parts(BigUint::from_bytes_be(&n), BigUint::from_u64(65_537))
            .expect("odd, 64 bytes wide, e = 65537")
    }

    fn golden_envelope() -> SignedEnvelope {
        SignedEnvelope {
            wrapped_key: (0..64u8).collect(),
            body: (0..100u8).rev().collect(),
            signature: vec![0xA5; 64],
        }
    }

    fn data_frame(batches: impl Into<Batches>) -> Frame {
        Frame::Data {
            epoch: 42,
            msg: Msg::Table(Arc::new(Transfer {
                node: NodeId(5),
                from: SubjectId(2),
                seq: 77,
                batches: batches.into(),
            })),
        }
    }

    /// The frames whose bytes are pinned: what a Fig. 7(a) query puts
    /// on the wire, one of each shape.
    fn golden_corpus() -> Vec<Frame> {
        vec![
            Frame::Execute {
                epoch: 3,
                job: Arc::new(fig7a_job()),
                envelope: Some(golden_envelope()),
            },
            data_frame(mixed_table()),
            Frame::Hello {
                user: SubjectId(0),
                public: golden_key(),
            },
            Frame::HelloAck {
                me: SubjectId(1),
                public: golden_key(),
                epoch: 7,
            },
            Frame::Provision {
                envelope: golden_envelope(),
            },
            Frame::Done {
                epoch: 9,
                transfers: HashMap::from([
                    ((SubjectId(1), SubjectId(3)), 4096),
                    ((SubjectId(2), SubjectId(3)), usize::MAX),
                ]),
            },
            Frame::Failed {
                epoch: 9,
                message: "audit: attribute a3 not visible to s4".into(),
            },
        ]
    }

    // ---- seeded generators ------------------------------------------------

    fn gen_vec<T>(rng: &mut StdRng, max: usize, mut f: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
        (0..rng.gen_range(0..=max)).map(|_| f(rng)).collect()
    }

    fn gen_attr(rng: &mut StdRng) -> AttrId {
        AttrId(rng.gen_range(0..12))
    }

    fn gen_attrs(rng: &mut StdRng) -> Vec<AttrId> {
        gen_vec(rng, 4, gen_attr)
    }

    fn gen_string(rng: &mut StdRng) -> String {
        gen_vec(rng, 6, |r| {
            ['a', 'Z', '%', '_', 'é', '7'][r.gen_range(0..6)]
        })
        .into_iter()
        .collect()
    }

    fn gen_value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..7) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 => Value::Int(rng.gen()),
            3 => Value::Num(rng.gen_range(-1_000_000i64..1_000_000) as f64 / 64.0),
            4 => Value::str(&gen_string(rng)),
            5 => Value::Date(Date(rng.gen_range(-30_000..60_000))),
            _ => {
                let scheme = gen_scheme(rng);
                enc(scheme, rng.gen(), &gen_vec(rng, 24, |r| r.gen::<u8>()))
            }
        }
    }

    fn gen_scheme(rng: &mut StdRng) -> EncScheme {
        EncScheme::from_tag(rng.gen_range(0..4)).expect("tags 0..4 name the four schemes")
    }

    fn gen_cmp(rng: &mut StdRng) -> CmpOp {
        [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][rng.gen_range(0..6)]
    }

    fn gen_expr(rng: &mut StdRng, depth: usize) -> Expr {
        let sub = |rng: &mut StdRng| Box::new(gen_expr(rng, depth - 1));
        let variants = if depth == 0 { 3 } else { 15 };
        match rng.gen_range(0..variants) {
            0 => Expr::Col(gen_attr(rng)),
            1 => Expr::AggRef(rng.gen_range(0..5)),
            2 => Expr::Lit(gen_value(rng)),
            3 => Expr::Cmp(sub(rng), gen_cmp(rng), sub(rng)),
            4 => Expr::And(gen_vec(rng, 3, |r| gen_expr(r, depth - 1))),
            5 => Expr::Or(gen_vec(rng, 3, |r| gen_expr(r, depth - 1))),
            6 => Expr::Not(sub(rng)),
            7 => {
                let op =
                    [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][rng.gen_range(0..4)];
                Expr::Arith(sub(rng), op, sub(rng))
            }
            8 => Expr::Like {
                expr: sub(rng),
                pattern: gen_string(rng),
                negated: rng.gen(),
            },
            9 => Expr::Between {
                expr: sub(rng),
                lo: sub(rng),
                hi: sub(rng),
                negated: rng.gen(),
            },
            10 => Expr::InList {
                expr: sub(rng),
                list: gen_vec(rng, 4, gen_value),
                negated: rng.gen(),
            },
            11 => Expr::Case {
                branches: gen_vec(rng, 2, |r| (gen_expr(r, depth - 1), gen_expr(r, depth - 1))),
                else_: rng.gen::<bool>().then(|| sub(rng)),
            },
            12 => Expr::IsNull {
                expr: sub(rng),
                negated: rng.gen(),
            },
            13 => Expr::Extract {
                field: DateField::Year,
                expr: sub(rng),
            },
            _ => Expr::Substring {
                expr: sub(rng),
                start: rng.gen_range(0..9),
                len: rng.gen_range(0..9),
            },
        }
    }

    /// A random operator of the given arity (every variant is reachable:
    /// one leaf, nine unary, two binary).
    fn gen_operator(rng: &mut StdRng, arity: usize) -> Operator {
        let pred = |rng: &mut StdRng| gen_expr(rng, 2);
        match (arity, rng.gen_range(0..9)) {
            (0, _) => Operator::Base {
                rel: RelId(rng.gen_range(0..4)),
                attrs: gen_attrs(rng),
            },
            (2, k) if k < 3 => Operator::Product,
            (2, _) => Operator::Join {
                kind: [
                    JoinKind::Inner,
                    JoinKind::LeftOuter,
                    JoinKind::Semi,
                    JoinKind::Anti,
                ][rng.gen_range(0..4)],
                on: gen_vec(rng, 2, |r| (gen_attr(r), gen_cmp(r), gen_attr(r))),
                residual: rng.gen::<bool>().then(|| pred(rng)),
            },
            (_, 0) => Operator::Project {
                attrs: gen_attrs(rng),
            },
            (_, 1) => Operator::Select { pred: pred(rng) },
            (_, 2) => Operator::GroupBy {
                keys: gen_attrs(rng),
                aggs: gen_vec(rng, 3, |r| AggExpr {
                    func: [
                        AggFunc::Count,
                        AggFunc::CountDistinct,
                        AggFunc::Sum,
                        AggFunc::Avg,
                        AggFunc::Min,
                        AggFunc::Max,
                    ][r.gen_range(0..6)],
                    input: gen_expr(r, 1),
                    output: gen_attr(r),
                }),
            },
            (_, 3) => Operator::Having { pred: pred(rng) },
            (_, 4) => Operator::Udf {
                name: gen_string(rng),
                inputs: gen_attrs(rng),
                output: gen_attr(rng),
                body: rng.gen::<bool>().then(|| pred(rng)),
            },
            (_, 5) => Operator::Encrypt {
                attrs: gen_attrs(rng),
            },
            (_, 6) => Operator::Decrypt {
                attrs: gen_attrs(rng),
            },
            (_, 7) => Operator::Sort {
                keys: gen_vec(rng, 3, |r| (gen_expr(r, 1), r.gen())),
            },
            _ => Operator::Limit { n: rng.gen() },
        }
    }

    /// A random tree, then a few `splice_above`s — so, like a real
    /// extended plan, the arena has forward child edges and a root that
    /// is not the last node.
    fn gen_plan(rng: &mut StdRng) -> QueryPlan {
        let mut plan = QueryPlan::new();
        let mut open: Vec<NodeId> = (0..rng.gen_range(1..4))
            .map(|_| plan.add(gen_operator(rng, 0), vec![]))
            .collect();
        let mut unary_budget: u32 = rng.gen_range(0..5);
        while open.len() > 1 || unary_budget > 0 {
            if open.len() > 1 && rng.gen::<bool>() {
                let (r, l) = (open.pop().expect("two open"), open.pop().expect("two open"));
                open.push(plan.add(gen_operator(rng, 2), vec![l, r]));
            } else {
                let i = rng.gen_range(0..open.len());
                open[i] = plan.add(gen_operator(rng, 1), vec![open[i]]);
                unary_budget = unary_budget.saturating_sub(1);
            }
        }
        for _ in 0..rng.gen_range(0..4) {
            let child = NodeId::from_index(rng.gen_range(0..plan.len()));
            let attrs = gen_attrs(rng);
            plan.splice_above(child, Operator::Encrypt { attrs });
        }
        plan
    }

    fn gen_table(rng: &mut StdRng) -> Table {
        let attrs = gen_attrs(rng);
        let nrows = rng.gen_range(0..12);
        let cols = attrs
            .iter()
            .map(|_| match rng.gen_range(0..5) {
                0 => ColumnVec::from_ints((0..nrows).map(|_| rng.gen()).collect()),
                1 => ColumnVec::from_nums((0..nrows).map(|i| i as f64 * 0.5).collect()),
                // One key, cells of any width, NULLs at any rate — all
                // of them NULL one time in three.
                2 => {
                    let scheme = gen_scheme(rng);
                    let mut col = EncColumn::new(scheme, rng.gen());
                    let nulls = [0, 3, 10][rng.gen_range(0..3)];
                    for _ in 0..nrows {
                        let width = rng.gen_range(1..40);
                        let cell = gen_vec(rng, width, |r| r.gen::<u8>());
                        let null = rng.gen_range(0..10) < nulls;
                        col.push(if null { &[] } else { &cell });
                    }
                    ColumnVec::Enc(col)
                }
                _ => (0..nrows).map(|_| gen_value(rng)).collect(),
            })
            .collect();
        Table::from_columns(TableSchema::new(attrs), cols)
    }

    fn gen_job(rng: &mut StdRng) -> QueryJob {
        let plan = gen_plan(rng);
        let mut schemes = SchemePlan::default();
        for a in gen_attrs(rng) {
            schemes.set(a, gen_scheme(rng));
        }
        let key_of_attr = gen_attrs(rng).into_iter().map(|a| (a, rng.gen())).collect();
        let assignment = (0..plan.len())
            .map(|i| (NodeId::from_index(i), SubjectId(rng.gen_range(0..5))))
            .collect();
        let user = SubjectId(rng.gen_range(0..5));
        QueryJob::new(
            plan,
            schemes,
            key_of_attr,
            assignment,
            user,
            rng.gen(),
            rng.gen_range(0..60_000),
        )
        .expect("assignment covers the arena")
    }

    fn gen_envelope(rng: &mut StdRng) -> SignedEnvelope {
        SignedEnvelope {
            wrapped_key: gen_vec(rng, 64, |r| r.gen::<u8>()),
            body: gen_vec(rng, 200, |r| r.gen::<u8>()),
            signature: gen_vec(rng, 64, |r| r.gen::<u8>()),
        }
    }

    /// A random frame of variant `tag`.
    fn gen_frame(rng: &mut StdRng, tag: u8) -> Frame {
        let subject = |rng: &mut StdRng| SubjectId(rng.gen_range(0..6));
        match tag {
            0 => Frame::Peer { from: subject(rng) },
            1 if rng.gen_range(0..4) == 0 => Frame::Data {
                epoch: rng.gen(),
                msg: Msg::Abort,
            },
            1 => data_frame(gen_table(rng)),
            2 => Frame::Hello {
                user: subject(rng),
                public: golden_key(),
            },
            3 => Frame::HelloAck {
                me: subject(rng),
                public: golden_key(),
                epoch: rng.gen(),
            },
            4 => Frame::Provision {
                envelope: gen_envelope(rng),
            },
            5 => Frame::ProvisionPublic {
                id: rng.gen(),
                n: gen_vec(rng, 64, |r| r.gen::<u8>()),
            },
            6 => Frame::Execute {
                epoch: rng.gen(),
                job: Arc::new(gen_job(rng)),
                envelope: rng.gen::<bool>().then(|| gen_envelope(rng)),
            },
            7 => Frame::Done {
                epoch: rng.gen(),
                transfers: gen_vec(rng, 4, |r| {
                    ((subject(r), subject(r)), r.gen::<u64>() as usize)
                })
                .into_iter()
                .collect(),
            },
            8 => Frame::Failed {
                epoch: rng.gen(),
                message: gen_string(rng),
            },
            _ => Frame::Shutdown,
        }
    }

    // ---- the round-trip property -------------------------------------------

    /// `decode(encode(x))` exists and re-encodes to the same bytes.
    fn roundtrip<T: Encode>(x: &T) -> T {
        let bytes = encode(x);
        let back: T = decode(&bytes).expect("what was encoded decodes");
        assert_eq!(encode(&back), bytes, "re-encoding differs");
        back
    }

    /// …and, where the type can say so, is `x`.
    fn roundtrip_eq<T: Encode + PartialEq + std::fmt::Debug>(x: &T) {
        assert_eq!(&roundtrip(x), x);
    }

    /// The receiver re-derives everything the sender derived.
    fn assert_same_job(back: &QueryJob, job: &QueryJob) {
        assert_eq!(back.plan, job.plan);
        assert_eq!(back.key_of_attr, job.key_of_attr);
        assert_eq!(back.assignment, job.assignment);
        let schemes = |j: &QueryJob| j.schemes.iter().collect::<HashMap<_, _>>();
        assert_eq!(schemes(back), schemes(job));
        assert_eq!(
            (back.user, back.exec_seed, back.timeout_ms),
            (job.user, job.exec_seed, job.timeout_ms)
        );
        assert_eq!(back.regions, job.regions);
        assert_eq!(back.participants, job.participants);
    }

    fn roundtrip_frame(f: &Frame) {
        match (roundtrip(f), f) {
            (Frame::Execute { job: back, .. }, Frame::Execute { job, .. }) => {
                assert_same_job(&back, job)
            }
            (
                Frame::Data {
                    msg: Msg::Table(back),
                    ..
                },
                Frame::Data {
                    msg: Msg::Table(t), ..
                },
            ) => {
                assert_eq!((back.node, back.from, back.seq), (t.node, t.from, t.seq));
                assert_eq!(back.batches.byte_size(), t.batches.byte_size());
                let table = |b: &Batches| b.clone().into_table();
                assert_eq!(table(&back.batches), table(&t.batches));
            }
            (back, f) => assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(f),
                "{back:?}"
            ),
        }
    }

    #[test]
    fn everything_roundtrips() {
        // The named inputs first…
        let ex = RunningExample::new();
        roundtrip_eq(&fixture_expr());
        roundtrip_eq(&mixed_table());
        roundtrip_eq(&Table::new(vec![AttrId(0)]));
        roundtrip_eq(&Table::default());
        // An encrypted column with no cell, and with no ciphertext.
        for nulls in [0, 3] {
            let mut col = EncColumn::new(EncScheme::Ope, 6);
            (0..nulls).for_each(|_| col.push(&[]));
            let schema = TableSchema::new(vec![AttrId(2)]);
            let table = Table::from_columns(schema, vec![ColumnVec::Enc(col)]);
            let back = roundtrip(&table);
            assert!(matches!(back.column(0), ColumnVec::Enc(c) if c.key_id() == 6));
            assert_eq!(back, table);
        }
        for plan in [&ex.plan, &ex.fig7a_extended().plan] {
            roundtrip_eq(plan);
            for id in plan.postorder() {
                roundtrip_eq(&plan.node(id).op);
            }
        }
        golden_corpus().iter().for_each(roundtrip_frame);
        // …then generated ones.
        for seed in 0..200 {
            let rng = &mut StdRng::seed_from_u64(seed);
            roundtrip_eq(&gen_value(rng));
            roundtrip_eq(&gen_expr(rng, 3));
            roundtrip_eq(&gen_operator(rng, seed as usize % 3));
            roundtrip_eq(&gen_plan(rng));
            roundtrip_eq(&gen_table(rng));
            for tag in 0..10 {
                roundtrip_frame(&gen_frame(rng, tag));
            }
        }
    }

    /// One batch's column of `rows` cells held as `rep`: `Int`, `Num`,
    /// strings, dates, Det ciphertexts under key 1 or key 2 (NULLs among
    /// them), or general cells (NULLs among them).
    fn gen_part(rng: &mut StdRng, rep: u8, rows: usize) -> ColumnVec {
        match rep {
            0 => ColumnVec::from_ints((0..rows).map(|_| rng.gen_range(-9..9)).collect()),
            1 => ColumnVec::from_nums(
                (0..rows)
                    .map(|_| rng.gen_range(-8..8) as f64 / 4.0)
                    .collect(),
            ),
            4 | 5 => {
                let mut col = EncColumn::new(EncScheme::Deterministic, u32::from(rep) - 3);
                for _ in 0..rows {
                    let width = [0, 8, 16][rng.gen_range(0..3)];
                    let cell: Vec<u8> = (0..width).map(|_| rng.gen()).collect();
                    col.push(&cell);
                }
                ColumnVec::Enc(col)
            }
            _ => (0..rows)
                .map(|_| match rep {
                    2 => Value::str(&gen_string(rng)),
                    3 => Value::Date(Date(rng.gen_range(0..9_000))),
                    _ if rng.gen_range(0..4) == 0 => Value::Null,
                    _ => gen_value(rng),
                })
                .collect(),
        }
    }

    /// A relation travels as the one table its batches concatenate to.
    /// However it is split — into no batch, one or many, empty ones
    /// among them, a column's representation changing from batch to
    /// batch (`Int` then general cells, ciphertexts under two keys,
    /// strings then dates, NULL cells) — it encodes byte for byte as its
    /// `into_table()` does, and decodes to the same rows, as one batch.
    #[test]
    fn batches_encode_as_the_table_they_concatenate_to() {
        let check = |split: Batches, what: &str| {
            let whole = split.clone().into_table();
            let bytes = encode(&split);
            assert_eq!(bytes, encode(&Batches::from(whole.clone())), "{what}");
            let back: Batches = decode(&bytes).expect("what was encoded decodes");
            assert_eq!(back.batches.len(), 1, "{what}");
            assert_eq!(back.into_table(), whole, "{what}");
        };
        let schema = |n: u32| TableSchema::new((0..n).map(AttrId).collect());
        check(
            Batches {
                schema: schema(3),
                batches: vec![],
            },
            "no batch",
        );
        // Named pairs of representations, back to back and around an
        // empty batch of a third.
        let rng = &mut StdRng::seed_from_u64(1);
        for (a, b) in [
            (0, 6),
            (6, 0),
            (4, 5),
            (4, 4),
            (2, 3),
            (0, 0),
            (1, 1),
            (0, 1),
            (5, 6),
        ] {
            for middle in [None, Some(0), Some(4), Some(6)] {
                let reps = [Some(a), middle, Some(b)].into_iter().flatten();
                let batches = reps
                    .enumerate()
                    .map(|(i, rep)| {
                        let rows = if i == 1 && middle.is_some() { 0 } else { 3 };
                        Table::from_columns(schema(1), vec![gen_part(rng, rep, rows)])
                    })
                    .collect();
                check(
                    Batches {
                        schema: schema(1),
                        batches,
                    },
                    &format!("{a}/{middle:?}/{b}"),
                );
            }
        }
        // Random splits: each column keeps a representation, mostly.
        for seed in 0..300 {
            let rng = &mut StdRng::seed_from_u64(seed);
            let width = rng.gen_range(1..5);
            let held: Vec<u8> = (0..width).map(|_| rng.gen_range(0..7)).collect();
            let count = [0, 1, rng.gen_range(2..7)][seed as usize % 3];
            let batches = (0..count)
                .map(|_| {
                    let rows = rng.gen_range(0..6);
                    let cols = (held.iter())
                        .map(|&rep| {
                            let rep = if rng.gen_range(0..4) == 0 {
                                rng.gen_range(0..7)
                            } else {
                                rep
                            };
                            gen_part(rng, rep, rows)
                        })
                        .collect();
                    Table::from_columns(schema(width), cols)
                })
                .collect();
            check(
                Batches {
                    schema: schema(width),
                    batches,
                },
                &format!("seed {seed}"),
            );
        }
    }

    // ---- the format is pinned ---------------------------------------------

    /// SHA-256 over `len ‖ encode_frame(f)` of the golden corpus. Both
    /// digests were re-pinned when tables began to travel as packed
    /// columns: the one frame of the corpus that carries a `Table`
    /// moved (and gained an `Enc` column), and the third digest —
    /// every frame without one, taken at the commit before — shows
    /// that nothing else did. The `HelloAck` joined the corpus when it
    /// gained its `epoch`, under a digest of its own: the three above
    /// it leave it out, and read as they did before.
    #[test]
    fn golden_corpus_encodes_to_the_pinned_bytes() {
        let (mut all, mut all_but_execute, mut tableless) = (Vec::new(), Vec::new(), Vec::new());
        let mut hello_ack = Vec::new();
        for f in golden_corpus() {
            let bytes = encode_frame(&f);
            if matches!(f, Frame::HelloAck { .. }) {
                write_bytes(&mut hello_ack, &bytes);
                continue;
            }
            write_bytes(&mut all, &bytes);
            if !matches!(f, Frame::Execute { .. }) {
                write_bytes(&mut all_but_execute, &bytes);
            }
            if !matches!(f, Frame::Data { .. }) {
                write_bytes(&mut tableless, &bytes);
            }
        }
        assert_eq!(
            sha256_hex(&tableless),
            "b14d02b4cf935e01c18ab3d21616a51d2362cd6ee97516e3bb4d2a2438199069"
        );
        assert_eq!(
            sha256_hex(&all_but_execute),
            "3c840036a92dcc0316e25cea041bf8ecb0580538d2aa1320b55704a76cbf5e74"
        );
        assert_eq!(
            sha256_hex(&all),
            "003d10a9471b0e0ea4e5a79aae403797ab9ddab8d4b57d5b8d8680c6b98f83aa"
        );
        assert_eq!(
            sha256_hex(&hello_ack),
            "1a11cc21305f2f48dd79eec3ab3afd4cb25087904cdaf8c2dfabb8be913531bf"
        );
    }

    /// `Date`/`Str` columns have no tag of their own: a table holding
    /// them encodes to exactly the bytes of its `Val` twin, and decodes
    /// typed again.
    #[test]
    fn typed_text_and_date_columns_travel_as_their_val_twin() {
        let rows = ["alice", "", "ünï"]
            .iter()
            .enumerate()
            .map(|(i, name)| vec![Value::str(name), Value::Date(Date(i as i32 - 1))]);
        let typed = Table::from_rows(vec![AttrId(0), AttrId(1)], rows.collect());
        assert!(matches!(typed.column(0), ColumnVec::Str(_)));
        assert!(matches!(typed.column(1), ColumnVec::Date(_)));
        let twin = typed
            .columns()
            .iter()
            .map(|c| ColumnVec::Val(c.clone().into_values()));
        let twin = Table::from_columns(typed.schema().clone(), twin.collect());
        assert_eq!(encode(&typed), encode(&twin));
        for table in [&typed, &twin] {
            let back = roundtrip(table);
            assert_eq!(&back, table);
            assert!(matches!(back.column(0), ColumnVec::Str(_)));
            assert!(matches!(back.column(1), ColumnVec::Date(_)));
        }
    }

    // ---- hostile input ------------------------------------------------------

    /// Hand-assembled frame bytes.
    #[derive(Default)]
    struct Bytes(Vec<u8>);

    impl Bytes {
        fn u8(mut self, v: u8) -> Bytes {
            self.0.push(v);
            self
        }
        fn u32(mut self, v: u32) -> Bytes {
            v.put(&mut self.0);
            self
        }
        fn u64(mut self, v: u64) -> Bytes {
            v.put(&mut self.0);
            self
        }
        /// `Data { epoch: 1, msg: Table(Transfer { node, from, seq: 0, ..`
        /// — everything before the table.
        fn data_header() -> Bytes {
            Bytes::default().u8(1).u64(1).u8(0).u32(0).u32(0).u64(0)
        }
        /// …and a one-attribute table up to its column's representation
        /// tag: 0 `Val`, 1 `Int`, 2 `Num`, 3 `Enc`.
        fn column(tag: u8) -> Bytes {
            Bytes::data_header().u32(1).u32(7).u8(tag)
        }
        /// The count field under test: as many elements as a `u32` can
        /// claim, and then nothing.
        fn hostile(self) -> Vec<u8> {
            self.u32(u32::MAX).0
        }
    }

    #[test]
    fn a_count_the_frame_cannot_back_is_refused_before_allocation() {
        // The reader itself: a count is believed up to the bytes left.
        let counted = |body: usize, min_each| {
            let mut b = Vec::new();
            write_len(&mut b, 3);
            b.resize(4 + body, 0);
            Reader::new(&b).count(min_each)
        };
        assert_eq!(counted(12, 4), Some(3));
        assert_eq!(counted(11, 4), None);
        assert_eq!(counted(0, 0), Some(3));
        assert_eq!(
            Reader::new(&Bytes::default().hostile()).count(usize::MAX),
            None
        );

        // Every count field of every frame, claiming u32::MAX elements.
        let data = Bytes::data_header;
        let column = Bytes::column;
        let execute = || Bytes::default().u8(6).u64(1);
        // …one node, no children, operator `op`.
        let leaf_op = |op: u8| execute().u32(1).u32(0).u8(op);
        // …one node, one child edge, operator `op`.
        let unary_op = |op: u8| execute().u32(1).u32(1).u32(0).u8(op);
        // …a whole one-node plan (`Base { rel: 0, attrs: [] }`, root 0).
        let after_plan = || leaf_op(0).u32(0).u32(0).u32(0);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("table.attrs", data().hostile()),
            ("column.val.cells", column(0).hostile()),
            ("column.val.cell", column(0).u32(1).hostile()),
            ("column.int.cells", column(1).hostile()),
            ("column.num.cells", column(2).hostile()),
            ("column.enc.cells", column(3).u8(1).u32(9).hostile()),
            ("column.enc.bytes", column(3).u8(1).u32(9).u32(0).hostile()),
            ("plan.nodes", execute().hostile()),
            ("node.children", execute().u32(1).hostile()),
            ("base.attrs", leaf_op(0).u32(0).hostile()),
            ("project.attrs", unary_op(1).hostile()),
            ("select.and", unary_op(2).u8(4).hostile()),
            ("select.or", unary_op(2).u8(5).hostile()),
            ("select.lit", unary_op(2).u8(2).hostile()),
            (
                "select.like.pattern",
                unary_op(2).u8(8).u8(0).u32(0).hostile(),
            ),
            ("select.in.list", unary_op(2).u8(10).u8(0).u32(0).hostile()),
            ("select.case.branches", unary_op(2).u8(11).hostile()),
            (
                "join.on",
                execute().u32(1).u32(2).u32(0).u32(0).u8(4).u8(0).hostile(),
            ),
            ("groupby.keys", unary_op(5).hostile()),
            ("groupby.aggs", unary_op(5).u32(0).hostile()),
            ("udf.name", unary_op(7).hostile()),
            ("udf.inputs", unary_op(7).u32(0).hostile()),
            ("encrypt.attrs", unary_op(8).hostile()),
            ("decrypt.attrs", unary_op(9).hostile()),
            ("sort.keys", unary_op(10).hostile()),
            ("job.schemes", after_plan().hostile()),
            ("job.key_of_attr", after_plan().u32(0).hostile()),
            ("job.assignment", after_plan().u32(0).u32(0).hostile()),
            ("hello.modulus", Bytes::default().u8(2).u32(0).hostile()),
            (
                "hello.exponent",
                Bytes::default().u8(2).u32(0).u32(1).u8(5).hostile(),
            ),
            ("helloack.modulus", Bytes::default().u8(3).u32(0).hostile()),
            ("provision.wrapped_key", Bytes::default().u8(4).hostile()),
            ("provision.body", Bytes::default().u8(4).u32(0).hostile()),
            (
                "provision.signature",
                Bytes::default().u8(4).u32(0).u32(0).hostile(),
            ),
            (
                "provision_public.n",
                Bytes::default().u8(5).u32(1).hostile(),
            ),
            ("done.transfers", Bytes::default().u8(7).u64(1).hostile()),
            ("failed.message", Bytes::default().u8(8).u64(1).hostile()),
        ];
        for (field, frame) in cases {
            assert!(frame.len() <= 64, "{field}: {} bytes", frame.len());
            assert!(decode_frame(&frame).is_none(), "{field} decoded");
            // The same frame with the count made honest (zero elements)
            // gets past this field: the refusal above was the count's.
            let mut honest = frame.clone();
            let at = honest.len() - 4;
            honest[at..].fill(0);
            let mut r = Reader::new(&honest);
            r.at = at;
            assert_eq!(r.count(1), Some(0), "{field}");
        }
    }

    #[test]
    fn every_truncation_and_byte_flip_of_the_corpus_returns() {
        let mut decoded = 0usize;
        for frame in golden_corpus() {
            let good = encode_frame(&frame);
            for cut in 0..good.len() {
                assert!(decode_frame(&good[..cut]).is_none(), "prefix {cut} decoded");
            }
            for at in 0..good.len() {
                for flip in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF] {
                    let mut bad = good.clone();
                    bad[at] ^= flip;
                    // `Some` or `None`, but it returns.
                    decoded += usize::from(decode_frame(&bad).is_some());
                }
            }
        }
        // Most flips land in payload bytes and still decode; the sweep
        // is not vacuous in either direction.
        assert!(decoded > 1_000, "only {decoded} mutants decoded");
    }

    #[test]
    fn nesting_is_bounded_before_the_stack_is() {
        let select = |depth: usize| {
            let mut f = Bytes::default().u8(6).u64(1).u32(1).u32(1).u32(0).u8(2).0;
            f.extend(std::iter::repeat_n(6, depth)); // Not(Not(…
            f.extend([0, 0, 0, 0, 9]); // …Col(a9)))
            f
        };
        // Deep enough to overflow any stack if it were followed…
        assert!(decode_frame(&select(1 << 20)).is_none());
        // …while the deepest predicates the cap admits — far beyond any
        // real one — decode on this 2 MiB test-thread stack (the frame
        // itself fails later: a Select over its own node).
        let admitted = (0..MAX_DEPTH)
            .filter(|&depth| {
                let frame = select(depth);
                Reader::new(&frame[9..]).get::<Vec<PlanNode>>().is_some()
            })
            .count();
        assert!((100..MAX_DEPTH / 2).contains(&admitted), "{admitted}");
    }

    #[test]
    fn malformed_frames_are_rejected_not_panicked() {
        assert!(decode_frame(&[]).is_none());
        assert!(decode_frame(&[99]).is_none());
        // Trailing garbage.
        let mut padded = encode_frame(&Frame::Shutdown);
        padded.push(0);
        assert!(decode_frame(&padded).is_none());
        // A plan that is not a tree: two parents share a child.
        let shared = execute_with_nodes(&[(&[], 0), (&[0], 1), (&[0], 1), (&[1, 2], 3)], 3);
        assert!(decode_frame(&shared).is_none());
        // …a cycle…
        let cycle = execute_with_nodes(&[(&[1], 1), (&[0], 1)], 0);
        assert!(decode_frame(&cycle).is_none());
        // …a child or a root out of bounds, an arity mismatch, no nodes.
        assert!(decode_frame(&execute_with_nodes(&[(&[5], 1)], 0)).is_none());
        assert!(decode_frame(&execute_with_nodes(&[(&[], 0)], 1)).is_none());
        assert!(decode_frame(&execute_with_nodes(&[(&[], 3), (&[0], 3)], 1)).is_none());
        assert!(decode_frame(&execute_with_nodes(&[], 0)).is_none());
        // The same shape, well-formed, decodes.
        let tree = execute_with_nodes(&[(&[], 0), (&[], 0), (&[0, 1], 3)], 2);
        assert!(decode_frame(&tree).is_some());
    }

    #[test]
    fn malformed_columns_are_rejected_not_panicked() {
        // An `Enc` column of Det cells under key 9: two cells ending at
        // `ends`, over `payload` bytes.
        let enc = |scheme: u8, ends: [u32; 2], payload: usize| {
            let b = Bytes::column(3).u8(scheme).u32(9);
            let mut b = b.u32(2).u32(ends[0]).u32(ends[1]).0;
            write_bytes(&mut b, &vec![0xC1; payload]);
            b
        };
        assert!(decode_frame(&enc(1, [8, 24], 24)).is_some());
        assert!(decode_frame(&enc(1, [8, 8], 8)).is_some(), "a NULL cell");
        assert!(decode_frame(&enc(1, [0, 0], 0)).is_some(), "all NULL");
        assert!(decode_frame(&enc(1, [16, 8], 8)).is_none(), "decreasing");
        assert!(decode_frame(&enc(1, [16, 8], 16)).is_none(), "decreasing");
        assert!(
            decode_frame(&enc(1, [8, 24], 32)).is_none(),
            "bytes past the last cell"
        );
        assert!(
            decode_frame(&enc(1, [8, 24], 16)).is_none(),
            "a cell past the bytes"
        );
        assert!(
            decode_frame(&enc(4, [8, 24], 24)).is_none(),
            "no such scheme"
        );
        // No cells, but bytes.
        let mut orphaned = Bytes::column(3).u8(1).u32(9).u32(0).0;
        write_bytes(&mut orphaned, &[0xC1; 8]);
        assert!(decode_frame(&orphaned).is_none());
        // A representation tag nothing has.
        assert!(decode_frame(&Bytes::column(4).u32(0).0).is_none());
        // Two columns, of two and of one cell.
        let two = |second: u32| {
            let b = Bytes::data_header().u32(2).u32(7).u32(8);
            let b = b.u8(1).u32(2).u64(1).u64(2);
            (0..second).fold(b.u8(2).u32(second), |b, _| b.u64(0)).0
        };
        assert!(decode_frame(&two(2)).is_some());
        assert!(decode_frame(&two(1)).is_none());
        assert!(decode_frame(&two(3)).is_none());
    }

    /// An `Execute` frame whose plan has the given `(children, op tag)`
    /// nodes — ops 0 (`Base`), 1 (`Project`) and 3 (`Product`), each
    /// with empty attribute lists — every node assigned to subject 0.
    fn execute_with_nodes(nodes: &[(&[u32], u8)], root: u32) -> Vec<u8> {
        let mut b = Bytes::default().u8(6).u64(1).u32(nodes.len() as u32);
        for (children, op) in nodes {
            b = b.u32(children.len() as u32);
            for c in *children {
                b = b.u32(*c);
            }
            b = match op {
                0 => b.u8(0).u32(0).u32(0),
                1 => b.u8(1).u32(0),
                _ => b.u8(*op),
            };
        }
        b = b.u32(root).u32(0).u32(0).u32(nodes.len() as u32);
        for i in 0..nodes.len() as u32 {
            b = b.u32(i).u32(0);
        }
        b.u32(0).u64(0).u64(0).u8(0).0
    }

    #[test]
    fn key_material_and_scheme_tags_are_validated_at_decode() {
        // A HelloAck whose modulus could not wrap a session key used to
        // decode, and panicked the coordinator's first `seal`.
        let hello_ack = |n: &[u8], e: &[u8]| {
            let mut b = Bytes::default().u8(3).u32(1).0;
            write_bytes(&mut b, n);
            write_bytes(&mut b, e);
            Bytes(b).u64(0).0
        };
        assert!(decode_frame(&hello_ack(&[0xFF; 8], &[1, 0, 1])).is_none());
        assert!(decode_frame(&hello_ack(&[0xFF; 26], &[1, 0, 1])).is_none());
        assert!(decode_frame(&hello_ack(&[0xFE; 27], &[1, 0, 1])).is_none());
        assert!(decode_frame(&hello_ack(&[0xFF; 27], &[1])).is_none());
        assert!(decode_frame(&hello_ack(&[0xFF; 27], &[1, 0, 1])).is_some());

        // A scheme byte no scheme has: in a job's scheme list…
        let job_with_scheme = |tag: u8| {
            let mut f = execute_with_nodes(&[(&[], 0)], 0);
            // schemes: the empty list → one `(a0, tag)` entry.
            let at = 1 + 8 + 4 + (4 + 1 + 4 + 4) + 4;
            f.splice(at..at + 4, [0, 0, 0, 1, 0, 0, 0, 0, tag]);
            f
        };
        assert!(decode_frame(&job_with_scheme(3)).is_some());
        assert!(decode_frame(&job_with_scheme(4)).is_none());
        // …and in a ciphertext cell.
        let cell = |scheme: u8| {
            let mut f = Bytes::column(0).u32(1).0;
            write_bytes(&mut f, &[6, scheme, 0, 0, 0, 1, 0xAB]);
            f
        };
        assert!(decode_frame(&cell(3)).is_some());
        assert!(decode_frame(&cell(4)).is_none());
    }

    #[test]
    fn a_hello_ack_key_wider_than_the_cap_does_not_decode() {
        // The honest frame, built field by field, is what `encode_frame`
        // writes and decodes back to itself…
        let hello_ack = |n: &[u8], e: &[u8]| {
            let mut b = Bytes::default().u8(3).u32(1).0;
            write_bytes(&mut b, n);
            write_bytes(&mut b, e);
            Bytes(b).u64(u64::MAX - 1).0
        };
        let (n, e) = (golden_key().n.to_bytes_be(), golden_key().e.to_bytes_be());
        let honest = hello_ack(&n, &e);
        let frame = Frame::HelloAck {
            me: SubjectId(1),
            public: golden_key(),
            epoch: u64::MAX - 1,
        };
        assert_eq!(encode_frame(&frame), honest);
        assert_eq!(
            encode_frame(&decode_frame(&honest).expect("decodes")),
            honest
        );
        // …and with a 64 KiB modulus or exponent in place of its own it
        // does not decode: a public operation under it would cost
        // seconds, and a party reaches `verify` on every envelope.
        let huge = [0xFF; 64 << 10];
        for forged in [hello_ack(&huge, &e), hello_ack(&n, &huge)] {
            let start = std::time::Instant::now();
            assert!(decode_frame(&forged).is_none());
            assert!(start.elapsed() < std::time::Duration::from_millis(10));
        }
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
        // master alone.
        let c = back.paillier().encrypt(&mut rng, &m);
        assert_eq!(key.paillier().decrypt(&c), m);
        // Layout: id ‖ master ‖ modulus bits; a modulus size no key can
        // have fails the whole key.
        let bytes = key.to_bytes();
        assert_eq!(bytes.len(), 4 + 16 + 4);
        let mut tiny = bytes.clone();
        tiny[20..].copy_from_slice(&2u32.to_be_bytes());
        assert!(ClusterKey::from_bytes(&tiny).is_none());
        assert!(ClusterKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }
}
