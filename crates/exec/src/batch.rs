//! The column types of the data plane.
//!
//! A relation — whole or one bounded batch of it — is a
//! [`Table`](crate::table::Table): a shared [`TableSchema`] plus one
//! [`ColumnVec`] per output column. Operators stream tables of at most
//! [`ExecCtx::batch_rows`] rows instead of materializing whole
//! relations, so memory for the pipelined stages (scan, select,
//! project, encrypt, decrypt) is bounded by the batch size, not the
//! relation size — and they build their output by moving columns
//! ([`slice`](ColumnVec::slice), [`gather`](ColumnVec::gather),
//! [`append`](ColumnVec::append)), never by transposing rows.
//!
//! Columns are typed where the data allows. The plaintext ("P") half:
//! uniform integer, numeric and date columns are stored as dense
//! `Vec<i64>` / `Vec<f64>` / `Vec<Date>` (8 or 4 bytes per cell instead
//! of a 24-byte tagged [`Value`]), a uniform string column as one
//! [`StrColumn`] buffer (no `Arc` per cell). The encrypted half: a
//! column of ciphertexts under one `(scheme, key)` — what an `Encrypt`
//! produces and a provider computes on — is one [`EncColumn`] buffer
//! with NULL as the empty cell (no `Arc`, no repeated scheme and key id
//! per cell). Each silently degrades to a general `Vec<Value>`
//! representation the moment something it cannot hold is pushed: a
//! NULL or a cell of another type into a plaintext column, a plaintext
//! or a ciphertext under another key into an encrypted one.
//! Degradation never loses data and all accessors present the column as
//! logical [`Value`]s, so the representations are observationally
//! identical — `PartialEq` compares logical values, not
//! representations.
//!
//! [`ExecCtx::batch_rows`]: crate::engine::ExecCtx::batch_rows

use mpq_algebra::value::{int_hash_key, num_hash_key, CellRef, EncColumn, EncValue};
use mpq_algebra::{AttrId, Date, Value};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::Arc;

/// Rows per streamed batch unless [`ExecCtxBuilder::batch_rows`]
/// overrides it.
///
/// [`ExecCtxBuilder::batch_rows`]: crate::engine::ExecCtxBuilder::batch_rows
pub const DEFAULT_BATCH_ROWS: usize = 4096;

/// Ordered output columns of a relation or operator, cheap to clone
/// and share across every batch of a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSchema(Arc<[AttrId]>);

impl TableSchema {
    /// Schema over the given attribute order (attributes may repeat
    /// for multi-aggregate outputs).
    pub fn new(attrs: Vec<AttrId>) -> TableSchema {
        TableSchema(attrs.into())
    }

    /// The column attributes in order.
    pub fn attrs(&self) -> &[AttrId] {
        &self.0
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Index of the first column carrying `attr`.
    pub fn col_index(&self, attr: AttrId) -> Option<usize> {
        self.0.iter().position(|c| *c == attr)
    }
}

impl From<Vec<AttrId>> for TableSchema {
    fn from(attrs: Vec<AttrId>) -> Self {
        TableSchema::new(attrs)
    }
}

impl Default for TableSchema {
    fn default() -> Self {
        TableSchema::new(Vec::new())
    }
}

/// One column of cell values, densely typed when uniform.
///
/// `Int`, `Num`, `Date` and `Str` are the plaintext half: they hold
/// non-NULL plaintext cells of their one type and nothing else, so a
/// whole column of them is plaintext by construction (the audit needs
/// no cell scan to say so).
#[derive(Clone, Debug)]
pub enum ColumnVec {
    /// Uniform non-null integers.
    Int(Vec<i64>),
    /// Uniform non-null numerics.
    Num(Vec<f64>),
    /// Uniform non-null dates.
    Date(Vec<Date>),
    /// Uniform non-null strings, in one buffer.
    Str(StrColumn),
    /// Ciphertexts under one `(scheme, key)`, and NULLs.
    Enc(EncColumn),
    /// General representation: any mix of values, NULLs included.
    Val(Vec<Value>),
}

/// A column of non-NULL strings: the cells back to back in one UTF-8
/// buffer plus where each ends — Arrow's utf8 layout, with
/// [`EncColumn`]'s offset arithmetic. Cells are only ever pushed whole,
/// so every end lies on a character boundary and a cell is a plain
/// slice of the buffer.
#[derive(Clone, Debug, Default)]
pub struct StrColumn {
    /// `ends[i]` is where cell `i` stops in `text`; it starts where
    /// cell `i - 1` stopped.
    ends: Vec<u32>,
    text: String,
}

impl StrColumn {
    /// Empty column with room for `cells` cells of `bytes` bytes in all.
    fn with_capacity(cells: usize, bytes: usize) -> StrColumn {
        StrColumn {
            ends: Vec::with_capacity(cells),
            text: String::with_capacity(bytes),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize)
    }

    /// Cell `i`, where it lies.
    #[inline]
    pub fn cell(&self, i: usize) -> &str {
        &self.text[self.start(i)..self.ends[i] as usize]
    }

    /// The cells in `range`, in order: one pass over the offsets.
    pub fn cells(&self, range: Range<usize>) -> impl Iterator<Item = &str> + '_ {
        let mut start = self.start(range.start);
        self.ends[range].iter().map(move |&end| {
            let cell = &self.text[start..end as usize];
            start = end as usize;
            cell
        })
    }

    /// Cell `i` as a [`Text`]: its bytes where they lie, no character
    /// boundary to check — what comparing and hashing read.
    #[inline]
    pub(crate) fn text(&self, i: usize) -> Text<'_> {
        Text::within(self.text.as_bytes(), self.start(i), self.ends[i] as usize)
    }

    /// The cells in `range` as [`Text`]s, in order.
    pub(crate) fn texts(&self, range: Range<usize>) -> impl Iterator<Item = Text<'_>> + '_ {
        let (buf, mut start) = (self.text.as_bytes(), self.start(range.start));
        self.ends[range].iter().map(move |&end| {
            let cell = Text::within(buf, start, end as usize);
            start = end as usize;
            cell
        })
    }

    /// Append one cell.
    pub fn push(&mut self, s: &str) {
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("a string column stays under 4 GiB");
        self.ends.push(end);
    }

    /// Copy of the cells in `range`: two buffer copies.
    pub(crate) fn slice(&self, range: Range<usize>) -> StrColumn {
        let (from, to) = (self.start(range.start), self.start(range.end));
        StrColumn {
            ends: self.ends[range].iter().map(|&e| e - from as u32).collect(),
            text: self.text[from..to].to_owned(),
        }
    }

    /// The cells at `idx`, in `idx` order.
    fn gather(&self, idx: impl Iterator<Item = usize>) -> StrColumn {
        // Room for as many average-width cells as `idx` can yield.
        let cells = idx.size_hint().1.unwrap_or(0);
        let mut out = StrColumn::with_capacity(cells, self.text.len() / self.len().max(1) * cells);
        idx.for_each(|i| out.push(self.cell(i)));
        out
    }

    /// Append every cell of `other`.
    fn append(&mut self, other: &StrColumn) {
        let base = self.text.len();
        assert!(
            u32::try_from(base + other.text.len()).is_ok(),
            "a string column stays under 4 GiB"
        );
        self.text.push_str(&other.text);
        self.ends
            .extend(other.ends.iter().map(|&e| base as u32 + e));
    }
}

/// The secret of one key table's hash function: two words drawn from
/// [`RandomState`], so that a peer cannot prepare keys that collide.
/// No result depends on it — cells [`CellRef::key_eq`] holds equal hash
/// alike under every seed, and a collision costs one comparison.
#[derive(Clone, Copy, Debug)]
pub struct KeySeed(u64, u64);

impl Default for KeySeed {
    fn default() -> KeySeed {
        let state = RandomState::new();
        KeySeed(state.hash_one(0u8), state.hash_one(1u8))
    }
}

impl KeySeed {
    /// Fold `code` into the running hash `h`: the two halves of a
    /// 64 × 64 → 128-bit product, both operands masked by the seed.
    #[inline]
    fn mix(self, h: u64, code: u64) -> u64 {
        let wide = u128::from(h ^ self.0) * u128::from(code ^ self.1);
        (wide as u64) ^ ((wide >> 64) as u64)
    }

    /// A string's or a ciphertext's bytes, eight at a time; the last
    /// word carries what is left of them, the length and `kind`, so
    /// that neither padding nor a cell of another kind can collide.
    #[inline]
    fn bytes(self, h: u64, kind: u64, bytes: &[u8]) -> u64 {
        let mut words = bytes.chunks_exact(8);
        let h = words.by_ref().fold(h, |h, word| {
            self.mix(h, u64::from_le_bytes(word.try_into().expect("eight bytes")))
        });
        let rest = words.remainder().iter().rev();
        let last = rest.fold(bytes.len() as u64, |word, &b| (word << 8) | u64::from(b));
        self.mix(h, last ^ kind)
    }

    /// A string, as [`cell`](KeySeed::cell) folds one: a cell of under
    /// eight bytes as one word — its first word, its length above it —
    /// a longer one as its first word and then the rest of its bytes.
    #[inline]
    fn text(self, h: u64, cell: Text<'_>) -> u64 {
        const KIND: u64 = 0x51 << 56;
        match cell.bytes.get(8..) {
            None => self.mix(h, (cell.head | (cell.bytes.len() as u64) << 56) ^ KIND),
            Some(rest) => self.bytes(self.mix(h, cell.head), KIND, rest),
        }
    }

    /// Fold one cell into the running hash `h` of its row's key.
    #[inline]
    pub fn cell(self, h: u64, cell: CellRef<'_>) -> u64 {
        // One odd constant per kind keeps a date apart from the integer
        // of its day count; equal cells are of one kind (or numeric).
        match cell {
            CellRef::Null => self.mix(h, 0x9E37_79B9_7F4A_7C15),
            CellRef::Bool(b) => self.mix(h, 0xBF58_476D_1CE4_E5B9 ^ u64::from(b)),
            // Whatever numerics are equal hash as one integer.
            CellRef::Int(i) => self.mix(h, int_hash_key(i) as u64),
            CellRef::Num(f) => self.mix(h, num_hash_key(f).map_or(f.to_bits(), |i| i as u64)),
            CellRef::Str(s) => self.text(h, Text::new(s.as_bytes())),
            CellRef::Date(d) => self.mix(h, 0x94D0_49BB_1331_11EB ^ d.0 as u64),
            CellRef::Enc(_, key, bytes) => self.bytes(h, (0xE7 << 56) ^ u64::from(key), bytes),
        }
    }
}

/// [`CellRef::key_eq`] between the cells of two columns, viewed through
/// their representations: two columns of one typed kind compare their
/// cells as bytes, integers or days — what `key_eq` says of two cells of
/// that kind — and every other pair goes to `key_eq` itself.
#[derive(Clone, Copy)]
pub(crate) enum KeyEq<'a> {
    Str(&'a StrColumn, &'a StrColumn),
    Int(&'a [i64], &'a [i64]),
    Date(&'a [Date], &'a [Date]),
    Cell(&'a ColumnVec, &'a ColumnVec),
}

impl KeyEq<'_> {
    /// Cell `i` of the first column and cell `j` of the second are one
    /// key.
    #[inline]
    pub(crate) fn eq(self, i: usize, j: usize) -> bool {
        match self {
            KeyEq::Str(a, b) => a.text(i) == b.text(j),
            KeyEq::Int(a, b) => a[i] == b[j],
            KeyEq::Date(a, b) => a[i] == b[j],
            KeyEq::Cell(a, b) => a.cell_ref(i).key_eq(b.cell_ref(j)),
        }
    }

    /// Keep the pairs `(i, j)` that are one key, in order: one typed
    /// loop, the representations picked once.
    pub(crate) fn retain(self, pairs: &mut Vec<(usize, usize)>) {
        match self {
            KeyEq::Str(a, b) => pairs.retain(|&(i, j)| a.text(i) == b.text(j)),
            KeyEq::Int(a, b) => pairs.retain(|&(i, j)| a[i] == b[j]),
            KeyEq::Date(a, b) => pairs.retain(|&(i, j)| a[i] == b[j]),
            KeyEq::Cell(a, b) => pairs.retain(|&(i, j)| a.cell_ref(i).key_eq(b.cell_ref(j))),
        }
    }
}

/// A string cell as bytes, with its first eight packed into one word
/// (little-endian, zero past the cell): ordered as `&str` orders, and
/// equal when the lengths and the first words are — one comparison each,
/// no branch on a byte — and then the rest of a longer cell.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Text<'a> {
    head: u64,
    bytes: &'a [u8],
}

impl<'a> Text<'a> {
    /// A cell of its own (a literal).
    pub(crate) fn new(bytes: &'a [u8]) -> Text<'a> {
        let head = (bytes.iter().take(8).rev()).fold(0, |word, &b| (word << 8) | u64::from(b));
        Text { head, bytes }
    }

    /// The cell `buf[start..end]`, its first word read in one load
    /// wherever eight bytes from `start` lie in `buf`.
    #[inline]
    fn within(buf: &'a [u8], start: usize, end: usize) -> Text<'a> {
        let bytes = &buf[start..end];
        match buf.get(start..start + 8) {
            Some(word) => {
                let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
                let len = bytes.len().min(8) as u32;
                let head = word & u64::MAX.checked_shr(64 - 8 * len).unwrap_or(0);
                Text { head, bytes }
            }
            None => Text::new(bytes),
        }
    }
}

impl PartialEq for Text<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        let head = (self.bytes.len() == other.bytes.len()) & (self.head == other.head);
        match self.bytes.get(8..) {
            None | Some([]) => head,
            Some(rest) => head && rest == &other.bytes[8..],
        }
    }
}

impl PartialOrd for Text<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.bytes.cmp(other.bytes))
    }
}

/// `true` when `cell` is one an encrypted column under `col`'s header
/// can hold. The empty ciphertext cannot: there it reads back as NULL.
fn holds(col: &EncColumn, cell: &EncValue) -> bool {
    (col.scheme(), col.key_id()) == (cell.scheme, cell.key_id) && !cell.bytes.is_empty()
}

impl Default for ColumnVec {
    fn default() -> Self {
        ColumnVec::Val(Vec::new())
    }
}

impl ColumnVec {
    /// Empty column (typed on first push).
    pub fn new() -> ColumnVec {
        ColumnVec::default()
    }

    /// Empty column with room for `n` cells.
    pub fn with_capacity(n: usize) -> ColumnVec {
        ColumnVec::Val(Vec::with_capacity(n))
    }

    /// Dense integer column.
    pub fn from_ints(v: Vec<i64>) -> ColumnVec {
        ColumnVec::Int(v)
    }

    /// Dense numeric column.
    pub fn from_nums(v: Vec<f64>) -> ColumnVec {
        ColumnVec::Num(v)
    }

    /// Column from logical values, densifying when they are all
    /// integers, all numerics, all dates or all strings (a column of
    /// ciphertexts stays general: it could hold several keys).
    pub fn from_values(vals: Vec<Value>) -> ColumnVec {
        let kind = |v: &Value| std::mem::discriminant(v);
        match vals.first() {
            Some(Value::Int(_) | Value::Num(_) | Value::Date(_) | Value::Str(_))
                if vals.iter().all(|v| kind(v) == kind(&vals[0])) =>
            {
                vals.into_iter().collect()
            }
            _ => ColumnVec::Val(vals),
        }
    }

    /// `n` copies of `v`, held as pushing them one by one holds them:
    /// a dense column is filled in one step.
    pub(crate) fn repeat(v: &Value, n: usize) -> ColumnVec {
        match v {
            _ if n == 0 => ColumnVec::new(),
            Value::Int(x) => ColumnVec::Int(vec![*x; n]),
            Value::Num(x) => ColumnVec::Num(vec![*x; n]),
            Value::Date(d) => ColumnVec::Date(vec![*d; n]),
            Value::Str(s) => {
                let mut text = StrColumn::with_capacity(n, n * s.len());
                (0..n).for_each(|_| text.push(s));
                ColumnVec::Str(text)
            }
            _ => std::iter::repeat_n(v, n).cloned().collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len(),
            ColumnVec::Num(v) => v.len(),
            ColumnVec::Date(v) => v.len(),
            ColumnVec::Str(c) => c.len(),
            ColumnVec::Enc(c) => c.len(),
            ColumnVec::Val(v) => v.len(),
        }
    }

    /// `true` when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell `i` as a logical value: dense cells copy eight bytes,
    /// general cells bump an `Arc`, a string or an encrypted column's
    /// cell is copied out into a value of its own — the scalar path
    /// (a new group's key, the row oracle). Loops over a column read
    /// [`cell_ref`](ColumnVec::cell_ref) instead.
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnVec::Val(v) => v[i].clone(),
            _ => self.cell_ref(i).into(),
        }
    }

    /// Cell `i` where it lies: nothing is copied out but a scalar.
    #[inline]
    pub fn cell_ref(&self, i: usize) -> CellRef<'_> {
        match self {
            ColumnVec::Int(v) => CellRef::Int(v[i]),
            ColumnVec::Num(v) => CellRef::Num(v[i]),
            ColumnVec::Date(v) => CellRef::Date(v[i]),
            ColumnVec::Str(c) => CellRef::Str(c.cell(i)),
            ColumnVec::Enc(c) => match c.cell(i) {
                [] => CellRef::Null,
                cell => CellRef::Enc(c.scheme(), c.key_id(), cell),
            },
            ColumnVec::Val(v) => (&v[i]).into(),
        }
    }

    /// Fold the cells `rows` of this key column into `hashes`, the
    /// running key hash of each of those rows: one typed loop per
    /// representation, every cell read where it lies.
    pub(crate) fn hash_keys(&self, rows: Range<usize>, seed: KeySeed, hashes: &mut [u64]) {
        let hashes = hashes.iter_mut();
        match self {
            ColumnVec::Int(v) => {
                (hashes.zip(&v[rows])).for_each(|(h, &i)| *h = seed.cell(*h, CellRef::Int(i)))
            }
            ColumnVec::Num(v) => {
                (hashes.zip(&v[rows])).for_each(|(h, &f)| *h = seed.cell(*h, CellRef::Num(f)))
            }
            ColumnVec::Date(v) => {
                (hashes.zip(&v[rows])).for_each(|(h, &d)| *h = seed.cell(*h, CellRef::Date(d)))
            }
            ColumnVec::Str(c) => {
                (hashes.zip(c.texts(rows))).for_each(|(h, s)| *h = seed.text(*h, s))
            }
            _ => hashes
                .zip(rows)
                .for_each(|(h, r)| *h = seed.cell(*h, self.cell_ref(r))),
        }
    }

    /// How a cell of this column and one of `held` are compared as keys,
    /// picked once for the two columns.
    pub(crate) fn key_eq_with<'a>(&'a self, held: &'a ColumnVec) -> KeyEq<'a> {
        match (self, held) {
            (ColumnVec::Str(a), ColumnVec::Str(b)) => KeyEq::Str(a, b),
            (ColumnVec::Int(a), ColumnVec::Int(b)) => KeyEq::Int(a, b),
            (ColumnVec::Date(a), ColumnVec::Date(b)) => KeyEq::Date(a, b),
            _ => KeyEq::Cell(self, held),
        }
    }

    /// Whether each row `r` of this key column holds the key of its
    /// candidate group `gid[r]`: cell `gid[r]` of `held` for a group held
    /// before the batch, else this column's cell at the row that opened
    /// the group (`openers`, numbered on from `held.len()`). One
    /// sequential pass in the column's representation; a `Str` column
    /// walks its offsets once and compares bytes with each group's key,
    /// read once per batch.
    pub(crate) fn holds_keys(&self, held: &ColumnVec, openers: &[usize], gid: &[u32]) -> bool {
        let before = held.len();
        // No row names a held group when there is none: any column of
        // this one's representation stands in.
        let held = if before == 0 { self } else { held };
        let key = |g: u32| (g as usize).checked_sub(before).map(|new| openers[new]);
        match (self, held) {
            (ColumnVec::Str(a), ColumnVec::Str(b)) if before <= a.len() => {
                // Each group's key read once: there are no more groups
                // than rows.
                let refs = (b.texts(0..before)).chain(openers.iter().map(|&r| a.text(r)));
                let refs: Vec<Text> = refs.collect();
                (a.texts(0..a.len()).zip(gid)).all(|(cell, &g)| cell == refs[g as usize])
            }
            (ColumnVec::Int(a), ColumnVec::Int(b)) => (a.iter().zip(gid))
                .all(|(cell, &g)| *cell == key(g).map_or_else(|| b[g as usize], |r| a[r])),
            (ColumnVec::Date(a), ColumnVec::Date(b)) => (a.iter().zip(gid))
                .all(|(cell, &g)| *cell == key(g).map_or_else(|| b[g as usize], |r| a[r])),
            _ => gid.iter().enumerate().all(|(r, &g)| {
                let other = key(g).map_or_else(|| held.cell_ref(g as usize), |o| self.cell_ref(o));
                self.cell_ref(r).key_eq(other)
            }),
        }
    }

    /// Whether cell `i` is NULL, without materializing it.
    pub fn is_null(&self, i: usize) -> bool {
        matches!(self.cell_ref(i), CellRef::Null)
    }

    /// Whether cell `i` is a ciphertext, without materializing it.
    pub(crate) fn is_enc(&self, i: usize) -> bool {
        matches!(self.cell_ref(i), CellRef::Enc(..))
    }

    /// The order a sort puts cells `i` and `j` in, read where they lie:
    /// [`CellRef::sort_cmp`], a total order — NULLs last (within one
    /// encrypted column only an order-preserving scheme orders
    /// anything). Typed columns compare in place.
    pub fn sort_cmp(&self, i: usize, j: usize) -> Ordering {
        match self {
            ColumnVec::Int(v) => v[i].cmp(&v[j]),
            ColumnVec::Date(v) => v[i].cmp(&v[j]),
            // Byte order, as `sql_cmp` orders strings.
            ColumnVec::Str(c) => c.text(i).bytes.cmp(c.text(j).bytes),
            _ => self.cell_ref(i).sort_cmp(self.cell_ref(j)),
        }
    }

    /// Iterate the cells as logical values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Append one cell, upgrading an empty column to a typed
    /// representation and degrading a typed column on mismatch.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ColumnVec::Int(col), Value::Int(i)) => col.push(i),
            (ColumnVec::Num(col), Value::Num(f)) => col.push(f),
            (ColumnVec::Date(col), Value::Date(d)) => col.push(d),
            (ColumnVec::Str(col), Value::Str(s)) => col.push(&s),
            (ColumnVec::Enc(col), Value::Null) => col.push(&[]),
            (ColumnVec::Enc(col), Value::Enc(e)) if holds(col, &e) => col.push(&e.bytes),
            (ColumnVec::Val(col), Value::Int(i)) if col.is_empty() => {
                *self = ColumnVec::Int(vec![i]);
            }
            (ColumnVec::Val(col), Value::Num(f)) if col.is_empty() => {
                *self = ColumnVec::Num(vec![f]);
            }
            (ColumnVec::Val(col), Value::Date(d)) if col.is_empty() => {
                *self = ColumnVec::Date(vec![d]);
            }
            (ColumnVec::Val(col), Value::Str(s)) if col.is_empty() => {
                let mut text = StrColumn::default();
                text.push(&s);
                *self = ColumnVec::Str(text);
            }
            (ColumnVec::Val(col), Value::Enc(e)) if col.is_empty() && !e.bytes.is_empty() => {
                let mut enc = EncColumn::new(e.scheme, e.key_id);
                enc.push(&e.bytes);
                *self = ColumnVec::Enc(enc);
            }
            (ColumnVec::Val(col), v) => col.push(v),
            (_, v) => {
                self.degrade();
                match self {
                    ColumnVec::Val(col) => col.push(v),
                    _ => unreachable!("degraded above"),
                }
            }
        }
    }

    /// Rewrite in the general representation, which holds anything.
    fn degrade(&mut self) {
        *self = ColumnVec::Val(std::mem::take(self).into_values());
    }

    /// Consume into logical values.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            ColumnVec::Int(v) => v.into_iter().map(Value::Int).collect(),
            ColumnVec::Num(v) => v.into_iter().map(Value::Num).collect(),
            ColumnVec::Date(v) => v.into_iter().map(Value::Date).collect(),
            ColumnVec::Val(v) => v,
            // A string or a ciphertext is copied out cell by cell.
            ColumnVec::Str(_) | ColumnVec::Enc(_) => self.iter().collect(),
        }
    }

    /// Copy of the cells in `range`: a buffer copy per representation.
    pub fn slice(&self, range: Range<usize>) -> ColumnVec {
        match self {
            ColumnVec::Int(v) => ColumnVec::Int(v[range].to_vec()),
            ColumnVec::Num(v) => ColumnVec::Num(v[range].to_vec()),
            ColumnVec::Date(v) => ColumnVec::Date(v[range].to_vec()),
            ColumnVec::Str(c) => ColumnVec::Str(c.slice(range)),
            ColumnVec::Enc(c) => ColumnVec::Enc(c.slice(range)),
            ColumnVec::Val(v) => ColumnVec::Val(v[range].to_vec()),
        }
    }

    /// Cells at `idx`, in `idx` order (sort permutations, join and
    /// product outputs). Indices may repeat.
    pub fn gather(&self, idx: &[usize]) -> ColumnVec {
        self.gather_iter(idx.iter().copied())
    }

    /// [`gather`](ColumnVec::gather) with NULL where `idx` holds `None`
    /// (outer-join padding). An encrypted column pads with its empty
    /// cell; a plaintext column degrades, and only when a pad actually
    /// occurs.
    pub(crate) fn gather_padded(&self, idx: &[Option<usize>]) -> ColumnVec {
        if let ColumnVec::Enc(c) = self {
            return ColumnVec::Enc(c.gather(idx.iter().copied()));
        }
        if idx.iter().all(Option::is_some) {
            return self.gather_iter(idx.iter().flatten().copied());
        }
        ColumnVec::Val(
            idx.iter()
                .map(|i| i.map_or(Value::Null, |i| self.get(i)))
                .collect(),
        )
    }

    fn gather_iter(&self, idx: impl Iterator<Item = usize>) -> ColumnVec {
        match self {
            ColumnVec::Int(v) => ColumnVec::Int(idx.map(|i| v[i]).collect()),
            ColumnVec::Num(v) => ColumnVec::Num(idx.map(|i| v[i]).collect()),
            ColumnVec::Date(v) => ColumnVec::Date(idx.map(|i| v[i]).collect()),
            ColumnVec::Str(c) => ColumnVec::Str(c.gather(idx)),
            ColumnVec::Enc(c) => ColumnVec::Enc(c.gather(idx.map(Some))),
            ColumnVec::Val(v) => ColumnVec::Val(idx.map(|i| v[i].clone()).collect()),
        }
    }

    /// Append all cells of `other`, degrading on representation
    /// mismatch.
    pub fn append(&mut self, other: ColumnVec) {
        match (&mut *self, other) {
            (ColumnVec::Int(a), ColumnVec::Int(b)) => a.extend(b),
            (ColumnVec::Num(a), ColumnVec::Num(b)) => a.extend(b),
            (ColumnVec::Date(a), ColumnVec::Date(b)) => a.extend(b),
            (ColumnVec::Str(a), ColumnVec::Str(b)) => a.append(&b),
            (ColumnVec::Enc(a), ColumnVec::Enc(b))
                if (a.scheme(), a.key_id()) == (b.scheme(), b.key_id()) =>
            {
                a.append(&b)
            }
            (a, other) if a.is_empty() => *self = other,
            (_, other) => {
                self.degrade();
                match self {
                    ColumnVec::Val(a) => a.extend(other.into_values()),
                    _ => unreachable!("degraded above"),
                }
            }
        }
    }

    /// Total payload bytes, matching the sum of [`Value::width`] over
    /// the cells (drives the distributed network-cost accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len() * 8,
            ColumnVec::Num(v) => v.len() * 8,
            ColumnVec::Date(v) => v.len() * 4,
            ColumnVec::Str(c) => c.text.len(),
            ColumnVec::Enc(c) => c.byte_size(),
            ColumnVec::Val(v) => v.iter().map(Value::width).sum(),
        }
    }
}

impl PartialEq for ColumnVec {
    /// Logical equality: dense and general representations of the
    /// same cells compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

impl FromIterator<Value> for ColumnVec {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        let mut col = ColumnVec::new();
        for v in iter {
            col.push(v);
        }
        col
    }
}

#[cfg(test)]
impl KeySeed {
    /// The seed under which every key hashes to 0: comparing cells in
    /// place is then all that tells keys apart.
    pub(crate) fn colliding() -> KeySeed {
        KeySeed(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn dense_columns_degrade_on_mixed_push() {
        let mut c = ColumnVec::new();
        c.push(Value::Int(1));
        c.push(Value::Int(2));
        assert!(matches!(c, ColumnVec::Int(_)), "uniform ints stay dense");
        c.push(Value::Null);
        assert!(!matches!(c, ColumnVec::Int(_)));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert!(c.get(2).is_null());
    }

    #[test]
    fn logical_equality_ignores_representation() {
        let dense = ColumnVec::from_ints(vec![1, 2, 3]);
        let general = ColumnVec::Val(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(dense, general);
        assert_eq!(dense.byte_size(), general.byte_size());
    }

    #[test]
    fn from_values_densifies_uniform_data() {
        let c = ColumnVec::from_values(vec![Value::Num(1.5), Value::Num(2.5)]);
        assert!(
            matches!(&c, ColumnVec::Num(v) if v[..] == [1.5, 2.5]),
            "{c:?}"
        );
        let mixed = ColumnVec::from_values(vec![Value::Num(1.5), Value::Null]);
        assert!(!matches!(mixed, ColumnVec::Num(_)));
    }

    #[test]
    fn gather_slice_append() {
        let c = ColumnVec::from_ints(vec![10, 20, 30, 40]);
        assert_eq!(c.gather(&[3, 0]), ColumnVec::from_ints(vec![40, 10]));
        // Padding degrades a dense column only when a pad occurs.
        assert!(matches!(
            c.gather_padded(&[Some(3), Some(3)]),
            ColumnVec::Int(_)
        ));
        let padded = c.gather_padded(&[Some(1), None]);
        assert_eq!(padded, ColumnVec::Val(vec![Value::Int(20), Value::Null]));
        assert_eq!(c.slice(1..3), ColumnVec::from_ints(vec![20, 30]));
        let mut a = ColumnVec::from_ints(vec![1]);
        a.append(ColumnVec::Val(vec![Value::str("x")]));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(1), Value::str("x"));
    }

    /// A selection gathered from a dense column keeps what the general
    /// representation of the same cells keeps, and stays dense — under
    /// random, full, empty and zero-row selections.
    #[test]
    fn a_selected_dense_column_is_the_general_selection() {
        let rng = &mut StdRng::seed_from_u64(17);
        for n in [0, 1, 7, 100, 4096] {
            let columns = [
                ColumnVec::Int((0..n).map(|_| rng.gen_range(-9..9)).collect()),
                ColumnVec::Num((0..n).map(|_| rng.gen_range(-9.0..9.0)).collect()),
                ColumnVec::Date((0..n).map(|_| Date(rng.gen_range(-9..9))).collect()),
            ];
            let selections = [
                (0..n).filter(|_| rng.gen()).collect::<Vec<usize>>(),
                (0..n).collect(),
                Vec::new(),
            ];
            for (col, sel) in columns
                .iter()
                .flat_map(|c| selections.iter().map(move |s| (c, s)))
            {
                let kept = col.gather(sel);
                let general = ColumnVec::Val(col.clone().into_values()).gather(sel);
                assert_same(&kept, &general, "selection");
                assert_eq!(kept.len(), sel.len());
                let kind = std::mem::discriminant;
                assert_eq!(kind(&kept), kind(col), "stays dense");
            }
        }
    }

    /// A literal repeated over a batch is held as pushing its cells one
    /// by one would hold them.
    #[test]
    fn a_repeated_literal_is_held_as_its_pushed_cells() {
        let det = cipher(EncScheme::Deterministic, 1, &[3, 4]);
        for v in [
            Value::Int(7),
            Value::Num(-0.5),
            Value::Date(Date(3)),
            Value::str("ünï"),
            Value::str(""),
            Value::Null,
            Value::Bool(true),
            det,
        ] {
            for n in [0, 1, 5] {
                let repeated = ColumnVec::repeat(&v, n);
                let pushed: ColumnVec = std::iter::repeat_n(v.clone(), n).collect();
                let kind = std::mem::discriminant;
                assert_eq!(kind(&repeated), kind(&pushed), "{v:?} × {n}");
                assert_same(&repeated, &pushed, "repeat");
            }
        }
    }

    use mpq_algebra::value::EncScheme;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cipher(scheme: EncScheme, key_id: u32, bytes: &[u8]) -> Value {
        Value::Enc(EncValue {
            scheme,
            key_id,
            bytes: Arc::from(bytes),
        })
    }

    /// Random cells under `(Deterministic, key 5)`, NULL at a rate of
    /// `nulls` in ten; the first cell is a ciphertext, so collecting
    /// them yields the encrypted representation.
    fn gen_cells(rng: &mut StdRng, n: usize, nulls: u32) -> Vec<Value> {
        (0..n)
            .map(|i| {
                if i > 0 && rng.gen_range(0..10) < nulls {
                    return Value::Null;
                }
                let width = rng.gen_range(1..40);
                let bytes: Vec<u8> = (0..width).map(|_| rng.gen()).collect();
                cipher(EncScheme::Deterministic, 5, &bytes)
            })
            .collect()
    }

    /// Both representations of the same cells.
    fn both(cells: &[Value]) -> (ColumnVec, ColumnVec) {
        let enc: ColumnVec = cells.iter().cloned().collect();
        assert!(matches!(enc, ColumnVec::Enc(_)));
        (enc, ColumnVec::Val(cells.to_vec()))
    }

    /// Same cells, same accounted bytes — whatever either side is held as.
    fn assert_same(a: &ColumnVec, b: &ColumnVec, what: &str) {
        assert_eq!(a, b, "{what}");
        assert_eq!(a.byte_size(), b.byte_size(), "{what}: bytes");
        let nulls = |c: &ColumnVec| (0..c.len()).map(|i| c.is_null(i)).collect::<Vec<_>>();
        assert_eq!(nulls(a), nulls(b), "{what}: nulls");
    }

    #[test]
    fn the_encrypted_representation_is_invisible() {
        for seed in 0..60 {
            let rng = &mut StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..50);
            let cells = gen_cells(rng, n, [0, 3, 9][seed as usize % 3]);
            let (enc, val) = both(&cells);
            assert_same(&enc, &val, "as built");
            assert_eq!(enc.clone().into_values(), cells);
            assert_eq!(enc.iter().collect::<Vec<_>>(), cells);
            let bytes: usize = cells.iter().map(Value::width).sum();
            assert_eq!(enc.byte_size(), bytes);

            let (from, to) = (rng.gen_range(0..=n), rng.gen_range(0..=n));
            let range = from.min(to)..from.max(to);
            assert_same(&enc.slice(range.clone()), &val.slice(range), "slice");
            let kept: Vec<usize> = (0..n).filter(|_| rng.gen()).collect();
            assert_same(&enc.gather(&kept), &val.gather(&kept), "selection");
            let idx: Vec<usize> = (0..rng.gen_range(0..80))
                .map(|_| rng.gen_range(0..n))
                .collect();
            assert_same(&enc.gather(&idx), &val.gather(&idx), "gather");
            let padded: Vec<Option<usize>> = (idx.iter())
                .map(|&i| rng.gen::<bool>().then_some(i))
                .collect();
            let gathered = enc.gather_padded(&padded);
            assert_same(&gathered, &val.gather_padded(&padded), "gather_padded");
            // An outer join's pads are empty cells, not a degradation.
            assert!(matches!(gathered, ColumnVec::Enc(_)));

            // Appending: the same key extends the buffer, anything else
            // degrades — and the cells are the concatenation either way.
            let more_len = rng.gen_range(1..20);
            let more = gen_cells(rng, more_len, 3);
            let other_key = vec![cipher(EncScheme::Deterministic, 6, &[1, 2, 3])];
            let plain = vec![Value::Int(4), Value::Null];
            for (tail, stays) in [(&more, true), (&other_key, false), (&plain, false)] {
                let (mut a, mut b) = both(&cells);
                let (tail_enc, tail_val) = (tail.iter().cloned().collect(), tail.to_vec());
                a.append(tail_enc);
                b.append(ColumnVec::Val(tail_val));
                assert_same(&a, &b, "append");
                assert_eq!(a.len(), n + tail.len());
                assert_eq!(matches!(a, ColumnVec::Enc(_)), stays);
                // …and cell by cell.
                let (mut a, mut b) = both(&cells);
                for v in tail {
                    a.push(v.clone());
                    b.push(v.clone());
                }
                assert_same(&a, &b, "push");
                assert_eq!(matches!(a, ColumnVec::Enc(_)), stays);
            }
        }
    }

    /// Random strings — the empty one and multi-byte UTF-8 among them —
    /// or random dates: what a typed plaintext column holds.
    fn gen_plain(rng: &mut StdRng, n: usize, dates: bool) -> Vec<Value> {
        const WORDS: [&str; 6] = ["", "a", "ü", "日本語", "R", "MAIL SHIP"];
        let word = |rng: &mut StdRng| WORDS[rng.gen_range(0..WORDS.len())];
        (0..n)
            .map(|_| match dates {
                true => Value::Date(Date(rng.gen_range(-3..4) * 1_000)),
                false => Value::str(
                    &(0..rng.gen_range(0..3))
                        .map(|_| word(rng))
                        .collect::<String>(),
                ),
            })
            .collect()
    }

    fn is_typed(col: &ColumnVec, dates: bool) -> bool {
        matches!(
            (col, dates),
            (ColumnVec::Date(_), true) | (ColumnVec::Str(_), false)
        )
    }

    /// `Str` and `Date` answer every question as `Val` holding the same
    /// cells does, and degrade exactly when a NULL or a cell of another
    /// type arrives.
    #[test]
    fn typed_text_and_date_columns_are_invisible() {
        let seed = KeySeed::default();
        let hashed = |col: &ColumnVec, rows: Range<usize>| {
            let mut hashes = vec![0; rows.len()];
            col.hash_keys(rows, seed, &mut hashes);
            hashes
        };
        for case in 0..80 {
            let rng = &mut StdRng::seed_from_u64(case);
            let n = rng.gen_range(1..50);
            let dates = case % 2 == 0;
            let cells = gen_plain(rng, n, dates);
            let typed: ColumnVec = cells.iter().cloned().collect();
            let val = ColumnVec::Val(cells.clone());
            assert!(is_typed(&typed, dates));
            assert!(is_typed(&ColumnVec::from_values(cells.clone()), dates));
            assert_same(&typed, &val, "as built");
            assert_eq!(typed.clone().into_values(), cells);
            assert_eq!(typed.iter().collect::<Vec<_>>(), cells);
            let bytes: usize = cells.iter().map(Value::width).sum();
            assert_eq!(typed.byte_size(), bytes);
            for (i, cell) in cells.iter().enumerate() {
                assert_eq!(&Value::from(typed.cell_ref(i)), cell);
                assert_eq!(&typed.get(i), cell);
                for j in 0..n {
                    assert_eq!(typed.sort_cmp(i, j), val.sort_cmp(i, j));
                }
            }

            let (from, to) = (rng.gen_range(0..=n), rng.gen_range(0..=n));
            let range = from.min(to)..from.max(to);
            assert_eq!(hashed(&typed, range.clone()), hashed(&val, range.clone()));
            let sliced = typed.slice(range.clone());
            assert_same(&sliced, &val.slice(range), "slice");
            assert!(is_typed(&sliced, dates));
            let kept: Vec<usize> = (0..n).filter(|_| rng.gen()).collect();
            let selected = typed.gather(&kept);
            assert_same(&selected, &val.gather(&kept), "selection");
            assert!(is_typed(&selected, dates));
            let idx: Vec<usize> = (0..rng.gen_range(0..80))
                .map(|_| rng.gen_range(0..n))
                .collect();
            assert_same(&typed.gather(&idx), &val.gather(&idx), "gather");
            let padded: Vec<Option<usize>> = (idx.iter())
                .map(|&i| rng.gen::<bool>().then_some(i))
                .collect();
            let gathered = typed.gather_padded(&padded);
            assert_same(&gathered, &val.gather_padded(&padded), "gather_padded");
            // A pad is a NULL, which only the general representation holds.
            assert_eq!(
                is_typed(&gathered, dates),
                padded.iter().all(Option::is_some)
            );

            // Appending cells of the same type extends the buffer; a
            // NULL or a foreign cell degrades — and the cells are the
            // concatenation either way.
            let more_len = rng.gen_range(1..20);
            let more = gen_plain(rng, more_len, dates);
            let with_null = vec![more[0].clone(), Value::Null];
            let foreign = vec![match dates {
                true => Value::str("x"),
                false => Value::Date(Date(1)),
            }];
            for (tail, stays) in [(&more, true), (&with_null, false), (&foreign, false)] {
                let mut a: ColumnVec = cells.iter().cloned().collect();
                let mut b = val.clone();
                a.append(tail.iter().cloned().collect());
                b.append(ColumnVec::Val(tail.to_vec()));
                assert_same(&a, &b, "append");
                assert_eq!(a.len(), n + tail.len());
                assert_eq!(is_typed(&a, dates), stays);
                // …and cell by cell.
                let mut a: ColumnVec = cells.iter().cloned().collect();
                let mut b = val.clone();
                for v in tail {
                    a.push(v.clone());
                    b.push(v.clone());
                }
                assert_same(&a, &b, "push");
                assert_eq!(is_typed(&a, dates), stays);
            }
        }
    }

    /// The kernels that read cells where they lie answer as the
    /// general representation does through `Value`.
    #[test]
    fn in_place_kernels_agree_across_representations() {
        let rng = &mut StdRng::seed_from_u64(3);
        for scheme in [EncScheme::Ope, EncScheme::Deterministic] {
            let mut cells = vec![cipher(scheme, 1, &[9])];
            cells.extend((0..30).map(|_| match rng.gen_range(0..4) {
                0 => Value::Null,
                _ => cipher(scheme, 1, &[rng.gen_range(0..3), rng.gen_range(0..3)]),
            }));
            let (enc, val) = both(&cells);
            for i in 0..cells.len() {
                assert_eq!(enc.is_enc(i), val.is_enc(i));
                assert_eq!(enc.is_enc(i), !cells[i].is_null());
                for j in 0..cells.len() {
                    assert_eq!(enc.sort_cmp(i, j), val.sort_cmp(i, j), "{scheme:?}");
                }
            }
        }
        // NULLs last, NaN after the numbers, dense cells by value.
        let nums = ColumnVec::from_nums(vec![2.0, f64::NAN, 1.0]);
        assert_eq!(nums.sort_cmp(0, 2), Ordering::Greater);
        assert_eq!(nums.sort_cmp(0, 1), Ordering::Less);
        let vals = ColumnVec::Val(vec![Value::Null, Value::str("a"), Value::Null]);
        assert_eq!(vals.sort_cmp(0, 1), Ordering::Greater);
        assert_eq!(vals.sort_cmp(1, 0), Ordering::Less);
        assert_eq!(vals.sort_cmp(0, 2), Ordering::Equal);
    }

    /// A sort over cells of every kind sees a total order — holding
    /// incomparable cells equal made it intransitive (`1 < 2`, yet both
    /// "equal" `'a'`), and the standard sort panics on that — which
    /// agrees with `sql_cmp` wherever that orders two cells.
    #[test]
    fn the_sort_order_is_total_over_every_kind_of_cell() {
        let rng = &mut StdRng::seed_from_u64(5);
        let cells: Vec<Value> = (0..48)
            .map(|_| match rng.gen_range(0..9) {
                0 => Value::Null,
                1 => Value::Bool(rng.gen()),
                2 => Value::Int([-1, 2, i64::MAX, i64::MAX - 1][rng.gen_range(0..4)]),
                3 => Value::Num([f64::NAN, -0.0, 0.0, 2.0, i64::MAX as f64][rng.gen_range(0..5)]),
                4 => Value::str(["", "a", "ü"][rng.gen_range(0..3)]),
                5 => Value::Date(Date(rng.gen_range(-1..2))),
                6 => cipher(EncScheme::Ope, rng.gen_range(1..3), &[rng.gen_range(0..3)]),
                7 => cipher(EncScheme::Deterministic, 1, &[rng.gen_range(0..3)]),
                _ => cipher(EncScheme::Random, 1, &[rng.gen_range(0..3)]),
            })
            .collect();
        let col = ColumnVec::Val(cells.clone());
        let n = cells.len();
        for i in 0..n {
            for j in 0..n {
                let ij = col.sort_cmp(i, j);
                assert_eq!(
                    ij,
                    col.sort_cmp(j, i).reverse(),
                    "{:?} {:?}",
                    cells[i],
                    cells[j]
                );
                if let Some(exact) = cells[i].sql_cmp(&cells[j]) {
                    let huge = |v: &Value| v.as_num().is_some_and(|x| x.abs() >= 2f64.powi(53));
                    if !huge(&cells[i]) && !huge(&cells[j]) {
                        assert_eq!(ij, exact, "{:?} {:?}", cells[i], cells[j]);
                    }
                }
                for k in 0..n {
                    if ij != Ordering::Greater && col.sort_cmp(j, k) != Ordering::Greater {
                        assert_ne!(col.sort_cmp(i, k), Ordering::Greater, "{i} {j} {k}");
                    }
                }
            }
        }
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by(|&a, &b| col.sort_cmp(a, b));
        assert!(cells[perm[n - 1]].is_null());
    }

    /// Cells that are equal as keys hash alike however their column
    /// holds them — dense, general or one ciphertext buffer — and
    /// whichever numeric representation they are in; unequal ones
    /// (almost surely) do not.
    #[test]
    fn equal_keys_hash_alike_in_every_representation() {
        let seed = KeySeed::default();
        let hashed = |col: &ColumnVec| {
            let mut hashes = vec![0; col.len()];
            col.hash_keys(0..col.len(), seed, &mut hashes);
            hashes
        };
        let ints = ColumnVec::from_ints(vec![0, 2, -7, i64::MAX]);
        let nums = ColumnVec::from_nums(vec![-0.0, 2.0, -7.0, i64::MAX as f64]);
        assert_eq!(hashed(&ints), hashed(&nums));
        assert_eq!(
            hashed(&ints),
            hashed(&ColumnVec::Val(ints.clone().into_values()))
        );
        assert_eq!(
            hashed(&nums),
            hashed(&ColumnVec::Val(nums.clone().into_values()))
        );
        let rng = &mut StdRng::seed_from_u64(11);
        let (enc, val) = both(&gen_cells(rng, 40, 3));
        assert_eq!(hashed(&enc), hashed(&val));
        for dates in [false, true] {
            let typed = ColumnVec::from_values(gen_plain(rng, 40, dates));
            assert!(is_typed(&typed, dates));
            let general = ColumnVec::Val(typed.clone().into_values());
            assert_eq!(hashed(&typed), hashed(&general));
        }
        // A slice hashes as the cells it holds.
        let mut tail = vec![0; 10];
        enc.hash_keys(30..40, seed, &mut tail);
        assert_eq!(tail, hashed(&enc)[30..]);
        // 2 and 2.5, "a" and "a\0", a date and its day count differ.
        let apart = ColumnVec::Val(vec![
            Value::Int(2),
            Value::Num(2.5),
            Value::str("a"),
            Value::str("a\0"),
            Value::Date(mpq_algebra::Date(2)),
            Value::Null,
        ]);
        let mut hashes = hashed(&apart);
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 6);
    }

    /// Every typed group-key comparator is `CellRef::key_eq`, on every
    /// pair of columns — typed, encrypted or general — over the cells
    /// whose equality is easy to get wrong: `Int(2)` and `Num(2.0)`,
    /// `0.0` and `-0.0`, NaN, NULL and NULL, Deterministic and Random
    /// ciphertexts, strings that part behind their first eight bytes.
    #[test]
    fn the_typed_comparator_is_key_eq() {
        let det = |b: &[u8]| cipher(EncScheme::Deterministic, 1, b);
        let rnd = |b: &[u8]| cipher(EncScheme::Random, 1, b);
        let words = [
            "ab",
            "ab\0",
            "",
            "ü",
            "u\u{308}",
            "abcdefgh",
            "abcdefghi",
            "abcdefghj",
        ];
        let typed = [
            ColumnVec::from_ints(vec![2, 0, -7, i64::MAX, 2]),
            ColumnVec::from_nums(vec![2.0, 0.0, -0.0, f64::NAN, i64::MAX as f64]),
            ColumnVec::Date(vec![Date(2), Date(0), Date(2)]),
            words.iter().map(|w| Value::str(w)).collect(),
            [det(&[1, 2]), Value::Null, det(&[1, 2, 3]), det(&[1, 2])]
                .into_iter()
                .collect(),
            [rnd(&[1, 2]), Value::Null, rnd(&[1, 2])]
                .into_iter()
                .collect(),
        ];
        let mut columns: Vec<ColumnVec> = typed.to_vec();
        // Each typed column's general twin, and one general column of
        // every kind of cell.
        columns.extend(
            typed
                .iter()
                .map(|c| ColumnVec::Val(c.clone().into_values())),
        );
        columns.push(ColumnVec::Val(vec![
            Value::Null,
            Value::Null,
            Value::Bool(true),
            Value::Int(2),
            Value::Num(-0.0),
            Value::Num(f64::NAN),
            Value::str("ab"),
            Value::Date(Date(2)),
            det(&[1, 2]),
            rnd(&[1, 2]),
        ]));
        let kinds: Vec<&str> = ["Int", "Num", "Date", "Str", "Enc", "Enc"].to_vec();
        for (c, kind) in typed.iter().zip(kinds) {
            assert!(format!("{c:?}").starts_with(kind), "{c:?} is typed");
        }
        for a in &columns {
            for b in &columns {
                let view = a.key_eq_with(b);
                for i in 0..a.len() {
                    for j in 0..b.len() {
                        let want = a.cell_ref(i).key_eq(b.cell_ref(j));
                        assert_eq!(view.eq(i, j), want, "{:?} vs {:?}", a.get(i), b.get(j));
                    }
                }
            }
        }
    }

    #[test]
    fn an_encrypted_column_holds_one_key_or_degrades() {
        let first = cipher(EncScheme::Ope, 2, &[7; 17]);
        let column = || {
            let mut c = ColumnVec::new();
            c.push(first.clone());
            c.push(Value::Null);
            assert!(
                matches!(&c, ColumnVec::Enc(e) if e.len() == 2),
                "upgraded, NULL held"
            );
            c
        };
        // Plaintext, another scheme, another key, and the empty
        // ciphertext (which would read back as NULL) all degrade; the
        // cells pushed before survive it.
        for intruder in [
            Value::Int(1),
            Value::str("plain"),
            cipher(EncScheme::Deterministic, 2, &[7; 16]),
            cipher(EncScheme::Ope, 3, &[7; 17]),
            cipher(EncScheme::Ope, 2, &[]),
        ] {
            let mut c = column();
            c.push(intruder.clone());
            assert!(matches!(c, ColumnVec::Val(_)), "{intruder:?}");
            assert_eq!(c.into_values(), vec![first.clone(), Value::Null, intruder]);
        }
        // A column that opens with a NULL or the empty ciphertext
        // stays general.
        for opening in [Value::Null, cipher(EncScheme::Ope, 2, &[])] {
            let c: ColumnVec = [opening, first.clone()].into_iter().collect();
            assert!(matches!(c, ColumnVec::Val(_)));
        }
    }
}
