//! Runtime values and data types.
//!
//! A [`Value`] is one cell as expressions, literals and the row oracle
//! see it. An encrypted cell is [`Value::Enc`], which carries the
//! ciphertext together with the scheme tag so that the evaluator knows
//! which operations the cell still supports (equality for deterministic
//! encryption, ordering for OPE, addition for Paillier). A whole column
//! of them under one key is held, filtered and shipped as one
//! [`EncColumn`] buffer instead — a `Value::Enc` is what reading a
//! single cell out of it yields.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Logical column types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (keys, counts).
    Int,
    /// 64-bit float; TPC-H `decimal(15,2)` columns are carried as
    /// floats and re-encoded as fixed-point integers when encrypted
    /// homomorphically.
    Num,
    /// UTF-8 string.
    Str,
    /// Calendar date (days since 1970-01-01).
    Date,
    /// Boolean.
    Bool,
}

/// Encryption scheme tags, mirroring the four schemes of the paper's
/// evaluation (§7): randomized and deterministic symmetric encryption,
/// an order-preserving scheme, and the Paillier cryptosystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EncScheme {
    /// Randomized symmetric encryption: no operations supported.
    Random,
    /// Deterministic symmetric encryption: equality comparisons.
    Deterministic,
    /// Order-preserving encryption: equality and ordering.
    Ope,
    /// Additively homomorphic (Paillier): ciphertext addition → SUM/AVG.
    Paillier,
}

impl EncScheme {
    /// Every scheme.
    pub const ALL: [EncScheme; 4] = [
        EncScheme::Random,
        EncScheme::Deterministic,
        EncScheme::Ope,
        EncScheme::Paillier,
    ];

    /// The scheme's byte in [`Value::canonical_bytes`] and on the wire.
    pub fn tag(self) -> u8 {
        match self {
            EncScheme::Random => 0,
            EncScheme::Deterministic => 1,
            EncScheme::Ope => 2,
            EncScheme::Paillier => 3,
        }
    }

    /// Inverse of [`EncScheme::tag`]; `None` for a byte no scheme has.
    pub fn from_tag(tag: u8) -> Option<EncScheme> {
        EncScheme::ALL.into_iter().find(|s| s.tag() == tag)
    }

    /// `true` if ciphertexts of this scheme can be compared for equality.
    pub fn supports_equality(self) -> bool {
        matches!(self, EncScheme::Deterministic | EncScheme::Ope)
    }

    /// `true` if ciphertexts of this scheme preserve plaintext order.
    pub fn supports_order(self) -> bool {
        matches!(self, EncScheme::Ope)
    }
}

/// An encrypted cell: ciphertext bytes plus the metadata needed to
/// evaluate the operations the scheme supports.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EncValue {
    /// Scheme the cell is encrypted under.
    pub scheme: EncScheme,
    /// Identifier of the key (Definition 6.1 clusters attributes by the
    /// equivalence classes of the root profile; all attributes in one
    /// cluster share a key id so encrypted joins keep working).
    pub key_id: u32,
    /// Ciphertext. For OPE this is a big-endian 8-byte order-preserving
    /// code; for Paillier a bignum; otherwise opaque bytes.
    pub bytes: Arc<[u8]>,
}

/// A column of cells encrypted under one `(scheme, key)`: the
/// ciphertexts back to back in one buffer plus where each ends —
/// Arrow's binary layout without the leading zero offset. The empty
/// cell is NULL (no scheme emits an empty ciphertext). A fixed stride
/// would not do: Det/Random cells over strings and Paillier cells vary
/// in width.
///
/// This is the raw buffer `mpq-crypto` fills and `mpq-exec` wraps as a
/// column variant; a single cell leaves it as an [`EncValue`] through
/// [`EncColumn::value`]. Offsets are `u32`: a column holds under 4 GiB
/// of ciphertext, four times what one frame can carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncColumn {
    scheme: EncScheme,
    key_id: u32,
    /// `ends[i]` is where cell `i` stops in `bytes`; it starts where
    /// cell `i - 1` stopped. Non-decreasing, and the last one is
    /// `bytes.len()`.
    ends: Vec<u32>,
    bytes: Vec<u8>,
}

impl EncColumn {
    /// Empty column under `(scheme, key_id)`.
    pub fn new(scheme: EncScheme, key_id: u32) -> EncColumn {
        EncColumn::with_capacity(scheme, key_id, 0, 0)
    }

    /// Empty column with room for `cells` cells of `bytes` bytes in all.
    pub fn with_capacity(scheme: EncScheme, key_id: u32, cells: usize, bytes: usize) -> EncColumn {
        EncColumn {
            scheme,
            key_id,
            ends: Vec::with_capacity(cells),
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// A column from its parts as they arrive off the wire. `None`
    /// unless the offsets are non-decreasing and end where the bytes do.
    pub fn from_parts(
        scheme: EncScheme,
        key_id: u32,
        ends: Vec<u32>,
        bytes: Vec<u8>,
    ) -> Option<EncColumn> {
        let sorted = ends.windows(2).all(|w| w[0] <= w[1]);
        let total = ends.last().map_or(0, |&e| e as usize);
        (sorted && total == bytes.len()).then_some(EncColumn {
            scheme,
            key_id,
            ends,
            bytes,
        })
    }

    /// Scheme every cell is encrypted under.
    pub fn scheme(&self) -> EncScheme {
        self.scheme
    }

    /// Key every cell is encrypted under.
    pub fn key_id(&self) -> u32 {
        self.key_id
    }

    /// Number of cells, NULLs included.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Where each cell ends in [`EncColumn::bytes`].
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// Every cell's ciphertext, back to back.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Offsets and buffer for a cipher that wrote plaintext cells and
    /// now encrypts them in place; cell boundaries cannot move.
    pub fn cells_mut(&mut self) -> (&[u32], &mut [u8]) {
        (&self.ends, &mut self.bytes)
    }

    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize)
    }

    /// Ciphertext of cell `i`; empty for NULL.
    pub fn cell(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i] as usize]
    }

    /// Cell `i` as a scalar: NULL, or an [`EncValue`] owning a copy of
    /// the ciphertext.
    pub fn value(&self, i: usize) -> Value {
        match self.cell(i) {
            [] => Value::Null,
            cell => Value::Enc(EncValue {
                scheme: self.scheme,
                key_id: self.key_id,
                bytes: Arc::from(cell),
            }),
        }
    }

    /// Append one cell whose bytes `write` appends to the buffer;
    /// appending nothing makes it NULL.
    pub fn push_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.bytes.len();
        write(&mut self.bytes);
        assert!(start <= self.bytes.len(), "a cell writer only appends");
        let end = u32::try_from(self.bytes.len()).expect("a ciphertext column stays under 4 GiB");
        self.ends.push(end);
    }

    /// Append one ciphertext (empty: NULL).
    pub fn push(&mut self, cell: &[u8]) {
        self.push_with(|bytes| bytes.extend_from_slice(cell));
    }

    /// Append every cell of `other`, which is under the same
    /// `(scheme, key)`.
    pub fn append(&mut self, other: &EncColumn) {
        debug_assert_eq!(
            (self.scheme, self.key_id),
            (other.scheme, other.key_id),
            "one column, one key"
        );
        let base = self.bytes.len();
        assert!(
            u32::try_from(base + other.bytes.len()).is_ok(),
            "a ciphertext column stays under 4 GiB"
        );
        self.bytes.extend_from_slice(&other.bytes);
        self.ends
            .extend(other.ends.iter().map(|&e| base as u32 + e));
    }

    /// Copy of the cells in `range`.
    pub fn slice(&self, range: Range<usize>) -> EncColumn {
        let (from, to) = (self.start(range.start), self.start(range.end));
        EncColumn {
            scheme: self.scheme,
            key_id: self.key_id,
            ends: self.ends[range].iter().map(|&e| e - from as u32).collect(),
            bytes: self.bytes[from..to].to_vec(),
        }
    }

    /// The cells at `idx`, in `idx` order; `None` is a NULL pad.
    pub fn gather(&self, idx: impl Iterator<Item = Option<usize>>) -> EncColumn {
        // Room for as many average-width cells as `idx` can yield.
        let cells = idx.size_hint().1.unwrap_or(0);
        let bytes = self.bytes.len() / self.len().max(1) * cells;
        let mut out = EncColumn::with_capacity(self.scheme, self.key_id, cells, bytes);
        for i in idx {
            out.push(i.map_or(&[], |i| self.cell(i)));
        }
        out
    }

    /// Σ [`Value::width`] over the cells: a ciphertext counts its
    /// bytes, a NULL one.
    pub fn byte_size(&self) -> usize {
        let mut start = 0;
        let nulls = self.ends.iter().filter(|&&end| {
            let null = end == start;
            start = end;
            null
        });
        self.bytes.len() + nulls.count()
    }
}

/// A runtime value.
///
/// The derived `PartialEq` is *structural* (used by plan equality and
/// literal deduplication); SQL comparison semantics live in
/// [`Value::sql_eq`] / [`Value::sql_cmp`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Numeric (float-carried decimal).
    Num(f64),
    /// String.
    Str(Arc<str>),
    /// Date (days since epoch).
    Date(Date),
    /// Encrypted cell.
    Enc(EncValue),
}

impl Value {
    /// Convenience string constructor.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to float); `None` for other types.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The logical type of this value, if it is a plaintext non-null.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Num(_) => Some(DataType::Num),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
            Value::Null | Value::Enc(_) => None,
        }
    }

    /// Canonical byte encoding used as encryption plaintext. The
    /// encoding is self-describing (type tag byte first) so decryption
    /// restores the exact value.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.canonical_len());
        self.write_canonical(&mut out);
        out
    }

    /// Bytes [`Value::write_canonical`] appends.
    pub fn canonical_len(&self) -> usize {
        CellRef::from(self).canonical_len()
    }

    /// Append the canonical encoding to `out` ([`CellRef::write_canonical`]).
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        CellRef::from(self).write_canonical(out)
    }

    /// Inverse of [`Value::canonical_bytes`]. `None` for anything that
    /// function cannot have produced: an unknown type or scheme tag, or
    /// a fixed-width payload of the wrong width.
    pub fn from_canonical_bytes(b: &[u8]) -> Option<Value> {
        let (&tag, rest) = b.split_first()?;
        Some(match tag {
            0 if rest.is_empty() => Value::Null,
            1 => Value::Bool(u8::from_be_bytes(rest.try_into().ok()?) != 0),
            2 => Value::Int(i64::from_be_bytes(rest.try_into().ok()?)),
            3 => Value::Num(f64::from_be_bytes(rest.try_into().ok()?)),
            4 => Value::Str(Arc::from(std::str::from_utf8(rest).ok()?)),
            5 => Value::Date(Date(i32::from_be_bytes(rest.try_into().ok()?))),
            6 => {
                let scheme = EncScheme::from_tag(*rest.first()?)?;
                let key_id = u32::from_be_bytes(rest.get(1..5)?.try_into().ok()?);
                Value::Enc(EncValue {
                    scheme,
                    key_id,
                    bytes: Arc::from(rest.get(5..)?),
                })
            }
            _ => return None,
        })
    }

    /// Approximate in-memory width in bytes (used by the cost model for
    /// data-size estimation; encrypted cells report their expanded
    /// ciphertext size).
    pub fn width(&self) -> usize {
        CellRef::from(self).width()
    }

    /// SQL-style comparison ([`CellRef::sql_cmp`]).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        CellRef::from(self).sql_cmp(other.into())
    }

    /// Equality usable for joins and grouping: NULL ≠ NULL (SQL
    /// semantics); deterministic ciphertexts compare byte-wise.
    pub fn sql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Enc(a), Value::Enc(b)) => {
                a.scheme.supports_equality()
                    && a.scheme == b.scheme
                    && a.key_id == b.key_id
                    && a.bytes == b.bytes
            }
            _ => self.sql_cmp(other) == Some(Ordering::Equal),
        }
    }
}

/// Grouping key wrapper: unlike [`Value::sql_eq`], grouping treats NULLs
/// as equal to each other (SQL GROUP BY semantics) and is hashable.
#[derive(Clone, Debug)]
pub struct GroupKey(pub Value);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        CellRef::from(&self.0).key_eq((&other.0).into())
    }
}
impl Eq for GroupKey {}

/// A cell read where it lies — a string's or a ciphertext's bytes
/// borrowed from its column: what the hash operators hash and compare.
#[derive(Clone, Copy, Debug)]
pub enum CellRef<'a> {
    /// SQL NULL (an encrypted column's empty cell).
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Numeric.
    Num(f64),
    /// String.
    Str(&'a str),
    /// Date.
    Date(Date),
    /// Ciphertext under `(scheme, key)`.
    Enc(EncScheme, u32, &'a [u8]),
}

impl<'a> From<&'a Value> for CellRef<'a> {
    #[inline]
    fn from(v: &'a Value) -> CellRef<'a> {
        match v {
            Value::Null => CellRef::Null,
            Value::Bool(b) => CellRef::Bool(*b),
            Value::Int(i) => CellRef::Int(*i),
            Value::Num(f) => CellRef::Num(*f),
            Value::Str(s) => CellRef::Str(s),
            Value::Date(d) => CellRef::Date(*d),
            Value::Enc(e) => CellRef::Enc(e.scheme, e.key_id, &e.bytes),
        }
    }
}

impl From<CellRef<'_>> for Value {
    /// The cell as a scalar of its own: a string or a ciphertext is
    /// copied out of its column.
    fn from(cell: CellRef<'_>) -> Value {
        match cell {
            CellRef::Null => Value::Null,
            CellRef::Bool(b) => Value::Bool(b),
            CellRef::Int(i) => Value::Int(i),
            CellRef::Num(f) => Value::Num(f),
            CellRef::Str(s) => Value::str(s),
            CellRef::Date(d) => Value::Date(d),
            CellRef::Enc(scheme, key_id, bytes) => Value::Enc(EncValue {
                scheme,
                key_id,
                bytes: Arc::from(bytes),
            }),
        }
    }
}

impl CellRef<'_> {
    /// [`Value::width`]: a string or ciphertext counts its bytes, a date
    /// four, a NULL or boolean one.
    pub fn width(self) -> usize {
        match self {
            CellRef::Null | CellRef::Bool(_) => 1,
            CellRef::Int(_) | CellRef::Num(_) => 8,
            CellRef::Str(s) => s.len(),
            CellRef::Date(_) => 4,
            CellRef::Enc(.., bytes) => bytes.len(),
        }
    }

    /// Bytes [`CellRef::write_canonical`] appends.
    pub fn canonical_len(self) -> usize {
        1 + match self {
            CellRef::Null => 0,
            CellRef::Enc(.., bytes) => 5 + bytes.len(),
            cell => cell.width(),
        }
    }

    /// Append the canonical encoding to `out` — a type tag, then the
    /// payload: what ciphers and the codec write straight into a column
    /// or frame buffer, wherever the cell lies. The encoding is
    /// self-describing, so [`Value::from_canonical_bytes`] restores the
    /// exact value.
    pub fn write_canonical(self, out: &mut Vec<u8>) {
        match self {
            CellRef::Null => out.push(0),
            CellRef::Bool(b) => out.extend_from_slice(&[1, b as u8]),
            CellRef::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_be_bytes());
            }
            CellRef::Num(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_be_bytes());
            }
            CellRef::Str(s) => {
                out.push(4);
                out.extend_from_slice(s.as_bytes());
            }
            CellRef::Date(d) => {
                out.push(5);
                out.extend_from_slice(&d.0.to_be_bytes());
            }
            CellRef::Enc(scheme, key_id, bytes) => {
                // Re-encrypting a ciphertext is allowed (onion-style);
                // encode scheme + key + bytes.
                out.extend_from_slice(&[6, scheme.tag()]);
                out.extend_from_slice(&key_id.to_be_bytes());
                out.extend_from_slice(bytes);
            }
        }
    }

    /// SQL-style comparison: `None` when either side is NULL or the
    /// cells are incomparable (type mismatch, unsupported ciphertext
    /// comparison).
    pub fn sql_cmp(self, other: CellRef<'_>) -> Option<Ordering> {
        use CellRef::*;
        match (self, other) {
            (Bool(a), Bool(b)) => Some(a.cmp(&b)),
            (Int(a), Int(b)) => Some(a.cmp(&b)),
            (Num(a), Num(b)) => a.partial_cmp(&b),
            (Int(a), Num(b)) => (a as f64).partial_cmp(&b),
            (Num(a), Int(b)) => a.partial_cmp(&(b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(&b)),
            (Enc(s, k, a), Enc(t, l, b)) if (s, k) == (t, l) => {
                if s.supports_order() {
                    Some(a.cmp(b))
                } else {
                    // Deterministic ciphertexts only certify
                    // (in)equality; Random ones nothing.
                    (s.supports_equality() && a == b).then_some(Ordering::Equal)
                }
            }
            _ => None,
        }
    }

    /// The order a sort puts cells in: a total order (a sort given less
    /// panics or scrambles) that agrees with [`CellRef::sql_cmp`]
    /// wherever that orders two cells exactly. NULLs go last; cells of
    /// different kinds order by kind (booleans, numerics, strings,
    /// dates, ciphertexts); a NaN follows every number, an integer
    /// past 2⁵³ its float image; ciphertexts order by `(scheme, key)`
    /// and, under OPE, by bytes.
    pub fn sort_cmp(self, other: CellRef<'_>) -> Ordering {
        use CellRef::*;
        /// A numeric's place: NaN last, then the float value (`-0.0`
        /// is `0.0`), then the integer for what floats cannot tell apart.
        fn number(cell: CellRef<'_>) -> (bool, f64, i64) {
            match cell {
                Int(i) => (false, i as f64, i),
                Num(f) => (f.is_nan(), if f.is_nan() { 0.0 } else { f }, f as i64),
                _ => unreachable!("asked only of numerics"),
            }
        }
        let kind = |cell: CellRef<'_>| match cell {
            Bool(_) => 0,
            Int(_) | Num(_) => 1,
            Str(_) => 2,
            Date(_) => 3,
            Enc(..) => 4,
            Null => 5,
        };
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Int(_) | Num(_), Int(_) | Num(_)) => {
                let ((p, x, i), (q, y, j)) = (number(self), number(other));
                let by_value = x.partial_cmp(&y).expect("no NaN left");
                p.cmp(&q).then(by_value).then(i.cmp(&j))
            }
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(&b),
            (Enc(s, k, a), Enc(t, l, b)) => (s, k).cmp(&(t, l)).then_with(|| {
                if s.supports_order() {
                    a.cmp(b)
                } else {
                    Ordering::Equal
                }
            }),
            _ => kind(self).cmp(&kind(other)),
        }
    }

    /// The relation grouping and hash joins match keys by —
    /// [`GroupKey`]'s: [`Value::sql_eq`], except
    /// that NULL equals NULL (a join never asks: it skips NULL keys).
    /// A ciphertext that certifies no equality equals nothing, itself
    /// included.
    #[inline]
    pub fn key_eq(self, other: CellRef<'_>) -> bool {
        use CellRef::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Num(a), Num(b)) => a == b,
            (Int(i), Num(f)) | (Num(f), Int(i)) => i as f64 == f,
            (Str(a), Str(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (Enc(s, k, a), Enc(t, l, b)) => s.supports_equality() && (s, k) == (t, l) && a == b,
            _ => false,
        }
    }
}

/// What an integer cell hashes as, so that hashing agrees with
/// [`Value::sql_eq`]: the integer itself up to 2⁵³, and past that the
/// one integer its `f64` image converts back to — every `Int` a `Num`
/// equals hashes as that `Num` does ([`num_hash_key`]).
pub fn int_hash_key(i: i64) -> i64 {
    (i as f64) as i64
}

/// What a numeric cell hashes as when it equals an integer: that
/// integer's [`int_hash_key`], so `Num(2.0)` hashes as `Int(2)` and
/// `-0.0` as `0.0`. `None` for every other numeric (its bits identify
/// it; a NaN equals nothing).
pub fn num_hash_key(f: f64) -> Option<i64> {
    let i = f as i64;
    (i as f64 == f).then_some(i)
}

impl std::hash::Hash for GroupKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match &self.0 {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => (1u8, b).hash(state),
            Value::Int(i) => (2u8, int_hash_key(*i)).hash(state),
            // `Eq` holds `Int(2)` equal to `Num(2.0)` and `0.0` to
            // `-0.0`, so they must hash alike.
            Value::Num(f) => match num_hash_key(*f) {
                Some(i) => (2u8, i).hash(state),
                None => (3u8, f.to_bits()).hash(state),
            },
            Value::Str(s) => (4u8, s.as_bytes()).hash(state),
            Value::Date(d) => (5u8, d.0).hash(state),
            Value::Enc(e) => (6u8, e.key_id, &e.bytes[..]).hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Num(n) => write!(f, "{n:.2}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Enc(e) => write!(f, "⟨{:?}#{}:{}B⟩", e.scheme, e.key_id, e.bytes.len()),
        }
    }
}

/// Calendar date stored as days since 1970-01-01 (proleptic Gregorian).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Date(pub i32);

impl Date {
    /// Construct from year/month/day. Panics on out-of-range month/day
    /// only via debug assertions; callers validate input.
    pub fn from_ymd(y: i32, m: u32, d: u32) -> Date {
        // Days-from-civil algorithm (Howard Hinnant).
        let y = if m <= 2 { y - 1 } else { y };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64;
        let mp = ((m as i64) + 9) % 12;
        let doy = (153 * mp + 2) / 5 + (d as i64) - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Date((era as i64 * 146_097 + doe - 719_468) as i32)
    }

    /// Decompose into (year, month, day).
    fn to_ymd(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        let y = if m <= 2 { y + 1 } else { y };
        (y as i32, m, d)
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Date> {
        let mut it = s.split('-');
        let y: i32 = it.next()?.parse().ok()?;
        let m: u32 = it.next()?.parse().ok()?;
        let d: u32 = it.next()?.parse().ok()?;
        if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return None;
        }
        Some(Date::from_ymd(y, m, d))
    }

    /// Add a number of days.
    pub fn add_days(self, days: i32) -> Date {
        Date(self.0 + days)
    }

    /// Add calendar months, clamping the day-of-month.
    pub fn add_months(self, months: i32) -> Date {
        let (y, m, d) = self.to_ymd();
        let tot = y as i64 * 12 + (m as i64 - 1) + months as i64;
        let ny = (tot.div_euclid(12)) as i32;
        let nm = (tot.rem_euclid(12) + 1) as u32;
        let max_d = days_in_month(ny, nm);
        Date::from_ymd(ny, nm, d.min(max_d))
    }

    /// Add years.
    pub fn add_years(self, years: i32) -> Date {
        self.add_months(years * 12)
    }

    /// Extract the year.
    pub fn year(self) -> i32 {
        self.to_ymd().0
    }
}

fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        _ => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip_known_values() {
        assert_eq!(Date::from_ymd(1970, 1, 1).0, 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).0, 1);
        assert_eq!(Date::from_ymd(1969, 12, 31).0, -1);
        assert_eq!(Date::from_ymd(2000, 3, 1).0, 11_017);
        let d = Date::parse("1994-01-01").unwrap();
        assert_eq!(d.to_ymd(), (1994, 1, 1));
        assert_eq!(format!("{d}"), "1994-01-01");
    }

    #[test]
    fn date_arithmetic() {
        let d = Date::parse("1995-01-31").unwrap();
        assert_eq!(d.add_months(1).to_ymd(), (1995, 2, 28));
        assert_eq!(d.add_months(12).to_ymd(), (1996, 1, 31));
        assert_eq!(d.add_years(1).to_ymd(), (1996, 1, 31));
        assert_eq!(d.add_days(1).to_ymd(), (1995, 2, 1));
        assert_eq!(
            Date::parse("1996-02-29").unwrap().add_years(1).to_ymd(),
            (1997, 2, 28)
        );
    }

    #[test]
    fn date_roundtrip_sweep() {
        for day in (-20_000..40_000).step_by(17) {
            let d = Date(day);
            let (y, m, dd) = d.to_ymd();
            assert_eq!(Date::from_ymd(y, m, dd), d, "day {day}");
        }
    }

    #[test]
    fn parse_rejects_bad_dates() {
        assert!(Date::parse("1994-13-01").is_none());
        assert!(Date::parse("1994-00-01").is_none());
        assert!(Date::parse("1994-01").is_none());
        assert!(Date::parse("abc").is_none());
    }

    #[test]
    fn canonical_bytes_roundtrip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Num(3.25),
            Value::str("stroke"),
            Value::Date(Date::from_ymd(1994, 1, 1)),
        ];
        for v in vals {
            let b = v.canonical_bytes();
            let back = Value::from_canonical_bytes(&b).unwrap();
            assert!(v.sql_eq(&back) || (v.is_null() && back.is_null()), "{v:?}");
        }
    }

    #[test]
    fn enc_canonical_roundtrip() {
        let e = Value::Enc(EncValue {
            scheme: EncScheme::Deterministic,
            key_id: 7,
            bytes: Arc::from(&[1u8, 2, 3][..]),
        });
        let b = e.canonical_bytes();
        let back = Value::from_canonical_bytes(&b).unwrap();
        match back {
            Value::Enc(ev) => {
                assert_eq!(ev.scheme, EncScheme::Deterministic);
                assert_eq!(ev.key_id, 7);
                assert_eq!(&ev.bytes[..], &[1, 2, 3]);
            }
            other => panic!("expected Enc, got {other:?}"),
        }
    }

    #[test]
    fn canonical_decoding_refuses_what_encoding_cannot_produce() {
        for scheme in EncScheme::ALL {
            assert_eq!(EncScheme::from_tag(scheme.tag()), Some(scheme));
        }
        assert_eq!(EncScheme::from_tag(4), None);
        // An unknown scheme byte is not Paillier.
        assert!(Value::from_canonical_bytes(&[6, 3, 0, 0, 0, 7, 0xAA]).is_some());
        assert!(Value::from_canonical_bytes(&[6, 4, 0, 0, 0, 7, 0xAA]).is_none());
        assert!(Value::from_canonical_bytes(&[6, 0xFF, 0, 0, 0, 7]).is_none());
        // Fixed-width payloads have exactly their width.
        assert!(Value::from_canonical_bytes(&[0, 0]).is_none());
        assert!(Value::from_canonical_bytes(&[1]).is_none());
        assert!(Value::from_canonical_bytes(&[1, 1, 0]).is_none());
        assert!(Value::from_canonical_bytes(&[2, 0, 0, 0, 0, 0, 0, 0]).is_none());
        assert!(Value::from_canonical_bytes(&[5, 0, 0, 0, 0, 0]).is_none());
        // Truncated ciphertext header, unknown type tag, nothing at all.
        assert!(Value::from_canonical_bytes(&[6, 1, 0, 0]).is_none());
        assert!(Value::from_canonical_bytes(&[7]).is_none());
        assert!(Value::from_canonical_bytes(&[]).is_none());
    }

    #[test]
    fn sql_comparison_semantics() {
        assert!(Value::Int(1).sql_cmp(&Value::Num(1.5)).unwrap().is_lt());
        assert!(Value::Null.sql_cmp(&Value::Int(1)).is_none());
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(GroupKey(Value::Null) == GroupKey(Value::Null));
        assert!(Value::str("a").sql_cmp(&Value::str("b")).unwrap().is_lt());
    }

    /// Whatever `GroupKey` holds equal it hashes alike — an integral
    /// `Num` as its `Int`, `-0.0` as `0.0`, past 2⁵³ too — so a map
    /// finds the one entry under every `RandomState`.
    #[test]
    fn group_keys_that_are_equal_hash_alike() {
        use std::hash::BuildHasher;
        let state = std::collections::hash_map::RandomState::new();
        let big = (1i64 << 53) + 1;
        for (a, b) in [
            (Value::Int(2), Value::Num(2.0)),
            (Value::Num(0.0), Value::Num(-0.0)),
            (Value::Int(0), Value::Num(-0.0)),
            (Value::Int(big), Value::Num(big as f64)),
            (Value::Int(i64::MAX), Value::Num(i64::MAX as f64)),
            (Value::Int(i64::MIN), Value::Num(i64::MIN as f64)),
        ] {
            let (a, b) = (GroupKey(a), GroupKey(b));
            assert!(a == b, "{a:?} = {b:?}");
            assert_eq!(state.hash_one(&a), state.hash_one(&b), "{a:?} / {b:?}");
        }
        assert_eq!(num_hash_key(2.5), None);
        assert_eq!(num_hash_key(f64::NAN), None);
        assert_eq!(num_hash_key(f64::INFINITY), None);
    }

    #[test]
    fn deterministic_ciphertext_equality() {
        let mk = |b: &[u8]| {
            Value::Enc(EncValue {
                scheme: EncScheme::Deterministic,
                key_id: 1,
                bytes: Arc::from(b),
            })
        };
        assert!(mk(&[9, 9]).sql_eq(&mk(&[9, 9])));
        assert!(!mk(&[9, 9]).sql_eq(&mk(&[9, 8])));
        // Different keys never compare equal.
        let other_key = Value::Enc(EncValue {
            scheme: EncScheme::Deterministic,
            key_id: 2,
            bytes: Arc::from(&[9u8, 9][..]),
        });
        assert!(!mk(&[9, 9]).sql_eq(&other_key));
    }

    #[test]
    fn ope_ciphertext_order() {
        let mk = |b: &[u8]| {
            Value::Enc(EncValue {
                scheme: EncScheme::Ope,
                key_id: 1,
                bytes: Arc::from(b),
            })
        };
        assert!(mk(&[0, 1]).sql_cmp(&mk(&[0, 2])).unwrap().is_lt());
    }

    #[test]
    fn random_ciphertext_supports_nothing() {
        let mk = |b: &[u8]| {
            Value::Enc(EncValue {
                scheme: EncScheme::Random,
                key_id: 1,
                bytes: Arc::from(b),
            })
        };
        assert!(mk(&[1]).sql_cmp(&mk(&[1])).is_none());
        assert!(!mk(&[1]).sql_eq(&mk(&[1])));
    }
}
