//! Runtime values and data types.
//!
//! The execution engine is row-oriented; a row is a `Vec<Value>`.
//! Encrypted cells are represented by [`Value::Enc`], which carries the
//! ciphertext together with the scheme tag so that the evaluator knows
//! which operations the cell still supports (equality for deterministic
//! encryption, ordering for OPE, addition for Paillier).

use std::cmp::Ordering;
use std::fmt;
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

    /// `true` if ciphertexts can be summed without decryption.
    pub fn supports_sum(self) -> bool {
        matches!(self, EncScheme::Paillier)
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

    /// Integer view; `None` for other types.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view; `None` for other types.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
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
        match self {
            Value::Null => vec![0],
            Value::Bool(b) => vec![1, *b as u8],
            Value::Int(i) => {
                let mut v = vec![2];
                v.extend_from_slice(&i.to_be_bytes());
                v
            }
            Value::Num(f) => {
                let mut v = vec![3];
                v.extend_from_slice(&f.to_be_bytes());
                v
            }
            Value::Str(s) => {
                let mut v = vec![4];
                v.extend_from_slice(s.as_bytes());
                v
            }
            Value::Date(d) => {
                let mut v = vec![5];
                v.extend_from_slice(&d.0.to_be_bytes());
                v
            }
            Value::Enc(e) => {
                // Re-encrypting a ciphertext is allowed (onion-style);
                // encode scheme + key + bytes.
                let mut v = vec![6, e.scheme.tag()];
                v.extend_from_slice(&e.key_id.to_be_bytes());
                v.extend_from_slice(&e.bytes);
                v
            }
        }
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
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Num(_) => 8,
            Value::Str(s) => s.len(),
            Value::Date(_) => 4,
            Value::Enc(e) => e.bytes.len(),
        }
    }

    /// SQL-style comparison: `None` when either side is NULL or the
    /// values are incomparable (type mismatch, unsupported ciphertext
    /// comparison).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Num(a), Value::Num(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Num(b)) => (*a as f64).partial_cmp(b),
            (Value::Num(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Date(a), Value::Date(b)) => Some(a.0.cmp(&b.0)),
            (Value::Enc(a), Value::Enc(b)) => {
                if a.scheme != b.scheme || a.key_id != b.key_id {
                    return None;
                }
                if a.scheme.supports_order() {
                    Some(a.bytes.cmp(&b.bytes))
                } else if a.scheme.supports_equality() {
                    if a.bytes == b.bytes {
                        Some(Ordering::Equal)
                    } else {
                        // Deterministic ciphertexts only certify
                        // (in)equality; report an arbitrary consistent
                        // order for hashing-free comparisons.
                        None
                    }
                } else {
                    None
                }
            }
            _ => None,
        }
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
        match (&self.0, &other.0) {
            (Value::Null, Value::Null) => true,
            (a, b) => a.sql_eq(b),
        }
    }
}
impl Eq for GroupKey {}

impl std::hash::Hash for GroupKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match &self.0 {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => (1u8, b).hash(state),
            Value::Int(i) => (2u8, i).hash(state),
            // Hash floats by bits of the canonical value so Int/Num keys
            // that compare equal may still hash differently: grouping
            // columns never mix Int and Num in practice.
            Value::Num(f) => (3u8, f.to_bits()).hash(state),
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
    pub fn to_ymd(self) -> (i32, u32, u32) {
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
