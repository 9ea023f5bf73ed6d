//! Value-level encryption: a column of `Value`s → one [`EncColumn`]
//! of ciphertexts (a scalar `Value` → `EncValue` is a column of one),
//! and back cell by cell.
//!
//! The scheme is chosen by the caller (the planner picks, per
//! attribute, "the scheme providing highest protection, while
//! supporting the operations to be executed on the attribute's
//! encrypted values" — §6):
//!
//! * [`EncScheme::Random`] — XTEA-CTR; supports nothing;
//! * [`EncScheme::Deterministic`] — XTEA-ECB over canonical bytes;
//!   equality/joins/grouping work byte-wise;
//! * [`EncScheme::Ope`] — order-preserving code; comparisons work
//!   byte-wise (numeric/date/int only);
//! * [`EncScheme::Paillier`] — additively homomorphic; SUM/AVG work via
//!   ciphertext multiplication. Numerics are fixed-point encoded with
//!   `NUM_SCALE` decimal places.
//!
//! There is one encryption routine, [`ColumnCipher::encrypt_column`],
//! and in it one plaintext writer per scheme; an OPE column is one
//! [`OpeKey::encrypt_run`], which descends each distinct code once.
//! [`ColumnCipher::encrypt`], [`encrypt_value`] and [`encrypt_batch`]
//! all call it. Cells arrive
//! from peers, so decryption is total: whatever bytes sit in a cell,
//! [`ColumnCipher::decrypt_cell`] answers with a value or
//! [`EncryptError::BadCiphertext`]; so does
//! [`ColumnCipher::decrypt_random_column`], which decrypts a Random
//! column as one CTR run.

use crate::bignum::BigUint;
use crate::keyring::ClusterKey;
use crate::ope::{self, OpeKey, OpeType};
use crate::paillier::PaillierCiphertext;
use crate::xtea::{det_frame, XteaSchedule};
use mpq_algebra::value::{CellRef, EncColumn, EncScheme, EncValue, Value};
use rand::Rng;
use std::sync::Arc;

/// Fixed-point scale for Paillier-encoded numerics (cents at scale 2,
/// plus two guard digits for intermediate products).
const NUM_SCALE: f64 = 10_000.0;

/// Errors from value encryption/decryption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncryptError {
    /// The value type cannot be carried by the requested scheme
    /// (e.g. OPE over strings, Paillier over strings).
    UnsupportedType(&'static str),
    /// Ciphertext malformed or produced under a different key.
    BadCiphertext,
    /// The cell is not encrypted / not plaintext as required.
    WrongForm,
}

impl std::fmt::Display for EncryptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncryptError::UnsupportedType(what) => {
                write!(f, "scheme cannot encrypt {what}")
            }
            EncryptError::BadCiphertext => write!(f, "malformed ciphertext or wrong key"),
            EncryptError::WrongForm => write!(f, "value in unexpected form"),
        }
    }
}

impl std::error::Error for EncryptError {}

/// Where a run of cells draws its randomness: one generator per row.
/// The engine seeds a fresh one from each row's position, so every
/// ciphertext is a function of `(seed, node, column, row)` however the
/// rows are batched; [`encrypt_batch`] hands every row the caller's one
/// stream (the `&mut R` impl).
pub trait RowRng {
    /// The generator a row draws from.
    type Rng: Rng + ?Sized;

    /// The generator for the run's `row`-th cell. Asked in row order,
    /// at most once per row, and only for cells that draw: non-NULL
    /// cells under Random or Paillier.
    fn row(&mut self, row: usize) -> &mut Self::Rng;
}

impl<R: Rng + ?Sized> RowRng for &mut R {
    type Rng = R;

    fn row(&mut self, _: usize) -> &mut R {
        self
    }
}

/// A cluster key prepared for repeated use on one column: XTEA key
/// schedules expanded and sub-keys resolved once, the Paillier keypair
/// shared with every clone of the key (built by the first that needs it). This is the batch entry the execution engine uses — the
/// per-value setup (`SipHash` sub-key derivation, key-schedule
/// expansion, Paillier `n²` Montgomery context) is paid once per
/// column instead of once per cell.
///
/// Immutable and `Sync`: one cipher serves every batch of a column.
pub struct ColumnCipher {
    scheme: EncScheme,
    key: ClusterKey,
    det: XteaSchedule,
    rnd: XteaSchedule,
    ope: OpeKey,
}

impl ColumnCipher {
    /// Prepare `key` for encrypting/decrypting a column under `scheme`.
    pub fn new(scheme: EncScheme, key: &ClusterKey) -> ColumnCipher {
        ColumnCipher {
            scheme,
            det: XteaSchedule::new(&key.det_key()),
            rnd: XteaSchedule::new(&key.rnd_key()),
            ope: OpeKey::new(&key.ope_key()),
            key: key.clone(),
        }
    }

    /// The key id ciphertexts will carry.
    pub fn key_id(&self) -> u32 {
        self.key.id
    }

    /// Encrypt one plaintext cell under the prepared scheme. NULLs pass
    /// through unencrypted (SQL semantics: NULL carries no value; the
    /// paper's model operates at the schema level).
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        value: &Value,
    ) -> Result<Value, EncryptError> {
        Ok(self.encrypt_column([value], rng)?.value(0))
    }

    /// The one encryption routine: a run of plaintext cells, read where
    /// they lie (a column's [`CellRef`]s, or `&Value`s), into one
    /// ciphertext column — a scalar is a column of one. Each cell's
    /// scheme-specific bytes are appended to the buffer, no `Value` and
    /// no allocation per cell — plaintext still, for Det and Random —
    /// and those two then run the whole buffer through the XTEA kernel.
    /// OPE reads every cell's code first and then encrypts them as one
    /// [`OpeKey::encrypt_run`]. NULLs stay NULL (the empty cell). Cell
    /// `i` equals [`ColumnCipher::encrypt`] of the `i`-th value under
    /// `rngs.row(i)`. A failed cell drops the half-written column with
    /// the error of the first row that fails.
    pub fn encrypt_column<'v, V: Into<CellRef<'v>>>(
        &self,
        cells: impl IntoIterator<Item = V>,
        mut rngs: impl RowRng,
    ) -> Result<EncColumn, EncryptError> {
        let cells = cells.into_iter();
        let rows = cells.size_hint().0;
        // Sized for fixed-width cells (16 or 17 bytes under Det, Random
        // and OPE); strings and Paillier cells grow it.
        let mut out = EncColumn::with_capacity(self.scheme, self.key.id, rows, rows * 17);
        // OPE's first pass: every cell's type and code, in row order.
        let ope_rows = if self.scheme == EncScheme::Ope {
            rows
        } else {
            0
        };
        let mut ope_run = Vec::with_capacity(ope_rows);
        for (row, cell) in cells.enumerate() {
            let cell: CellRef<'_> = cell.into();
            match (cell, self.scheme) {
                (_, EncScheme::Ope) => ope_run.push(ope_code(cell)?),
                (CellRef::Null, _) => out.push(&[]),
                (CellRef::Enc(..), _) => return Err(EncryptError::WrongForm),
                (_, EncScheme::Deterministic) => out.push_with(|buf| {
                    det_frame(buf, |body| unsigned_zero(cell).write_canonical(body))
                }),
                (_, EncScheme::Random) => {
                    let nonce: u64 = rngs.row(row).gen();
                    out.push_with(|buf| {
                        buf.extend_from_slice(&nonce.to_be_bytes());
                        cell.write_canonical(buf);
                    })
                }
                (_, EncScheme::Paillier) => {
                    let (tag, encoded): (u8, i64) = match cell {
                        CellRef::Int(i) => (1, i),
                        CellRef::Num(f) => (2, (f * NUM_SCALE).round() as i64),
                        _ => {
                            return Err(EncryptError::UnsupportedType(
                                "only numerics under Paillier",
                            ))
                        }
                    };
                    // Encryptors hold the cluster key (Def. 6.1), so the
                    // holder's half-width path applies to every cell.
                    let kp = self.key.paillier();
                    let c = kp.encrypt(rngs.row(row), &kp.public.encode_signed(encoded));
                    out.push_with(|buf| write_paillier_cell(buf, tag, AggKind::Single, 1, &c))
                }
            }
        }
        match self.scheme {
            EncScheme::Deterministic => self.det.ecb_encrypt(out.cells_mut().1),
            EncScheme::Random => {
                let (ends, bytes) = out.cells_mut();
                self.rnd.ctr_cells(bytes, ends)
            }
            EncScheme::Ope => self
                .ope
                .encrypt_run(&ope_run, |cell| out.push(cell.as_ref().map_or(&[], |c| c))),
            EncScheme::Paillier => {}
        }
        Ok(out)
    }

    /// Decrypt one cell (any scheme — the cell is self-describing).
    /// NULLs pass through.
    pub fn decrypt(&self, value: &Value) -> Result<Value, EncryptError> {
        match value {
            Value::Null => Ok(Value::Null),
            Value::Enc(e) => self.decrypt_cell(e.scheme, e.key_id, &e.bytes),
            _ => Err(EncryptError::WrongForm),
        }
    }

    /// Decrypt one non-NULL ciphertext of a column under
    /// `(scheme, key_id)`, read where it lies.
    pub fn decrypt_cell(
        &self,
        scheme: EncScheme,
        key_id: u32,
        cell: &[u8],
    ) -> Result<Value, EncryptError> {
        if key_id != self.key.id {
            return Err(EncryptError::BadCiphertext);
        }
        match scheme {
            EncScheme::Deterministic => {
                let pt = self
                    .det
                    .det_decrypt(cell)
                    .ok_or(EncryptError::BadCiphertext)?;
                Value::from_canonical_bytes(&pt).ok_or(EncryptError::BadCiphertext)
            }
            EncScheme::Random => {
                let pt = self
                    .rnd
                    .rnd_decrypt(cell)
                    .ok_or(EncryptError::BadCiphertext)?;
                Value::from_canonical_bytes(&pt).ok_or(EncryptError::BadCiphertext)
            }
            EncScheme::Ope => {
                let (ty, code) = self.ope.decrypt(cell).ok_or(EncryptError::BadCiphertext)?;
                Ok(match ty {
                    OpeType::Int => Value::Int(ope::code_to_int(code)),
                    OpeType::Num => Value::Num(ope::code_to_num(code)),
                    // The cell came from a peer: a code that decodes
                    // outside the day range is a forgery (or a `Date`
                    // tag on an `Int` ciphertext), not a date.
                    OpeType::Date => Value::Date(mpq_algebra::Date(
                        i32::try_from(ope::code_to_int(code))
                            .map_err(|_| EncryptError::BadCiphertext)?,
                    )),
                })
            }
            EncScheme::Paillier => {
                let (tag, kind, count, c) = decode_paillier_cell(cell)?;
                if tag != 1 && tag != 2 {
                    return Err(EncryptError::BadCiphertext);
                }
                // The ciphertext body came from a peer too: anything
                // but a sum of `count` encoded terms is a forgery.
                let kp = self.key.paillier();
                let v = kp
                    .public
                    .ciphertext(c)
                    .and_then(|c| kp.decode_sum(&c, count))
                    .ok_or(EncryptError::BadCiphertext)?;
                Ok(match kind {
                    // Integer SUMs decode exactly (the old f64 detour
                    // rounded values above 2⁵³); a sum escaping the
                    // i64 range clamps, like the previous saturating
                    // float-to-int cast.
                    AggKind::Single | AggKind::Sum if tag == 1 => {
                        Value::Int(v.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
                    }
                    AggKind::Single | AggKind::Sum => Value::Num(v as f64 / NUM_SCALE),
                    AggKind::Avg if tag == 1 => Value::Num(v as f64 / count.max(1) as f64),
                    AggKind::Avg => Value::Num(v as f64 / NUM_SCALE / count.max(1) as f64),
                })
            }
        }
    }

    /// Decrypt a whole column under [`EncScheme::Random`] as one CTR
    /// run: cell `i` comes out as [`ColumnCipher::decrypt_cell`] makes
    /// it, NULLs pass. The cells came from a peer, so a column under
    /// another key, a cell too short for its nonce, or a body that is no
    /// canonical value is [`EncryptError::BadCiphertext`], never a panic.
    pub fn decrypt_random_column(&self, column: &EncColumn) -> Result<Vec<Value>, EncryptError> {
        if column.scheme() != EncScheme::Random {
            return Err(EncryptError::WrongForm);
        }
        // One key for every cell (a column of NULLs decrypts under any),
        // and in every cell the nonce `ctr_cells` asserts.
        let foreign = column.key_id() != self.key.id && !column.bytes().is_empty();
        if foreign || (0..column.len()).any(|i| (1..8).contains(&column.cell(i).len())) {
            return Err(EncryptError::BadCiphertext);
        }
        let mut plain = column.clone();
        let (ends, bytes) = plain.cells_mut();
        self.rnd.ctr_cells(bytes, ends);
        (0..plain.len())
            .map(|i| match plain.cell(i) {
                [] => Ok(Value::Null),
                cell => Value::from_canonical_bytes(&cell[8..]).ok_or(EncryptError::BadCiphertext),
            })
            .collect()
    }
}

/// `-0.0` as `0.0`: SQL holds them equal, and so do the plaintext
/// engine's hashes, so the schemes that certify equality or order must
/// encrypt them alike.
fn unsigned_zero(cell: CellRef<'_>) -> CellRef<'_> {
    match cell {
        CellRef::Num(f) => CellRef::Num(if f == 0.0 { 0.0 } else { f }),
        cell => cell,
    }
}

/// A cell's OPE type and order code (`None`: NULL). NaN has no place in
/// the order — plaintext refuses to compare it — so it is refused too.
fn ope_code(cell: CellRef<'_>) -> Result<Option<(OpeType, u64)>, EncryptError> {
    Ok(Some(match unsigned_zero(cell) {
        CellRef::Null => return Ok(None),
        CellRef::Enc(..) => return Err(EncryptError::WrongForm),
        CellRef::Int(i) => (OpeType::Int, ope::int_to_code(i)),
        CellRef::Num(f) if f.is_nan() => {
            return Err(EncryptError::UnsupportedType("NaN under OPE"))
        }
        CellRef::Num(f) => (OpeType::Num, ope::num_to_code(f)),
        CellRef::Date(d) => (OpeType::Date, ope::int_to_code(d.0 as i64)),
        CellRef::Str(_) | CellRef::Bool(_) => {
            return Err(EncryptError::UnsupportedType("strings/bools under OPE"))
        }
    }))
}

/// Encrypt a plaintext `Value` under `scheme` with a cluster key.
/// One-shot; batch callers should use [`ColumnCipher`] /
/// [`encrypt_batch`] so the key setup is paid once per column.
pub fn encrypt_value<R: Rng + ?Sized>(
    rng: &mut R,
    value: &Value,
    scheme: EncScheme,
    key: &ClusterKey,
) -> Result<Value, EncryptError> {
    ColumnCipher::new(scheme, key).encrypt(rng, value)
}

/// Decrypt an encrypted cell with the cluster key. NULLs pass through.
/// One-shot; batch callers should use [`ColumnCipher`] /
/// [`decrypt_batch`].
pub fn decrypt_value(value: &Value, key: &ClusterKey) -> Result<Value, EncryptError> {
    // The cell is self-describing, so the prepared scheme is irrelevant
    // for decryption.
    ColumnCipher::new(EncScheme::Deterministic, key).decrypt(value)
}

/// Encrypt a column slice under one scheme/key, paying the key setup
/// once. Randomness is drawn from `rng` value-by-value in slice order.
pub fn encrypt_batch<R: Rng + ?Sized>(
    rng: &mut R,
    values: &[Value],
    scheme: EncScheme,
    key: &ClusterKey,
) -> Result<Vec<Value>, EncryptError> {
    let cipher = ColumnCipher::new(scheme, key);
    let column = cipher.encrypt_column(values, rng)?;
    Ok((0..column.len()).map(|i| column.value(i)).collect())
}

/// Decrypt a column slice with one key, paying the key setup once.
pub fn decrypt_batch(values: &[Value], key: &ClusterKey) -> Result<Vec<Value>, EncryptError> {
    let cipher = ColumnCipher::new(EncScheme::Deterministic, key);
    values.iter().map(|v| cipher.decrypt(v)).collect()
}

/// How a Paillier cell was produced: a single encrypted value, a
/// homomorphic SUM of `count` values, or an AVG (sum that decrypts to
/// the mean).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    /// One encrypted value.
    Single = 0,
    /// Homomorphic sum of `count` terms.
    Sum = 1,
    /// Homomorphic sum of `count` terms, decoded as their mean.
    Avg = 2,
}

/// Append a cell: `tag(1) ‖ kind(1) ‖ count(8, BE) ‖ ciphertext`.
fn write_paillier_cell(
    out: &mut Vec<u8>,
    tag: u8,
    kind: AggKind,
    count: u64,
    c: &PaillierCiphertext,
) {
    out.extend_from_slice(&[tag, kind as u8]);
    out.extend_from_slice(&count.to_be_bytes());
    out.extend_from_slice(&c.0.to_bytes_be());
}

/// The same cell as an [`EncValue`] of its own (aggregation results).
fn paillier_cell(
    key_id: u32,
    tag: u8,
    kind: AggKind,
    count: u64,
    c: &PaillierCiphertext,
) -> EncValue {
    let mut bytes = Vec::with_capacity(10 + 64);
    write_paillier_cell(&mut bytes, tag, kind, count, c);
    EncValue {
        scheme: EncScheme::Paillier,
        key_id,
        bytes: Arc::from(bytes),
    }
}

/// A cell's header and its ciphertext body, unread: telling a body
/// below `n²` takes the key's public half
/// ([`crate::paillier::PaillierPublic::ciphertext`]).
fn decode_paillier_cell(bytes: &[u8]) -> Result<(u8, AggKind, u64, &[u8]), EncryptError> {
    if bytes.len() < 10 {
        return Err(EncryptError::BadCiphertext);
    }
    let tag = bytes[0];
    let kind = match bytes[1] {
        0 => AggKind::Single,
        1 => AggKind::Sum,
        2 => AggKind::Avg,
        _ => return Err(EncryptError::BadCiphertext),
    };
    let count = u64::from_be_bytes(bytes[2..10].try_into().expect("8 bytes"));
    Ok((tag, kind, count, &bytes[10..]))
}

/// Homomorphically add two Paillier cells (same key, same numeric
/// tag); counts accumulate so the sum can be decoded later. Only the
/// *public* key half is needed — aggregating providers never hold the
/// decryption key.
pub fn paillier_add_cells(
    a: &EncValue,
    b: &EncValue,
    pk: &crate::paillier::PaillierPublic,
) -> Result<EncValue, EncryptError> {
    if b.scheme != EncScheme::Paillier {
        return Err(EncryptError::BadCiphertext);
    }
    paillier_add_cell(a, b.key_id, &b.bytes, pk)
}

/// [`paillier_add_cells`] with the second cell read where it lies: the
/// bytes of a Paillier cell under `key_id`, borrowed from its column.
pub fn paillier_add_cell(
    a: &EncValue,
    key_id: u32,
    b: &[u8],
    pk: &crate::paillier::PaillierPublic,
) -> Result<EncValue, EncryptError> {
    if a.scheme != EncScheme::Paillier || a.key_id != key_id {
        return Err(EncryptError::BadCiphertext);
    }
    let (ta, _, ca, pa) = decode_paillier_cell(&a.bytes)?;
    let (tb, _, cb, pb) = decode_paillier_cell(b)?;
    if ta != tb {
        return Err(EncryptError::BadCiphertext);
    }
    // Counts are a peer's word: no real column has 2⁶⁴ terms.
    let count = ca.checked_add(cb).ok_or(EncryptError::BadCiphertext)?;
    let body = |bytes| pk.ciphertext(bytes).ok_or(EncryptError::BadCiphertext);
    let sum = pk.add(&body(pa)?, &body(pb)?);
    Ok(paillier_cell(a.key_id, ta, AggKind::Sum, count, &sum))
}

/// Re-tag an accumulated Paillier sum as SUM or AVG output.
pub fn paillier_finish(cell: &EncValue, kind: AggKind) -> Result<EncValue, EncryptError> {
    if cell.scheme != EncScheme::Paillier {
        return Err(EncryptError::BadCiphertext);
    }
    let (tag, _, count, c) = decode_paillier_cell(&cell.bytes)?;
    // SUM/AVG results are numerics even over integer inputs (AVG) —
    // keep the tag so SUM of ints stays integral.
    let c = PaillierCiphertext(BigUint::from_bytes_be(c));
    Ok(paillier_cell(cell.key_id, tag, kind, count, &c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::Date;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> (ClusterKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(77);
        let k = ClusterKey::generate(&mut rng, 1, 256);
        (k, rng)
    }

    #[test]
    fn det_roundtrip_all_types() {
        let (k, mut rng) = key();
        let values = [
            Value::Int(-5),
            Value::Num(123.45),
            Value::str("stroke"),
            Value::Date(Date::parse("1994-01-01").unwrap()),
            Value::Bool(true),
        ];
        for v in values {
            let enc = encrypt_value(&mut rng, &v, EncScheme::Deterministic, &k).unwrap();
            let dec = decrypt_value(&enc, &k).unwrap();
            assert!(dec.sql_eq(&v), "{v:?}");
        }
    }

    #[test]
    fn det_preserves_equality_hides_value() {
        let (k, mut rng) = key();
        let a = encrypt_value(&mut rng, &Value::str("x"), EncScheme::Deterministic, &k).unwrap();
        let b = encrypt_value(&mut rng, &Value::str("x"), EncScheme::Deterministic, &k).unwrap();
        let c = encrypt_value(&mut rng, &Value::str("y"), EncScheme::Deterministic, &k).unwrap();
        assert!(a.sql_eq(&b));
        assert!(!a.sql_eq(&c));
    }

    #[test]
    fn rnd_hides_equality() {
        let (k, mut rng) = key();
        let a = encrypt_value(&mut rng, &Value::Int(5), EncScheme::Random, &k).unwrap();
        let b = encrypt_value(&mut rng, &Value::Int(5), EncScheme::Random, &k).unwrap();
        assert!(!a.sql_eq(&b), "randomized ciphertexts never compare equal");
        assert!(decrypt_value(&a, &k).unwrap().sql_eq(&Value::Int(5)));
    }

    #[test]
    fn ope_preserves_order() {
        let (k, mut rng) = key();
        let enc = |v: f64, rng: &mut StdRng| {
            encrypt_value(rng, &Value::Num(v), EncScheme::Ope, &k).unwrap()
        };
        let a = enc(10.5, &mut rng);
        let b = enc(100.0, &mut rng);
        let c = enc(100.0, &mut rng);
        assert!(a.sql_cmp(&b).unwrap().is_lt());
        assert!(b.sql_cmp(&c).unwrap().is_eq());
        assert!(decrypt_value(&a, &k).unwrap().sql_eq(&Value::Num(10.5)));
    }

    #[test]
    fn ope_rejects_strings() {
        let (k, mut rng) = key();
        assert_eq!(
            encrypt_value(&mut rng, &Value::str("abc"), EncScheme::Ope, &k).unwrap_err(),
            EncryptError::UnsupportedType("strings/bools under OPE")
        );
    }

    #[test]
    fn signed_zero_encrypts_as_zero_under_det_and_ope() {
        let (k, mut rng) = key();
        for scheme in [EncScheme::Deterministic, EncScheme::Ope] {
            let enc = |v: f64, rng: &mut StdRng| encrypt_value(rng, &Value::Num(v), scheme, &k);
            let zero = enc(0.0, &mut rng).unwrap();
            assert_eq!(enc(-0.0, &mut rng).unwrap(), zero, "{scheme:?}");
            assert_eq!(decrypt_value(&zero, &k).unwrap(), Value::Num(0.0));
            let column = [Value::Num(-0.0), Value::Num(0.0), Value::Num(-0.0)];
            let run = ColumnCipher::new(scheme, &k)
                .encrypt_column(&column, &mut rng)
                .unwrap();
            assert!((0..3).all(|i| run.value(i) == zero), "{scheme:?}");
        }
        // OPE still orders the zero between the negatives and positives.
        let mut ope = |v: f64| encrypt_value(&mut rng, &Value::Num(v), EncScheme::Ope, &k).unwrap();
        let (below, zero, above) = (ope(-1e-300), ope(-0.0), ope(1e-300));
        assert!(below.sql_cmp(&zero).unwrap().is_lt() && zero.sql_cmp(&above).unwrap().is_lt());
    }

    /// The OPE run reads every code before it encrypts one: a bad cell
    /// behind valid dates still fails the run with that row's error,
    /// whatever follows it. NaN has no place in the order, so it is
    /// one such cell.
    #[test]
    fn an_ope_run_fails_with_its_first_failing_row() {
        let (k, mut rng) = key();
        let enc = encrypt_value(&mut rng, &Value::Int(1), EncScheme::Deterministic, &k).unwrap();
        let string = Value::str("1994-01-01");
        let strings = EncryptError::UnsupportedType("strings/bools under OPE");
        let nan = EncryptError::UnsupportedType("NaN under OPE");
        let cipher = ColumnCipher::new(EncScheme::Ope, &k);
        for (first, then, err) in [
            (&enc, &string, EncryptError::WrongForm),
            (&string, &enc, strings.clone()),
            (&Value::Bool(true), &Value::Num(f64::NAN), strings),
            (&Value::Num(f64::NAN), &enc, nan.clone()),
            (&Value::Num(-f64::NAN), &string, nan),
        ] {
            let mut column: Vec<Value> = (0..100).map(|d| Value::Date(Date(9000 + d))).collect();
            column.extend([
                Value::Null,
                first.clone(),
                Value::Date(Date(1)),
                then.clone(),
            ]);
            let run = cipher.encrypt_column(&column, &mut rng);
            assert_eq!(run.err(), Some(err.clone()));
            let one_shot = column.iter().map(|v| cipher.encrypt(&mut rng, v));
            assert_eq!(one_shot.filter_map(Result::err).next(), Some(err));
        }
    }

    /// One run over a `Value` column mixing `Int` and `Date` cells whose
    /// codes coincide, NULLs between: the run shares one ciphertext per
    /// code, and every cell keeps its own type tag. The dense column
    /// takes the code table; the sparse one, spanning far more than 4n
    /// codes, the comparison sort.
    #[test]
    fn an_ope_run_tags_every_cell_with_its_own_type() {
        let (k, mut rng) = key();
        let cipher = ColumnCipher::new(EncScheme::Ope, &k);
        for (name, day) in [
            ("dense", (|i| 9000 + i % 7) as fn(i32) -> i32),
            ("sparse", |i| {
                (1_000_000 + i % 7) * if i % 2 == 0 { 1 } else { -1 }
            }),
        ] {
            let column: Vec<Value> = (0..400)
                .map(|i| match i % 3 {
                    0 => Value::Int(i64::from(day(i))),
                    1 => Value::Date(Date(day(i))),
                    _ => Value::Null,
                })
                .collect();
            let run = cipher.encrypt_column(&column, &mut rng).unwrap();
            for (i, v) in column.iter().enumerate() {
                let one = cipher.encrypt(&mut rng, v).unwrap();
                assert_eq!(run.value(i), one, "{name} row {i}");
                if !v.is_null() {
                    let tag = if matches!(v, Value::Int(_)) {
                        OpeType::Int
                    } else {
                        OpeType::Date
                    };
                    assert_eq!(run.cell(i)[0], tag as u8, "{name} row {i}");
                    let back = cipher.decrypt_cell(EncScheme::Ope, k.id, run.cell(i));
                    assert_eq!(back.as_ref(), Ok(v), "{name} row {i}");
                }
            }
        }
    }

    #[test]
    fn paillier_sum_roundtrip() {
        let (k, mut rng) = key();
        let prices = [120.0_f64, 80.5, 99.5];
        let cells: Vec<EncValue> = prices
            .iter()
            .map(|p| {
                match encrypt_value(&mut rng, &Value::Num(*p), EncScheme::Paillier, &k).unwrap() {
                    Value::Enc(e) => e,
                    _ => unreachable!(),
                }
            })
            .collect();
        let mut acc = cells[0].clone();
        for c in &cells[1..] {
            acc = paillier_add_cells(&acc, c, &k.paillier_public()).unwrap();
        }
        let sum_cell = paillier_finish(&acc, AggKind::Sum).unwrap();
        let sum = decrypt_value(&Value::Enc(sum_cell), &k).unwrap();
        let expected: f64 = prices.iter().sum();
        match sum {
            Value::Num(f) => assert!((f - expected).abs() < 1e-9, "{f} vs {expected}"),
            other => panic!("expected Num, got {other:?}"),
        }
        // AVG decoding divides by the term count.
        let avg_cell = paillier_finish(&acc, AggKind::Avg).unwrap();
        let avg = decrypt_value(&Value::Enc(avg_cell), &k).unwrap();
        match avg {
            Value::Num(f) => {
                assert!(
                    (f - expected / 3.0).abs() < 1e-9,
                    "{f} vs {}",
                    expected / 3.0
                )
            }
            other => panic!("expected Num, got {other:?}"),
        }
    }

    #[test]
    fn paillier_int_roundtrip_is_exact_above_2_pow_53() {
        let (k, mut rng) = key();
        // 2⁵³ + 1 is not representable in f64; the decode path must not
        // round-trip through floats.
        for v in [
            (1i64 << 53) + 1,
            -(1i64 << 53) - 1,
            i64::MAX - 7,
            i64::MIN + 7,
        ] {
            let enc = encrypt_value(&mut rng, &Value::Int(v), EncScheme::Paillier, &k).unwrap();
            assert_eq!(decrypt_value(&enc, &k).unwrap(), Value::Int(v), "{v}");
        }
    }

    /// A fresh generator per row, seeded from the row's position: how
    /// the engine makes a ciphertext a function of `(seed, …, row)`.
    struct SeededRows(Option<StdRng>);

    fn row_seed(row: usize) -> u64 {
        0xC0FFEE ^ (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    impl RowRng for SeededRows {
        type Rng = StdRng;
        fn row(&mut self, row: usize) -> &mut StdRng {
            self.0.insert(StdRng::seed_from_u64(row_seed(row)))
        }
    }

    #[test]
    fn batch_matches_one_shot() {
        let (k, _) = key();
        let mixed: Vec<Value> = vec![Value::Int(7), Value::Null, Value::Num(1.25), Value::Int(-3)];
        let all_schemes = [
            EncScheme::Deterministic,
            EncScheme::Random,
            EncScheme::Ope,
            EncScheme::Paillier,
        ];
        let symmetric = &all_schemes[..2];
        // Columns shaped like the ones an OPE run shares work on: 10 k
        // dates over ~2,500 days (the code table), and an 11-value
        // numeric (the comparison sort).
        let mut pick = StdRng::seed_from_u64(8);
        let dates: Vec<Value> = (0..10_000)
            .map(|_| Value::Date(Date(8035 + pick.gen_range(0..2526))))
            .collect();
        let discounts: Vec<Value> = (0..10_000)
            .map(|_| Value::Num(f64::from(pick.gen_range(0..11)) / 100.0))
            .collect();
        // Columns the block kernel sees as one buffer: fixed-width
        // cells, strings from empty to several blocks, NULLs between —
        // counts that are no multiple of the lane count.
        let ints: Vec<Value> = (0..1_001).map(|_| Value::Int(pick.gen())).collect();
        let strings: Vec<Value> = (0..1_003)
            .map(|i| match pick.gen_range(0..8) {
                0 => Value::Null,
                _ => Value::str(&"Customer#000 ".repeat(8)[..i * 7 % 61]),
            })
            .collect();
        let short_dates = &dates[..999];
        for (values, schemes) in [
            (&mixed[..], &all_schemes[..]),
            (&dates[..], &[EncScheme::Ope][..]),
            (&discounts[..], &[EncScheme::Ope][..]),
            (&ints[..], symmetric),
            (&strings[..], symmetric),
            (short_dates, symmetric),
        ] {
            for &scheme in schemes {
                // Identical RNG stream → identical ciphertext bytes.
                let batch =
                    encrypt_batch(&mut StdRng::seed_from_u64(5), values, scheme, &k).unwrap();
                let mut rng = StdRng::seed_from_u64(5);
                let single: Vec<Value> = values
                    .iter()
                    .map(|v| encrypt_value(&mut rng, v, scheme, &k).unwrap())
                    .collect();
                assert_eq!(batch, single, "{scheme:?}");
                let dec = decrypt_batch(&batch, &k).unwrap();
                for (d, v) in dec.iter().zip(values) {
                    assert!(d.sql_eq(v) || (d.is_null() && v.is_null()), "{scheme:?}");
                }
                // The column entry under per-row seeding, against the
                // one-shot path under the same seeds — and a NULL is
                // the empty cell.
                let cipher = ColumnCipher::new(scheme, &k);
                let column = cipher.encrypt_column(values, SeededRows(None)).unwrap();
                assert_eq!(column.len(), values.len());
                for (i, v) in values.iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(row_seed(i));
                    let want = encrypt_value(&mut rng, v, scheme, &k).unwrap();
                    assert_eq!(column.value(i), want, "{scheme:?} row {i}");
                    assert_eq!(column.cell(i).is_empty(), v.is_null());
                    if !v.is_null() {
                        let back = cipher.decrypt_cell(scheme, k.id, column.cell(i)).unwrap();
                        assert!(back.sql_eq(v), "{scheme:?} row {i}");
                    }
                }
            }
        }
    }

    /// Cells arrive from peers. A Paillier cell with the right header
    /// over arbitrary bytes decrypts to a plaintext as wide as the
    /// modulus — `decode_sum` used to `assert!` on it, in release, in
    /// the key holder's serve loop or its session's walk — and forged
    /// term counts overflowed their sum.
    #[test]
    fn forged_paillier_cells_are_typed_errors_not_panics() {
        let (k, mut rng) = key();
        let cell = |tag: u8, kind: u8, count: u64, body: &[u8]| {
            let mut bytes = vec![tag, kind];
            bytes.extend_from_slice(&count.to_be_bytes());
            bytes.extend_from_slice(body);
            EncValue {
                scheme: EncScheme::Paillier,
                key_id: k.id,
                bytes: Arc::from(bytes),
            }
        };
        let garbage: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(167) | 1).collect();
        let bad = Err(EncryptError::BadCiphertext);
        // An arbitrary body, an empty one (the ciphertext 0), a body
        // wider than n².
        for body in [&garbage[..], &[], &[0xAB; 200]] {
            assert_eq!(decrypt_value(&Value::Enc(cell(1, 0, 1, body)), &k), bad);
        }
        let Value::Enc(real) =
            encrypt_value(&mut rng, &Value::Int(5), EncScheme::Paillier, &k).unwrap()
        else {
            unreachable!()
        };
        let body = &real.bytes[10..];
        // An unknown numeric tag is refused, before anything is
        // decrypted; so is a sum of more terms than a `u64` counts.
        let pk = k.paillier_public();
        let huge = cell(1, 1, u64::MAX, body);
        assert_eq!(decrypt_value(&Value::Enc(cell(9, 1, 1, body)), &k), bad);
        assert_eq!(
            paillier_add_cells(&huge, &real, &pk),
            Err(EncryptError::BadCiphertext)
        );
        // A body ≥ n² is refused before it is reduced: reducing 64 KiB
        // took ≈ 4 s, and the long division is quadratic in the body's
        // length. The honest body plus n² is the same residue, refused
        // all the same.
        let wide: Vec<u8> = (0..64 << 10)
            .map(|i| (i as u8).wrapping_mul(167) | 1)
            .collect();
        let plus_n2 = BigUint::from_bytes_be(body).add(&pk.n2).to_bytes_be();
        for body in [&wide[..], &plus_n2] {
            let forged = cell(1, 0, 1, body);
            let start = std::time::Instant::now();
            for (a, b) in [(&real, &forged), (&forged, &real)] {
                assert_eq!(
                    paillier_add_cells(a, b, &pk),
                    Err(EncryptError::BadCiphertext)
                );
            }
            assert_eq!(decrypt_value(&Value::Enc(forged), &k), bad);
            assert!(start.elapsed() < std::time::Duration::from_millis(10));
        }
        // The honest neighbours still work, leading zero bytes or not.
        let sum = paillier_add_cells(&real, &real, &pk).unwrap();
        assert_eq!(decrypt_value(&Value::Enc(sum), &k), Ok(Value::Int(10)));
        let padded = cell(1, 0, 1, &[&[0; 1 << 16][..], body].concat());
        assert_eq!(decrypt_value(&Value::Enc(padded), &k), Ok(Value::Int(5)));
    }

    #[test]
    fn forged_ope_date_outside_the_day_range_is_rejected() {
        // A well-formed OPE cell under the right key whose `Date` tag
        // sits on a code no `i32` day count produces: a provider's
        // forgery, or a `Date` tag pasted onto an `Int` ciphertext.
        let (k, _) = key();
        let ope_key = OpeKey::new(&k.ope_key());
        let cell = |code: u64| {
            let mut bytes = None;
            ope_key.encrypt_run(&[Some((OpeType::Date, code))], |c| bytes = c);
            Value::Enc(EncValue {
                scheme: EncScheme::Ope,
                key_id: k.id,
                bytes: Arc::new(bytes.expect("one non-NULL cell")),
            })
        };
        for day in [i64::from(i32::MAX) + 1, i64::from(i32::MIN) - 1, i64::MAX] {
            assert_eq!(
                decrypt_value(&cell(ope::int_to_code(day)), &k),
                Err(EncryptError::BadCiphertext),
                "day count {day}"
            );
        }
        for day in [i32::MIN, -1, 0, i32::MAX] {
            assert_eq!(
                decrypt_value(&cell(ope::int_to_code(i64::from(day))), &k),
                Ok(Value::Date(Date(day)))
            );
        }
    }

    #[test]
    fn wrong_key_fails() {
        let (k1, mut rng) = key();
        let k2 = ClusterKey::generate(&mut rng, 2, 256);
        let enc = encrypt_value(&mut rng, &Value::Int(1), EncScheme::Deterministic, &k1).unwrap();
        assert_eq!(
            decrypt_value(&enc, &k2).unwrap_err(),
            EncryptError::BadCiphertext
        );
        // Same id, different material: the garbled plaintext is a typed
        // error (or, rarely, some other value), never a panic.
        let k3 = ClusterKey::generate(&mut rng, k1.id, 256);
        for scheme in [EncScheme::Deterministic, EncScheme::Random] {
            let enc = encrypt_value(&mut rng, &Value::Int(1), scheme, &k1).unwrap();
            assert_ne!(decrypt_value(&enc, &k3), Ok(Value::Int(1)), "{scheme:?}");
        }
    }

    /// A Random column decrypted as one run equals its cells decrypted
    /// one by one, and a forged cell is a typed error, never a panic.
    #[test]
    fn a_random_column_decrypts_as_its_cells_do() {
        let (k, mut rng) = key();
        let cipher = ColumnCipher::new(EncScheme::Random, &k);
        let values: Vec<Value> = (0..300)
            .map(|i| match i % 6 {
                0 => Value::Int(rng.gen()),
                1 => Value::Num(rng.gen_range(-1e6..1e6)),
                2 => Value::Date(Date(rng.gen_range(0..20_000))),
                // TPC-H's widest strings (comments) run to 117 bytes.
                3 => Value::str(&"Customer#000012345 furiously ".repeat(5)[..i % 118]),
                4 => Value::Null,
                _ => Value::Bool(i % 4 == 1),
            })
            .collect();
        let column = cipher.encrypt_column(&values, &mut rng).unwrap();
        let decrypted = cipher.decrypt_random_column(&column).unwrap();
        let one_by_one: Vec<Value> = (0..column.len())
            .map(|i| match column.cell(i) {
                [] => Value::Null,
                cell => cipher.decrypt_cell(EncScheme::Random, k.id, cell).unwrap(),
            })
            .collect();
        assert_eq!(decrypted, one_by_one);
        assert_eq!(decrypted, values);
        let nulls = EncColumn::from_parts(EncScheme::Random, k.id + 1, vec![0; 3], vec![]);
        assert_eq!(
            cipher.decrypt_random_column(&nulls.unwrap()),
            Ok(vec![Value::Null; 3])
        );

        // Forgeries beside a well-formed cell and a NULL.
        let good = column.cell(0);
        let forged = |cell: &[u8], key_id| {
            let mut column = EncColumn::new(EncScheme::Random, key_id);
            for cell in [good, &[], cell] {
                column.push(cell);
            }
            cipher.decrypt_random_column(&column)
        };
        for len in 1..8 {
            assert_eq!(forged(&good[..len], k.id), Err(EncryptError::BadCiphertext));
        }
        let junk = [0xEE; 5];
        assert_eq!(Value::from_canonical_bytes(&junk), None);
        let junk = XteaSchedule::new(&k.rnd_key()).rnd_encrypt(7, &junk);
        assert_eq!(forged(&junk, k.id), Err(EncryptError::BadCiphertext));
        assert_eq!(forged(good, k.id + 1), Err(EncryptError::BadCiphertext));
        let det = EncColumn::new(EncScheme::Deterministic, k.id);
        assert_eq!(
            cipher.decrypt_random_column(&det),
            Err(EncryptError::WrongForm)
        );
    }

    #[test]
    fn null_passes_through() {
        let (k, mut rng) = key();
        let enc = encrypt_value(&mut rng, &Value::Null, EncScheme::Random, &k).unwrap();
        assert!(enc.is_null());
        assert!(decrypt_value(&Value::Null, &k).unwrap().is_null());
    }

    #[test]
    fn double_encryption_rejected() {
        let (k, mut rng) = key();
        let enc = encrypt_value(&mut rng, &Value::Int(1), EncScheme::Deterministic, &k).unwrap();
        assert_eq!(
            encrypt_value(&mut rng, &enc, EncScheme::Random, &k).unwrap_err(),
            EncryptError::WrongForm
        );
    }
}
