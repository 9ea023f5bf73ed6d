//! Cell-level inspection of tables crossing subject boundaries.
//!
//! The static checks of `mpq_core` reason over *profiles*; this module
//! is the belt-and-braces runtime counterpart operating on the actual
//! data: before a table is handed to a subject, every cell is checked
//! against the recipient's overall view `[P_S, E_S]`:
//!
//! * an attribute in `P_S` may arrive in any form (plaintext authority
//!   implies encrypted visibility);
//! * an attribute in `E_S \ P_S` must arrive as ciphertext — a
//!   plaintext cell is a [`SimError::LeakedPlaintext`];
//! * an attribute in neither set must not arrive at all
//!   ([`SimError::InvisibleAttribute`]).
//!
//! NULLs carry no value and pass in either form, matching the
//! encryption layer (`mpq_crypto::schemes` passes NULL through).

use crate::error::SimError;
use mpq_core::authz::SubjectView;
use mpq_exec::{ColumnVec, Table};

/// Check that every cell of `table` is in a form `recipient` is
/// authorized to see. Called on every table that crosses a
/// subject-to-subject edge (including the final result handed to the
/// querying user).
///
/// Column-major fast path: each column's *required form* is resolved
/// once against the view — plaintext-visible columns are skipped
/// entirely, invisible columns are refused before any row is read —
/// and only the encrypted-only columns are looked at. Typed columns
/// answer without their cells being read: a typed numeric column can
/// hold no ciphertext, so it is refused at its first row, and an
/// encrypted column can hold nothing else, so it passes whole. Only a
/// general column is scanned. The reported violation is the first one
/// in row order, identical to a sequential row scan.
pub fn audit_transfer(table: &Table, recipient: &SubjectView) -> Result<(), SimError> {
    // Column-level visibility first: a column the recipient cannot see
    // in any form is refused outright, rows notwithstanding.
    for &attr in table.attrs() {
        if !recipient.plain.contains(attr) && !recipient.enc.contains(attr) {
            return Err(SimError::InvisibleAttribute {
                attr,
                subject: recipient.subject,
            });
        }
    }
    // Cell-level form check for encrypted-only columns: the earliest
    // violation in (row, column) order — the same cell a row-major
    // scan reports.
    let first = (table.attrs().iter().enumerate())
        .filter(|(_, a)| !recipient.plain.contains(**a))
        .filter_map(|(i, &attr)| Some((first_plaintext_cell(table.column(i))?, i, attr)))
        .min();
    match first {
        Some((_, _, attr)) => Err(SimError::LeakedPlaintext {
            attr,
            subject: recipient.subject,
        }),
        None => Ok(()),
    }
}

/// Row index of the first plaintext non-NULL cell of `col`, if any.
fn first_plaintext_cell(col: &ColumnVec) -> Option<usize> {
    match col {
        // Typed plaintext columns hold only plaintext non-NULLs: every
        // row violates an encrypted-only view.
        ColumnVec::Int(_) | ColumnVec::Num(_) | ColumnVec::Date(_) | ColumnVec::Str(_) => {
            (!col.is_empty()).then_some(0)
        }
        // The mirror image: ciphertexts and NULLs are all an encrypted
        // column can hold.
        ColumnVec::Enc(_) => None,
        ColumnVec::Val(vals) => vals
            .iter()
            .position(|v| !matches!(v, mpq_algebra::Value::Enc(_) | mpq_algebra::Value::Null)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::value::{EncScheme, EncValue};
    use mpq_algebra::{AttrId, SubjectId, Value};
    use mpq_core::authz::SubjectView;
    use std::sync::Arc;

    fn view(plain: &[u32], enc: &[u32]) -> SubjectView {
        SubjectView {
            subject: SubjectId(9),
            plain: plain.iter().map(|&a| AttrId(a)).collect(),
            enc: enc.iter().map(|&a| AttrId(a)).collect(),
        }
    }

    fn cipher() -> Value {
        Value::Enc(EncValue {
            scheme: EncScheme::Deterministic,
            key_id: 0,
            bytes: Arc::from(vec![1, 2, 3]),
        })
    }

    #[test]
    fn plaintext_ok_for_plain_view() {
        let t = Table::from_rows(vec![AttrId(0)], vec![vec![Value::Int(1)]]);
        assert!(audit_transfer(&t, &view(&[0], &[])).is_ok());
    }

    #[test]
    fn ciphertext_ok_for_enc_only_view() {
        let t = Table::from_rows(vec![AttrId(0)], vec![vec![cipher()]]);
        assert!(audit_transfer(&t, &view(&[], &[0])).is_ok());
    }

    #[test]
    fn ciphertext_ok_for_plain_view_too() {
        // Plaintext authority implies encrypted visibility.
        let t = Table::from_rows(vec![AttrId(0)], vec![vec![cipher()]]);
        assert!(audit_transfer(&t, &view(&[0], &[])).is_ok());
    }

    #[test]
    fn plaintext_leak_to_enc_only_view_refused() {
        let t = Table::from_rows(vec![AttrId(0)], vec![vec![Value::Int(7)]]);
        assert_eq!(
            audit_transfer(&t, &view(&[], &[0])),
            Err(SimError::LeakedPlaintext {
                attr: AttrId(0),
                subject: SubjectId(9)
            })
        );
    }

    #[test]
    fn leak_in_typed_column_is_caught() {
        // A densified numeric column (no Value wrappers at all) still
        // violates an encrypted-only view.
        let t = Table::from_rows(
            vec![AttrId(0)],
            vec![vec![Value::Num(1.0)], vec![Value::Num(2.0)]],
        );
        assert!(t.column(0).as_nums().is_some(), "column densified");
        assert_eq!(
            audit_transfer(&t, &view(&[], &[0])),
            Err(SimError::LeakedPlaintext {
                attr: AttrId(0),
                subject: SubjectId(9)
            })
        );
    }

    /// Typed text and date columns are plaintext wholesale: refused at
    /// their first row.
    #[test]
    fn leak_in_typed_text_or_date_column_is_caught_at_row_zero() {
        use mpq_algebra::Date;
        for cell in [Value::str("alice"), Value::Date(Date(9))] {
            let t = Table::from_rows(vec![AttrId(0)], vec![vec![cell.clone()]; 3]);
            let col = t.column(0);
            assert!(matches!(col, ColumnVec::Str(_) | ColumnVec::Date(_)));
            assert_eq!(first_plaintext_cell(col), Some(0));
            assert_eq!(
                audit_transfer(&t, &view(&[], &[0])),
                Err(SimError::LeakedPlaintext {
                    attr: AttrId(0),
                    subject: SubjectId(9)
                })
            );
            assert!(audit_transfer(&t, &view(&[0], &[])).is_ok());
        }
    }

    #[test]
    fn an_encrypted_column_passes_and_a_general_one_is_still_scanned() {
        let cells = |plain: Option<usize>| {
            (0..2_000).map(move |i| match i {
                _ if Some(i) == plain => Value::Int(7),
                _ if i % 7 == 3 => Value::Null,
                _ => cipher(),
            })
        };
        let table = |col: ColumnVec| Table::from_columns(vec![AttrId(0)].into(), vec![col]);
        let enc: ColumnVec = cells(None).collect();
        assert!(matches!(enc, ColumnVec::Enc(_)), "uniform ciphertexts");
        assert!(audit_transfer(&table(enc), &view(&[], &[0])).is_ok());
        // One plaintext cell among the ciphertexts degrades the column,
        // and the scan finds it where it is.
        for at in [0, 1_234, 1_999] {
            let hiding: ColumnVec = cells(Some(at)).collect();
            assert!(matches!(hiding, ColumnVec::Val(_)));
            assert_eq!(first_plaintext_cell(&hiding), Some(at));
            assert_eq!(
                audit_transfer(&table(hiding), &view(&[], &[0])),
                Err(SimError::LeakedPlaintext {
                    attr: AttrId(0),
                    subject: SubjectId(9)
                })
            );
        }
    }

    /// Across columns the earliest leaking row wins, and within a row
    /// the leftmost column: the cell a row-major scan meets first.
    #[test]
    fn the_first_leak_in_row_major_order_is_reported() {
        let column = |leak: usize| -> ColumnVec {
            (0..8)
                .map(|r| if r >= leak { Value::Int(1) } else { cipher() })
                .collect()
        };
        let leaked = |leaks: [usize; 2]| {
            let t =
                Table::from_columns(vec![AttrId(0), AttrId(1)].into(), leaks.map(column).into());
            match audit_transfer(&t, &view(&[], &[0, 1])) {
                Err(SimError::LeakedPlaintext { attr, .. }) => attr,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(leaked([5, 2]), AttrId(1));
        assert_eq!(leaked([2, 5]), AttrId(0));
        assert_eq!(leaked([3, 3]), AttrId(0));
    }

    #[test]
    fn invisible_column_refused_even_when_empty() {
        let t = Table::new(vec![AttrId(3)]);
        assert_eq!(
            audit_transfer(&t, &view(&[0, 1], &[2])),
            Err(SimError::InvisibleAttribute {
                attr: AttrId(3),
                subject: SubjectId(9)
            })
        );
    }

    #[test]
    fn nulls_pass_in_any_form() {
        let t = Table::from_rows(vec![AttrId(0)], vec![vec![Value::Null]]);
        assert!(audit_transfer(&t, &view(&[], &[0])).is_ok());
    }
}
