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
use mpq_algebra::AttrId;
use mpq_core::authz::SubjectView;
use mpq_exec::{ColumnVec, Table};

/// Check that every cell of `table` is in a form `recipient` is
/// authorized to see: the batched audit the party core runs, over one
/// batch.
pub fn audit_transfer(table: &Table, recipient: &SubjectView) -> Result<(), SimError> {
    audit_batches(table.attrs(), std::slice::from_ref(table), recipient)
}

/// Check that every cell of the table `batches` concatenate to — under
/// the columns `attrs` — is in a form `recipient` is authorized to
/// see, batch by batch, without concatenating them. Called on every
/// result that crosses a subject-to-subject edge (including the final
/// result handed to the querying user).
///
/// Column-major fast path: each column's *required form* is resolved
/// once against the view — plaintext-visible columns are skipped
/// entirely, invisible columns are refused before any row is read —
/// and only the encrypted-only columns are looked at. Typed columns
/// answer without their cells being read: a typed numeric column can
/// hold no ciphertext, so it is refused at its first row, and an
/// encrypted column can hold nothing else, so it passes whole. Only a
/// general column is scanned. The reported violation is the first one
/// in row order — the first batch holding one, and in it the earliest
/// (row, column) — identical to a sequential row scan of the whole.
pub(crate) fn audit_batches(
    attrs: &[AttrId],
    batches: &[Table],
    recipient: &SubjectView,
) -> Result<(), SimError> {
    // Column-level visibility first: a column the recipient cannot see
    // in any form is refused outright, rows notwithstanding.
    for &attr in attrs {
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
    for batch in batches {
        let first = (attrs.iter().enumerate())
            .filter(|(_, a)| !recipient.plain.contains(**a))
            .filter_map(|(i, &attr)| Some((first_plaintext_cell(batch.column(i))?, i, attr)))
            .min();
        if let Some((_, _, attr)) = first {
            return Err(SimError::LeakedPlaintext {
                attr,
                subject: recipient.subject,
            });
        }
    }
    Ok(())
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
        assert!(matches!(t.column(0), ColumnVec::Num(_)), "column densified");
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

    /// Batch by batch, the audit returns what it returns for the table
    /// the batches concatenate to: the same first leak wherever it lies
    /// — the first row of a later batch, a left column of an earlier row
    /// — whatever each batch's columns are held as; and no batch at all
    /// is still refused an invisible column.
    #[test]
    fn batches_audit_as_the_table_they_concatenate_to() {
        use mpq_exec::Batches;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let schema = |n: u32| mpq_exec::TableSchema::new((0..n).map(AttrId).collect());
        let split = |width: u32, rows: Vec<Vec<Value>>, cuts: &[usize]| {
            let mut batches = Vec::new();
            let mut rows = rows.into_iter();
            for pair in cuts.windows(2) {
                let batch = rows.by_ref().take(pair[1] - pair[0]).collect();
                batches.push(Table::from_rows(schema(width).attrs().to_vec(), batch));
            }
            Batches {
                schema: schema(width),
                batches,
            }
        };
        let same = |b: &Batches, view: &SubjectView| {
            let whole = audit_transfer(&b.clone().into_table(), view);
            assert_eq!(audit_batches(b.schema.attrs(), &b.batches, view), whole);
            whole
        };
        let leaked = |attr| {
            Err(SimError::LeakedPlaintext {
                attr: AttrId(attr),
                subject: SubjectId(9),
            })
        };
        let enc_only = view(&[], &[0, 1]);
        // The first row of a later batch: that batch's column is typed.
        let later = split(
            2,
            vec![
                vec![cipher(), cipher()],
                vec![cipher(), Value::Null],
                vec![cipher(), Value::Int(1)],
                vec![Value::Int(2), Value::Int(3)],
            ],
            &[0, 2, 4],
        );
        assert_eq!(same(&later, &enc_only), leaked(1));
        // The earliest row wins, whatever the column: a leak in the left
        // column of an earlier row, then one in its right column.
        for (first, second, attr) in [(0, 1, 0), (1, 0, 1)] {
            let mut rows = vec![vec![cipher(), cipher()]; 3];
            rows[1][first] = Value::Int(4);
            rows[2][second] = Value::Int(5);
            assert_eq!(same(&split(2, rows, &[0, 1, 3]), &enc_only), leaked(attr));
        }
        let empty = Batches {
            schema: schema(4),
            batches: vec![],
        };
        assert_eq!(
            same(&empty, &view(&[0, 1], &[2])),
            Err(SimError::InvisibleAttribute {
                attr: AttrId(3),
                subject: SubjectId(9)
            })
        );
        let visible = Batches {
            schema: schema(2),
            batches: vec![],
        };
        assert_eq!(same(&visible, &enc_only), Ok(()));
        // Random splits, leaks and views: every outcome occurs.
        let mut outcomes = HashSet::new();
        for seed in 0..500 {
            let rng = &mut StdRng::seed_from_u64(seed);
            let (width, rows) = (rng.gen_range(1..4), rng.gen_range(0..10));
            let typed = rng.gen_range(0..width + 2);
            let cells: Vec<Vec<Value>> = (0..rows)
                .map(|_| {
                    (0..width)
                        .map(|c| match rng.gen_range(0..12) {
                            _ if c == typed => Value::Int(6),
                            0 => Value::Int(7),
                            1 | 2 => Value::Null,
                            _ => cipher(),
                        })
                        .collect()
                })
                .collect();
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..4))
                .map(|_| rng.gen_range(0..=rows))
                .collect();
            cuts.extend([0, rows]);
            cuts.sort_unstable();
            let b = split(width as u32, cells, &cuts);
            let plain: Vec<u32> = (0..width as u32)
                .filter(|_| rng.gen_range(0..3) == 0)
                .collect();
            let enc: Vec<u32> = (0..width as u32 + 1)
                .filter(|_| rng.gen_range(0..8) > 0)
                .collect();
            let outcome = same(&b, &view(&plain, &enc));
            outcomes.insert(outcome.map_err(|e| std::mem::discriminant(&e)));
        }
        assert_eq!(outcomes.len(), 3, "clean, leaking and invisible splits");
    }

    #[test]
    fn nulls_pass_in_any_form() {
        let t = Table::from_rows(vec![AttrId(0)], vec![vec![Value::Null]]);
        assert!(audit_transfer(&t, &view(&[], &[0])).is_ok());
    }
}
