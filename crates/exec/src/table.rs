//! The one relation container, and the in-memory database.
//!
//! A [`Table`] is a [`TableSchema`] plus one [`ColumnVec`] per column,
//! all of equal length. It is what a base relation is stored as, what
//! flows between operators (a *batch* is a table of at most
//! `batch_rows` rows), and what a stream collects into at pipeline
//! breakers (joins' build sides, group-by, sort). A region's result —
//! what crosses subject boundaries in the distributed runtime — is
//! [`Batches`]: the batches its pipeline emitted, put back together by
//! [`Batches::into_table`] only where one table is wanted. Operators move
//! columns; rows exist only where something is row-shaped by nature —
//! [`Table::from_rows`] / [`Table::push_row`] for loaders,
//! [`Table::to_rows`] / [`Table::row`] for the row oracle, `display`,
//! result checkers and tests.

use crate::batch::{ColumnVec, TableSchema};
use mpq_algebra::{AttrId, Catalog, RelId, Value};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// A relation, or one bounded batch of one: ordered columns (attribute
/// ids, possibly repeated for multi-aggregate outputs) and one column
/// vector per column, all of equal length.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    schema: TableSchema,
    cols: Vec<ColumnVec>,
}

impl Table {
    /// Empty table with the given columns.
    pub fn new(attrs: Vec<AttrId>) -> Table {
        let schema = TableSchema::new(attrs);
        let cols = (0..schema.len()).map(|_| ColumnVec::new()).collect();
        Table { schema, cols }
    }

    /// Table over `schema` from its columns.
    ///
    /// # Panics
    /// When the column count does not match the schema or the columns
    /// have unequal lengths.
    pub fn from_columns(schema: TableSchema, cols: Vec<ColumnVec>) -> Table {
        assert_eq!(schema.len(), cols.len(), "table column count mismatch");
        if let Some(first) = cols.first() {
            assert!(
                cols.iter().all(|c| c.len() == first.len()),
                "table column length mismatch"
            );
        }
        Table { schema, cols }
    }

    /// Table from value rows (loaders and tests).
    pub fn from_rows(attrs: Vec<AttrId>, rows: Vec<Vec<Value>>) -> Table {
        let mut table = Table::new(attrs);
        for row in rows {
            table.push_row(row);
        }
        table
    }

    /// Materialize as value rows (the row oracle, result checkers and
    /// tests; operators use the columnar accessors).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }

    /// The schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Output column attributes in order.
    pub fn attrs(&self) -> &[AttrId] {
        self.schema.attrs()
    }

    /// All columns in order.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.cols
    }

    /// Consume into the raw columns.
    pub fn into_columns(self) -> Vec<ColumnVec> {
        self.cols
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.cols[i]
    }

    /// Index of the first column carrying `attr`.
    pub fn col_index(&self, attr: AttrId) -> Option<usize> {
        self.schema.col_index(attr)
    }

    /// Cell at (`col`, `row`) as a logical value.
    pub fn value(&self, col: usize, row: usize) -> Value {
        self.cols[col].get(row)
    }

    /// Row `i` as logical values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// Append one row (loaders and tests).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.push(v);
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, ColumnVec::len)
    }

    /// `true` when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the rows in `range`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Table {
        Table {
            schema: self.schema.clone(),
            cols: self.cols.iter().map(|c| c.slice(range.clone())).collect(),
        }
    }

    /// Total payload bytes (drives the network-cost accounting in the
    /// distributed runtime).
    pub fn byte_size(&self) -> usize {
        self.cols.iter().map(ColumnVec::byte_size).sum()
    }

    /// Render as an aligned text table (examples and debugging).
    pub fn display(&self, catalog: &Catalog) -> String {
        let headers: Vec<String> = self
            .attrs()
            .iter()
            .map(|a| catalog.attr_name(*a).to_string())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = (0..self.len())
            .map(|i| self.row(i).iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in &rendered {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A relation as the batches a pipeline emitted, in row order, under
/// one schema: a region's result, kept as it was made on its way to
/// the consumer's operators (across a subject edge too), so nothing
/// between producer and consumer copies or reassembles it.
#[derive(Clone, Debug, Default)]
pub struct Batches {
    /// The columns of every batch.
    pub schema: TableSchema,
    /// The batches, in row order.
    pub batches: Vec<Table>,
}

impl Batches {
    /// Total payload bytes: the concatenated table's
    /// [`Table::byte_size`].
    pub fn byte_size(&self) -> usize {
        self.batches.iter().map(Table::byte_size).sum()
    }

    /// The one table the batches concatenate to, appending column-wise
    /// ([`ColumnVec::append`]): the one place batches are put back
    /// together. A single batch is that table already.
    pub fn into_table(mut self) -> Table {
        if self.batches.len() == 1 {
            return self.batches.pop().expect("one batch");
        }
        let mut cols: Vec<ColumnVec> = vec![ColumnVec::new(); self.schema.len()];
        for batch in self.batches {
            for (acc, col) in cols.iter_mut().zip(batch.into_columns()) {
                acc.append(col);
            }
        }
        Table::from_columns(self.schema, cols)
    }
}

impl From<Table> for Batches {
    /// One batch.
    fn from(table: Table) -> Batches {
        let schema = table.schema().clone();
        Batches {
            schema,
            batches: vec![table],
        }
    }
}

/// A stored column's dictionary: its distinct values in order of first
/// appearance, and for every row the position of its value among them.
/// Plaintext derived from the stored relation alone, built on first use
/// by [`Database::dictionary`].
#[derive(Debug)]
pub(crate) struct Dictionary {
    pub(crate) values: ColumnVec,
    pub(crate) codes: Vec<u32>,
}

impl Dictionary {
    /// The dictionary of a typed `Int` / `Num` (keyed by bits) / `Date`
    /// / `Str` column whose distinct values are at most half its rows;
    /// `None` for any other column.
    fn build(col: &ColumnVec) -> Option<Dictionary> {
        let rows = col.len();
        let (firsts, codes) = match col {
            ColumnVec::Int(v) => number_values(rows, v.iter()),
            ColumnVec::Num(v) => number_values(rows, v.iter().map(|f| f.to_bits())),
            ColumnVec::Date(v) => number_values(rows, v.iter()),
            ColumnVec::Str(c) => number_values(rows, c.cells(0..rows)),
            ColumnVec::Enc(_) | ColumnVec::Val(_) => None,
        }?;
        Some(Dictionary {
            values: col.gather(&firsts),
            codes,
        })
    }
}

/// Number the distinct keys of `rows` keys in order of first
/// appearance: the row each first appears in, and every row's number.
/// `None` as soon as more than half the rows are distinct.
fn number_values<K: Hash + Eq>(
    rows: usize,
    keys: impl Iterator<Item = K>,
) -> Option<(Vec<usize>, Vec<u32>)> {
    let mut numbers = HashMap::new();
    let mut firsts = Vec::new();
    let mut codes = Vec::with_capacity(rows);
    for (row, key) in keys.enumerate() {
        let next = firsts.len();
        let code = *numbers.entry(key).or_insert(next);
        if code == next {
            firsts.push(row);
            if 2 * firsts.len() > rows {
                return None;
            }
        }
        codes.push(u32::try_from(code).ok()?);
    }
    Some((firsts, codes))
}

/// A stored relation: its table, and each column's dictionary once an
/// encrypt has asked for it.
#[derive(Debug)]
struct Stored {
    table: Table,
    dictionaries: Vec<OnceLock<Option<Dictionary>>>,
}

/// An in-memory database: one table per base relation. A stored table
/// is never mutated, so databases share them: a clone or a
/// [`Database::partition`] costs a reference count per relation, not a
/// copy of the data, and shares the column dictionaries built so far
/// and later.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: HashMap<RelId, Arc<Stored>>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a table for `rel`. The table's columns must match the
    /// relation's declared columns (order included).
    pub fn insert(&mut self, rel: RelId, table: Table) {
        let dictionaries = table.columns().iter().map(|_| OnceLock::new()).collect();
        let stored = Stored {
            table,
            dictionaries,
        };
        self.tables.insert(rel, Arc::new(stored));
    }

    /// Fetch the table of `rel`.
    pub fn table(&self, rel: RelId) -> Option<&Table> {
        self.tables.get(&rel).map(|stored| &stored.table)
    }

    /// The dictionary of `attr`'s column in `rel`, built on the first
    /// call — `None` when the column has none (see `Dictionary::build`).
    pub(crate) fn dictionary(&self, rel: RelId, attr: AttrId) -> Option<&Dictionary> {
        let stored = self.tables.get(&rel)?;
        let col = stored.table.col_index(attr)?;
        let build = || Dictionary::build(stored.table.column(col));
        stored.dictionaries[col].get_or_init(build).as_ref()
    }

    /// The row codes of `attr`'s dictionary in `rel` if an encrypt has
    /// built it already; this builds nothing.
    pub fn dictionary_codes(&self, rel: RelId, attr: AttrId) -> Option<&[u32]> {
        let stored = self.tables.get(&rel)?;
        let col = stored.table.col_index(attr)?;
        let dictionary = stored.dictionaries[col].get()?.as_ref()?;
        Some(&dictionary.codes)
    }

    /// The relations `keep` selects, their tables shared with `self` —
    /// how a subject's store is cut from the full database.
    pub fn partition(&self, keep: impl Fn(RelId) -> bool) -> Database {
        let tables = self.tables.iter().filter(|(rel, _)| keep(**rel));
        Database {
            tables: tables.map(|(rel, t)| (*rel, Arc::clone(t))).collect(),
        }
    }

    /// Build a table for a relation from value rows, using the
    /// catalog's column order.
    pub fn load(&mut self, catalog: &Catalog, rel_name: &str, rows: Vec<Vec<Value>>) {
        let rel = catalog.relation(rel_name).expect("known relation");
        let cols = rel.attrs();
        for r in &rows {
            assert_eq!(r.len(), cols.len(), "row arity mismatch for {rel_name}");
        }
        self.insert(rel.rel, Table::from_rows(cols, rows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::Catalog;

    #[test]
    fn load_and_lookup() {
        let cat = Catalog::paper_running_example();
        let mut db = Database::new();
        db.load(
            &cat,
            "Ins",
            vec![
                vec![Value::str("alice"), Value::Num(120.0)],
                vec![Value::str("bob"), Value::Num(80.0)],
            ],
        );
        let rel = cat.relation("Ins").unwrap().rel;
        let t = db.table(rel).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.col_index(cat.attr("P").unwrap()), Some(1));
        assert!(t.byte_size() > 0);
        // The numeric column densified on load.
        assert!(matches!(t.column(1), ColumnVec::Num(_)));
    }

    #[test]
    fn partition_shares_the_selected_tables() {
        let cat = Catalog::paper_running_example();
        let mut db = Database::new();
        db.load(
            &cat,
            "Ins",
            vec![vec![Value::str("alice"), Value::Num(1.0)]],
        );
        let ins = cat.relation("Ins").unwrap().rel;
        let hosp = cat.relation("Hosp").unwrap().rel;
        let part = db.partition(|rel| rel == ins);
        assert!(std::ptr::eq(
            part.table(ins).unwrap(),
            db.table(ins).unwrap()
        ));
        assert!(db.partition(|rel| rel == hosp).table(ins).is_none());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let cat = Catalog::paper_running_example();
        let mut db = Database::new();
        db.load(&cat, "Ins", vec![vec![Value::Num(1.0)]]);
    }

    #[test]
    fn display_renders_headers() {
        let cat = Catalog::paper_running_example();
        let mut db = Database::new();
        db.load(
            &cat,
            "Ins",
            vec![vec![Value::str("alice"), Value::Num(120.0)]],
        );
        let rel = cat.relation("Ins").unwrap().rel;
        let text = db.table(rel).unwrap().display(&cat);
        assert!(text.contains('C') && text.contains('P'));
        assert!(text.contains("alice"));
    }

    #[test]
    fn rows_round_trip_and_bytes_match_row_accounting() {
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(i), Value::str(&format!("r{i}"))])
            .collect();
        let t = Table::from_rows(vec![AttrId(0), AttrId(1)], rows.clone());
        assert_eq!(t.to_rows(), rows);
        assert_eq!(t.row(3), rows[3]);
        assert_eq!(t.slice(3..5).to_rows(), rows[3..5]);
        let row_bytes: usize = rows.iter().flatten().map(Value::width).sum();
        assert_eq!(t.byte_size(), row_bytes);
    }

    #[test]
    #[should_panic(expected = "table column length mismatch")]
    fn unequal_columns_panic() {
        Table::from_columns(
            TableSchema::new(vec![AttrId(0), AttrId(1)]),
            vec![ColumnVec::from_ints(vec![1]), ColumnVec::new()],
        );
    }
}
