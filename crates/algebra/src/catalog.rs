//! Relation catalog: names, types, and interning.
//!
//! A [`Catalog`] is the universe that gives meaning to [`RelId`] and
//! [`AttrId`] values. The paper identifies attributes by short names
//! (`S`, `B`, `D`, `T`, `C`, `P`); TPC-H attribute names are likewise
//! globally unique (`l_orderkey`, `o_orderdate`, …), so the catalog
//! interns attribute names globally and remembers which relation each
//! attribute belongs to.

use crate::attrset::AttrSet;
use crate::error::{AlgebraError, Result};
use crate::ids::{AttrId, RelId};
use crate::value::DataType;
use std::collections::HashMap;

/// A column of a base relation.
#[derive(Clone, Debug)]
pub struct ColumnDef {
    /// Globally interned attribute id.
    pub attr: AttrId,
    /// Column name (globally unique in a catalog).
    pub name: String,
    /// Logical type.
    pub ty: DataType,
}

/// A base relation.
#[derive(Clone, Debug)]
pub struct RelationDef {
    /// Interned relation id.
    pub rel: RelId,
    /// Relation name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
}

impl RelationDef {
    /// All attributes of this relation as a set.
    pub fn attr_set(&self) -> AttrSet {
        self.columns.iter().map(|c| c.attr).collect()
    }

    /// All attributes of this relation in declaration order.
    pub fn attrs(&self) -> Vec<AttrId> {
        self.columns.iter().map(|c| c.attr).collect()
    }
}

/// The schema universe: relations and globally interned attributes.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    relations: Vec<RelationDef>,
    rel_by_name: HashMap<String, RelId>,
    attr_names: Vec<String>,
    attr_types: Vec<DataType>,
    attr_owner: Vec<RelId>,
    attr_by_name: HashMap<String, AttrId>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a relation with `(column name, type)` pairs.
    ///
    /// Column names must be globally unique across the catalog (as they
    /// are in the paper's examples and in TPC-H); name lookups are
    /// case-insensitive.
    pub fn add_relation(&mut self, name: &str, columns: &[(&str, DataType)]) -> Result<RelId> {
        let lname = name.to_ascii_lowercase();
        if self.rel_by_name.contains_key(&lname) {
            return Err(AlgebraError::DuplicateName(name.to_string()));
        }
        let rel = RelId::from_index(self.relations.len());
        let mut defs = Vec::with_capacity(columns.len());
        for (cname, ty) in columns {
            let lcname = cname.to_ascii_lowercase();
            if self.attr_by_name.contains_key(&lcname) {
                return Err(AlgebraError::DuplicateName(cname.to_string()));
            }
            let attr = AttrId::from_index(self.attr_names.len());
            self.attr_names.push(cname.to_string());
            self.attr_types.push(*ty);
            self.attr_owner.push(rel);
            self.attr_by_name.insert(lcname, attr);
            defs.push(ColumnDef {
                attr,
                name: cname.to_string(),
                ty: *ty,
            });
        }
        self.relations.push(RelationDef {
            rel,
            name: name.to_string(),
            columns: defs,
        });
        self.rel_by_name.insert(lname, rel);
        Ok(rel)
    }

    /// Look up a relation by (case-insensitive) name.
    pub fn relation(&self, name: &str) -> Result<&RelationDef> {
        self.rel_by_name
            .get(&name.to_ascii_lowercase())
            .map(|r| &self.relations[r.index()])
            .ok_or_else(|| AlgebraError::UnknownName(name.to_string()))
    }

    /// Relation definition by id.
    pub fn rel(&self, rel: RelId) -> &RelationDef {
        &self.relations[rel.index()]
    }

    /// All relations.
    pub fn relations(&self) -> &[RelationDef] {
        &self.relations
    }

    /// Look up an attribute by (case-insensitive) name.
    pub fn attr(&self, name: &str) -> Result<AttrId> {
        self.attr_by_name
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| AlgebraError::UnknownName(name.to_string()))
    }

    /// Attribute name.
    pub fn attr_name(&self, a: AttrId) -> &str {
        &self.attr_names[a.index()]
    }

    /// Attribute type.
    pub fn attr_type(&self, a: AttrId) -> DataType {
        self.attr_types[a.index()]
    }

    /// The relation the attribute belongs to.
    pub(crate) fn attr_owner(&self, a: AttrId) -> RelId {
        self.attr_owner[a.index()]
    }

    /// Number of interned attributes (ids are `0..n`).
    pub(crate) fn num_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// Render a set of attributes compactly, paper-style (e.g. `SDT`
    /// when all names are single letters, comma-separated otherwise).
    pub fn render_attrs(&self, set: &AttrSet) -> String {
        let names: Vec<&str> = set.iter().map(|a| self.attr_name(a)).collect();
        if names.iter().all(|n| n.len() == 1) {
            names.concat()
        } else {
            names.join(",")
        }
    }

    /// Build the running-example catalog of the paper: `Hosp(S,B,D,T)`
    /// held by hospital `H` and `Ins(C,P)` held by insurer `I`.
    pub fn paper_running_example() -> Catalog {
        let mut c = Catalog::new();
        c.add_relation(
            "Hosp",
            &[
                ("S", DataType::Str),
                ("B", DataType::Date),
                ("D", DataType::Str),
                ("T", DataType::Str),
            ],
        )
        .expect("static schema");
        c.add_relation("Ins", &[("C", DataType::Str), ("P", DataType::Num)])
            .expect("static schema");
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_example_catalog() {
        let c = Catalog::paper_running_example();
        assert_eq!(c.relations().len(), 2);
        let hosp = c.relation("hosp").unwrap();
        assert_eq!(hosp.columns.len(), 4);
        let s = c.attr("S").unwrap();
        assert_eq!(c.attr_name(s), "S");
        assert_eq!(c.attr_owner(s), hosp.rel);
        let p = c.attr("p").unwrap();
        assert_eq!(c.attr_type(p), DataType::Num);
        assert_eq!(c.num_attrs(), 6);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.add_relation("R", &[("A", DataType::Int)]).unwrap();
        assert!(matches!(
            c.add_relation("r", &[("B", DataType::Int)]),
            Err(AlgebraError::DuplicateName(_))
        ));
        assert!(matches!(
            c.add_relation("S", &[("a", DataType::Int)]),
            Err(AlgebraError::DuplicateName(_))
        ));
    }

    #[test]
    fn unknown_lookups_fail() {
        let c = Catalog::paper_running_example();
        assert!(c.relation("nope").is_err());
        assert!(c.attr("Z").is_err());
    }

    #[test]
    fn render_attrs_paper_style() {
        let c = Catalog::paper_running_example();
        let set: AttrSet = [
            c.attr("S").unwrap(),
            c.attr("D").unwrap(),
            c.attr("T").unwrap(),
        ]
        .into_iter()
        .collect();
        assert_eq!(c.render_attrs(&set), "SDT");
    }

    #[test]
    fn attr_set_of_relation() {
        let c = Catalog::paper_running_example();
        let hosp = c.relation("Hosp").unwrap();
        assert_eq!(hosp.attr_set().len(), 4);
        assert!(hosp.attr_set().contains(c.attr("B").unwrap()));
        assert!(!hosp.attr_set().contains(c.attr("C").unwrap()));
    }
}
