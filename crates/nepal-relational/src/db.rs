//! The relational database: named tables, `INHERITS` hierarchy, and
//! historical views.
//!
//! Mirrors the paper's Postgres layout (§5.2/§5.3): one table per node and
//! edge class created with `INHERITS`, so that selecting from `VM` sees all
//! `VMWare`/`OnMetal` rows; plus, per class, a `__history` companion (the
//! `temporal_tables` pattern) whose union with the current table is the
//! `__historical` view.
//!
//! Tables have dense [`TableId`]s in creation order. Each table's
//! inheritance subtree is resolved once, when its members are created, so
//! the evaluator never walks the hierarchy or touches a table name. A
//! dense uid → owning-table index (filled by [`crate::load_graph`]) routes
//! a probe for one element to the one class table that can hold it — the
//! substrate's version of Postgres constraint exclusion.

use std::collections::HashMap;

use nepal_schema::ClassId;

use crate::error::{RelError, Result};
use crate::table::Table;

/// Dense id of a table in a [`RelDb`], in creation order.
pub type TableId = u32;

/// Marks an empty slot in the dense id maps.
const NO_TABLE: TableId = TableId::MAX;

/// The relational store.
#[derive(Debug, Default)]
pub struct RelDb {
    tables: Vec<Table>,
    ids: HashMap<String, TableId>,
    /// Per table: its parent in the INHERITS hierarchy.
    parents: Vec<Option<TableId>>,
    /// Per table: its inheritance subtree, itself first.
    subtrees: Vec<Vec<TableId>>,
    /// Per table: its `__history` companion.
    histories: Vec<Option<TableId>>,
    /// Per table: the class it stores.
    table_classes: Vec<Option<ClassId>>,
    /// Class id → class table.
    class_tables: Vec<TableId>,
    /// Uid → the class table holding its versions.
    owners: Vec<TableId>,
}

impl RelDb {
    pub fn new() -> RelDb {
        RelDb::default()
    }

    /// Create a permanent table, optionally inheriting from a parent. A
    /// table named `<t>__history` becomes the history companion of `<t>`.
    pub fn create_table(&mut self, table: Table, inherits: Option<&str>) -> Result<TableId> {
        if self.ids.contains_key(&table.name) {
            return Err(RelError::DuplicateTable(table.name.clone()));
        }
        let parent = inherits.map(|p| self.id(p).ok_or_else(|| RelError::UnknownTable(p.to_string()))).transpose()?;
        let id = self.tables.len() as TableId;
        // The newest child is the first child a subtree walk visits, so it
        // goes right after its parent in every ancestor's subtree.
        let mut ancestor = parent;
        while let Some(a) = ancestor {
            let sub = &mut self.subtrees[a as usize];
            let at = sub.iter().position(|&t| Some(t) == parent).expect("parent in its ancestors' subtrees") + 1;
            sub.insert(at, id);
            ancestor = self.parents[a as usize];
        }
        if let Some(base) = table.name.strip_suffix("__history").and_then(|b| self.id(b)) {
            self.histories[base as usize] = Some(id);
        }
        self.ids.insert(table.name.clone(), id);
        self.tables.push(table);
        self.parents.push(parent);
        self.subtrees.push(vec![id]);
        self.histories.push(None);
        self.table_classes.push(None);
        Ok(id)
    }

    pub fn id(&self, name: &str) -> Option<TableId> {
        self.ids.get(name).copied()
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.id(name).map(|id| self.table_at(id)).ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let id = self.id(name).ok_or_else(|| RelError::UnknownTable(name.to_string()))?;
        Ok(self.table_at_mut(id))
    }

    pub fn table_at(&self, id: TableId) -> &Table {
        &self.tables[id as usize]
    }

    pub fn table_at_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id as usize]
    }

    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.ids.contains_key(name)
    }

    /// The inheritance subtree of a table: itself plus all transitive
    /// children — what a Postgres `SELECT FROM parent` actually reads.
    pub fn subtree(&self, id: TableId) -> &[TableId] {
        &self.subtrees[id as usize]
    }

    /// The `__history` companion of a table.
    pub fn history(&self, id: TableId) -> Option<TableId> {
        self.histories[id as usize]
    }

    /// Total row count over a subtree (statistics for anchor costing).
    pub fn subtree_rows(&self, id: TableId) -> usize {
        self.subtree(id).iter().map(|&t| self.table_at(t).len()).sum()
    }

    /// Record that `table` stores the rows of `class`.
    pub fn bind_class(&mut self, class: ClassId, table: TableId) {
        let slot = class.0 as usize;
        if self.class_tables.len() <= slot {
            self.class_tables.resize(slot + 1, NO_TABLE);
        }
        self.class_tables[slot] = table;
        self.table_classes[table as usize] = Some(class);
    }

    /// The table bound to a class by [`RelDb::bind_class`].
    pub fn class_table(&self, class: ClassId) -> Option<TableId> {
        self.class_tables.get(class.0 as usize).copied().filter(|&t| t != NO_TABLE)
    }

    /// The class a table was bound to by [`RelDb::bind_class`].
    pub fn table_class(&self, table: TableId) -> Option<ClassId> {
        self.table_classes[table as usize]
    }

    /// Record that the versions of `uid` live in `table` (and its history).
    pub fn set_owner(&mut self, uid: u64, table: TableId) {
        let slot = uid as usize;
        if self.owners.len() <= slot {
            self.owners.resize(slot + 1, NO_TABLE);
        }
        self.owners[slot] = table;
    }

    /// The class table holding the versions of `uid`.
    pub fn owner(&self, uid: u64) -> Option<TableId> {
        self.owners.get(uid as usize).copied().filter(|&t| t != NO_TABLE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColDef, ColType};
    use nepal_schema::Value;

    fn cols() -> Vec<ColDef> {
        vec![ColDef::new("id_", ColType::BigInt)]
    }

    fn names(db: &RelDb, ids: &[TableId]) -> Vec<String> {
        ids.iter().map(|&t| db.table_at(t).name.clone()).collect()
    }

    #[test]
    fn inherits_subtree_resolution() {
        let mut db = RelDb::new();
        let node = db.create_table(Table::new("node", cols()), None).unwrap();
        let vm = db.create_table(Table::new("vm", cols()), Some("node")).unwrap();
        db.create_table(Table::new("vmware", cols()), Some("vm")).unwrap();
        db.create_table(Table::new("host", cols()), Some("node")).unwrap();
        assert_eq!(names(&db, db.subtree(vm)), ["vm", "vmware"]);
        // Depth-first, newest child first: the order a stack walk visits.
        assert_eq!(names(&db, db.subtree(node)), ["node", "host", "vm", "vmware"]);
    }

    #[test]
    fn subtree_rows_counts_children() {
        let mut db = RelDb::new();
        let vm = db.create_table(Table::new("vm", cols()), None).unwrap();
        db.create_table(Table::new("vmware", cols()), Some("vm")).unwrap();
        db.table_mut("vmware").unwrap().insert(vec![Value::Int(1)]).unwrap();
        db.table_mut("vm").unwrap().insert(vec![Value::Int(2)]).unwrap();
        assert_eq!(db.subtree_rows(vm), 2);
    }

    #[test]
    fn history_companions_and_owners_resolve_by_id() {
        let mut db = RelDb::new();
        let vm = db.create_table(Table::new("vm", cols()), None).unwrap();
        let hist = db.create_table(Table::new("vm__history", cols()), None).unwrap();
        assert_eq!(db.history(vm), Some(hist));
        assert_eq!(db.history(hist), None);
        db.bind_class(ClassId(5), vm);
        assert_eq!(db.class_table(ClassId(5)), Some(vm));
        assert_eq!(db.class_table(ClassId(4)), None);
        assert_eq!(db.table_class(vm), Some(ClassId(5)));
        db.set_owner(3, vm);
        assert_eq!(db.owner(3), Some(vm));
        assert_eq!(db.owner(2), None);
        assert_eq!(db.owner(99), None);
    }

    #[test]
    fn duplicate_and_missing_tables_error() {
        let mut db = RelDb::new();
        db.create_table(Table::new("x", cols()), None).unwrap();
        assert!(matches!(db.create_table(Table::new("x", cols()), None), Err(RelError::DuplicateTable(_))));
        assert!(matches!(db.create_table(Table::new("y", cols()), Some("nope")), Err(RelError::UnknownTable(_))));
        assert!(matches!(db.table("zzz"), Err(RelError::UnknownTable(_))));
    }
}
