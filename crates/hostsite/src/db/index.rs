//! Tables and secondary indexes.
//!
//! A secondary index is a *derived projection* of the base rows — it is
//! maintained incrementally on the write path, dropped wholesale when a
//! crash discards the in-memory state, and rebuilt from the recovered
//! base rows (never replayed from the log). Index maintenance is
//! fallible: schema drift (an index naming a column the table does not
//! have, which only a corrupt journal can produce) surfaces as
//! [`DbError::NoSuchColumn`] instead of a panic, so recovery can abort
//! cleanly mid-replay.
//!
//! Both projections (the secondary indexes and the full-text index) sit
//! behind an [`Arc`] and are written through [`Arc::make_mut`]: a cloned
//! table — a host provisioned from a seeded template — shares them with
//! its siblings until a write actually changes one. An update re-indexes
//! only the columns whose value it changed ([`Table::index_update`]), so
//! a purchase that rewrites the stock column leaves the shared
//! projections untouched.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use super::fts::FtsIndex;
use super::mvcc::VersionChain;
use super::{DbError, OrdKey, Row, Value};

/// column name → (value key → primary keys, in insertion order)
pub(crate) type Indexes = HashMap<String, BTreeMap<OrdKey, Vec<OrdKey>>>;

/// One table: schema, versioned rows, and the derived secondary indexes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    /// Column names, column 0 the primary key. Immutable once created,
    /// so clones share them.
    pub(crate) columns: Arc<[String]>,
    pub(crate) rows: BTreeMap<OrdKey, VersionChain>,
    /// Secondary indexes, shared copy-on-write between clones.
    pub(crate) indexes: Arc<Indexes>,
    /// Optional full-text index — a derived projection like `indexes`,
    /// maintained on the same write path and rebuilt, not replayed;
    /// shared copy-on-write the same way.
    pub(crate) fts: Option<Arc<FtsIndex>>,
}

/// The position of index column `col` in `columns`, or the schema-drift
/// error.
fn column_of(columns: &[String], table_name: &str, col: &str) -> Result<usize, DbError> {
    columns
        .iter()
        .position(|c| c == col)
        .ok_or_else(|| DbError::NoSuchColumn {
            table: table_name.to_owned(),
            column: col.to_owned(),
        })
}

impl Table {
    /// A table with empty indexes on `indexes` and no full-text index.
    pub(crate) fn new(columns: Vec<String>, indexes: impl IntoIterator<Item = String>) -> Self {
        Table {
            columns: columns.into(),
            rows: BTreeMap::new(),
            indexes: Arc::new(indexes.into_iter().map(|c| (c, BTreeMap::new())).collect()),
            fts: None,
        }
    }

    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The live image of `key`, if present.
    pub(crate) fn live(&self, key: &OrdKey) -> Option<&Arc<Row>> {
        self.rows.get(key).and_then(VersionChain::live)
    }

    /// Adds `row` to every secondary index.
    ///
    /// On schema drift the earlier indexes keep their new entries — the
    /// caller (recovery) discards the whole database on error.
    pub(crate) fn index_insert(&mut self, table_name: &str, row: &Row) -> Result<(), DbError> {
        let pk = row[0].ord_key();
        if !self.indexes.is_empty() {
            for (col, index) in Arc::make_mut(&mut self.indexes).iter_mut() {
                let ci = column_of(&self.columns, table_name, col)?;
                index.entry(row[ci].ord_key()).or_default().push(pk.clone());
            }
        }
        if let Some(fts) = &mut self.fts {
            Arc::make_mut(fts).insert_row(table_name, &self.columns, row)?;
        }
        Ok(())
    }

    /// Removes `row` from every secondary index.
    pub(crate) fn index_remove(&mut self, table_name: &str, row: &Row) -> Result<(), DbError> {
        let pk = row[0].ord_key();
        if !self.indexes.is_empty() {
            for (col, index) in Arc::make_mut(&mut self.indexes).iter_mut() {
                let ci = column_of(&self.columns, table_name, col)?;
                remove_pk(index, row[ci].ord_key(), &pk);
            }
        }
        if let Some(fts) = &mut self.fts {
            Arc::make_mut(fts).remove_row(table_name, &self.columns, row)?;
        }
        Ok(())
    }

    /// Replaces `old` by `new` (same primary key) in every index —
    /// exactly the projection `index_remove(old)` then `index_insert(new)`
    /// leaves, but touching only what changes:
    ///
    /// - a secondary index whose column kept its key leaves the bucket
    ///   alone when the primary key is already last in it, and otherwise
    ///   moves it to the end (where remove-then-push would put it —
    ///   bucket order is visible through `select_eq`);
    /// - the full-text index is skipped when the column's [`Value`]
    ///   (not just its key: `Int(1)` and `Bool(true)` share a key but
    ///   tokenize differently) is unchanged.
    ///
    /// A projection is only unshared ([`Arc::make_mut`]) when it is
    /// actually written.
    pub(crate) fn index_update(
        &mut self,
        table_name: &str,
        old: &Row,
        new: &Row,
    ) -> Result<(), DbError> {
        // Unshare the secondary indexes only when some bucket changes:
        // a changed key, or a kept key whose bucket does not already end
        // with this row.
        let mut stale = false;
        for (col, index) in self.indexes.iter() {
            let ci = column_of(&self.columns, table_name, col)?;
            stale |= !in_place(index, &old[ci], &new[ci], &new[0]);
        }
        if stale {
            let pk = new[0].ord_key();
            for (col, index) in Arc::make_mut(&mut self.indexes).iter_mut() {
                let ci = column_of(&self.columns, table_name, col)?;
                if !in_place(index, &old[ci], &new[ci], &new[0]) {
                    remove_pk(index, old[ci].ord_key(), &pk);
                    index.entry(new[ci].ord_key()).or_default().push(pk.clone());
                }
            }
        }
        if let Some(fts) = &mut self.fts {
            let ci = column_of(&self.columns, table_name, &fts.column)?;
            if old[ci] != new[ci] {
                let fts = Arc::make_mut(fts);
                fts.remove_row(table_name, &self.columns, old)?;
                fts.insert_row(table_name, &self.columns, new)?;
            }
        }
        Ok(())
    }

    /// Rebuilds every secondary index from the live base rows — the
    /// recovery path's derived-projection rebuild. Buckets come out in
    /// primary-key order (the canonical from-scratch order). Returns the
    /// number of `(row, index)` entries written.
    pub(crate) fn rebuild_indexes(&mut self, table_name: &str) -> Result<u64, DbError> {
        let Table {
            columns,
            rows,
            indexes,
            fts,
        } = self;
        let mut entries = 0u64;
        for (col, index) in Arc::make_mut(indexes).iter_mut() {
            let ci = column_of(columns, table_name, col)?;
            index.clear();
            for (pk, chain) in rows.iter() {
                if let Some(row) = chain.live() {
                    index.entry(row[ci].ord_key()).or_default().push(pk.clone());
                    entries += 1;
                }
            }
        }
        if let Some(fts) = fts {
            let fts = Arc::make_mut(fts);
            fts.clear();
            for chain in rows.values() {
                if let Some(row) = chain.live() {
                    fts.insert_row(table_name, columns, row)?;
                }
            }
            entries += fts.entry_count();
        }
        Ok(entries)
    }
}

/// True when replacing `old` by `new` (primary key `pk`) leaves `index`
/// exactly as it is: the key is unchanged and the row already ends its
/// bucket.
fn in_place(index: &BTreeMap<OrdKey, Vec<OrdKey>>, old: &Value, new: &Value, pk: &Value) -> bool {
    let key = old.ord_key();
    key.matches_value(new)
        && index
            .get(&key)
            .and_then(|pks| pks.last())
            .is_some_and(|last| last.matches_value(pk))
}

/// Drops `pk` from the bucket under `key`, and the bucket once empty.
fn remove_pk(index: &mut BTreeMap<OrdKey, Vec<OrdKey>>, key: OrdKey, pk: &OrdKey) {
    if let Some(pks) = index.get_mut(&key) {
        pks.retain(|p| p != pk);
        if pks.is_empty() {
            index.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn table() -> Table {
        Table::new(vec!["id".into(), "name".into()], ["name".to_owned()])
    }

    #[test]
    fn schema_drift_errors_instead_of_panicking() {
        let mut t = table();
        t.columns = t.columns[..1].into(); // simulate a corrupt-journal schema
        let row: Row = vec![1i64.into(), "x".into()];
        assert_eq!(
            t.index_insert("t", &row),
            Err(DbError::NoSuchColumn {
                table: "t".into(),
                column: "name".into()
            })
        );
        assert_eq!(
            t.index_remove("t", &row),
            Err(DbError::NoSuchColumn {
                table: "t".into(),
                column: "name".into()
            })
        );
        assert!(t.rebuild_indexes("t").is_err());
    }

    #[test]
    fn rebuild_equals_a_from_scratch_projection() {
        let mut t = table();
        for (id, name) in [(2i64, "b"), (1, "a"), (3, "a")] {
            let row: Row = vec![id.into(), name.into()];
            t.index_insert("t", &row).unwrap();
            t.rows
                .entry(row[0].ord_key())
                .or_default()
                .install(Arc::new(row), 1);
        }
        let incremental = t.indexes.clone();
        let entries = t.rebuild_indexes("t").unwrap();
        assert_eq!(entries, 3);
        // Same keys and the same pk sets; rebuild order is pk order.
        assert_eq!(
            incremental["name"].keys().collect::<Vec<_>>(),
            t.indexes["name"].keys().collect::<Vec<_>>()
        );
        let a_key = super::super::Value::from("a").ord_key();
        let mut a: Vec<_> = incremental["name"][&a_key].clone();
        a.sort();
        assert_eq!(a, t.indexes["name"][&a_key]);
    }
}
