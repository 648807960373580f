//! The RowID map table `T_RowIDMap` of §3.1: for every wide-table row, which
//! row of each schema table it was split into (if any), plus the reverse
//! mapping needed by noise injection (`RowMap(T_i, row_j)` → affected wide
//! rows).

/// The RowID mapping `[RowID, T_i, row_j]`, stored densely as one
/// `Option<u32>` per (wide row, schema table).
#[derive(Debug, Clone)]
pub struct RowIdMap {
    pub table_names: Vec<String>,
    /// `map[wide_row][table_idx]` = row index in that schema table.
    map: Vec<Vec<Option<u32>>>,
}

impl RowIdMap {
    pub fn new(table_names: Vec<String>) -> Self {
        RowIdMap {
            table_names,
            map: Vec::new(),
        }
    }

    pub fn n_tables(&self) -> usize {
        self.table_names.len()
    }

    pub fn n_rows(&self) -> usize {
        self.map.len()
    }

    pub fn table_index(&self, table: &str) -> Option<usize> {
        self.table_names
            .iter()
            .position(|t| t.eq_ignore_ascii_case(table))
    }

    /// Append an all-NULL mapping row for a new wide row; returns its index.
    pub fn push_row(&mut self) -> usize {
        self.map.push(vec![None; self.table_names.len()]);
        self.map.len() - 1
    }

    pub fn set(&mut self, wide_row: usize, table: &str, schema_row: Option<u32>) {
        let ti = self.table_index(table).expect("known table");
        while self.map.len() <= wide_row {
            self.push_row();
        }
        self.map[wide_row][ti] = schema_row;
    }

    pub fn get(&self, wide_row: usize, table: &str) -> Option<u32> {
        let ti = self.table_index(table)?;
        self.map.get(wide_row).and_then(|r| r[ti])
    }

    /// `RowMap(T_i, row_j)`: all wide rows currently mapping to the given
    /// schema-table row.
    pub fn reverse(&self, table: &str, schema_row: u32) -> Vec<usize> {
        let ti = match self.table_index(table) {
            Some(i) => i,
            None => return Vec::new(),
        };
        self.map
            .iter()
            .enumerate()
            .filter(|(_, r)| r[ti] == Some(schema_row))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of wide rows that map into `table`.
    pub fn mapped_count(&self, table: &str) -> usize {
        let ti = match self.table_index(table) {
            Some(i) => i,
            None => return 0,
        };
        self.map.iter().filter(|r| r[ti].is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowIdMap {
        // Mirrors Figure 4(a): 4 tables, wide rows 0..=5.
        let mut m = RowIdMap::new(vec!["T1".into(), "T2".into(), "T3".into(), "T4".into()]);
        for i in 0..6 {
            m.push_row();
            m.set(i, "T1", Some(i as u32));
        }
        m.set(0, "T2", Some(0));
        m.set(5, "T2", Some(1));
        m.set(0, "T3", Some(0));
        m.set(1, "T3", Some(1));
        m.set(5, "T3", Some(2));
        m.set(5, "T4", Some(2));
        m
    }

    #[test]
    fn get_set_round_trip() {
        let m = sample();
        assert_eq!(m.get(5, "T3"), Some(2));
        assert_eq!(m.get(5, "t4"), Some(2));
        assert_eq!(m.get(2, "T2"), None);
        assert_eq!(m.get(99, "T1"), None);
        assert_eq!(m.get(0, "T9"), None);
        assert_eq!(m.n_rows(), 6);
        assert_eq!(m.n_tables(), 4);
    }

    #[test]
    fn reverse_lookup_matches_paper_semantics() {
        let mut m = sample();
        m.set(1, "T2", Some(0));
        m.set(2, "T2", Some(0));
        // RowMap(T2, 0) = wide rows {0, 1, 2}, as in Example 3.3.
        assert_eq!(m.reverse("T2", 0), vec![0, 1, 2]);
        assert_eq!(m.reverse("T2", 7), Vec::<usize>::new());
        assert_eq!(m.reverse("T9", 0), Vec::<usize>::new());
    }

    #[test]
    fn push_row_extends_with_nulls() {
        let mut m = sample();
        let idx = m.push_row();
        assert_eq!(idx, 6);
        assert_eq!(m.get(6, "T1"), None);
        m.set(6, "T2", Some(0));
        assert_eq!(m.get(6, "T2"), Some(0));
    }

    #[test]
    fn mapped_count() {
        let m = sample();
        assert_eq!(m.mapped_count("T1"), 6);
        assert_eq!(m.mapped_count("T2"), 2);
        assert_eq!(m.mapped_count("T4"), 1);
        assert_eq!(m.mapped_count("nope"), 0);
    }

    #[test]
    fn set_beyond_end_grows() {
        let mut m = RowIdMap::new(vec!["A".into()]);
        m.set(3, "A", Some(9));
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.get(3, "A"), Some(9));
        assert_eq!(m.get(1, "A"), None);
    }
}
