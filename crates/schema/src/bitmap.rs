//! Bitmaps and the join bitmap index of §3.1.
//!
//! The join bitmap index holds one bit array per schema table; bit `i` of
//! table `T_j`'s array is 1 iff wide-table row `i` produced a row of `T_j`.
//! Ground-truth bitmaps of join queries are computed by folding these arrays
//! with the per-join-type rules of Table 2; the jump-intersection ordering
//! (sparsest first) keeps multi-way ANDs cheap. The bitmaps stay
//! uncompressed: the paper WAH-compresses large sparse ones, but DSG's wide
//! tables are small enough that nothing here needs it.

/// A fixed-length uncompressed bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        if v {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Grow to `new_len`, new bits cleared.
    pub fn resize(&mut self, new_len: usize) {
        self.words.resize(new_len.div_ceil(64), 0);
        self.len = new_len;
    }

    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn and(&self, other: &Bitmap) -> Bitmap {
        self.zip_with(other, |a, b| a & b)
    }

    pub fn or(&self, other: &Bitmap) -> Bitmap {
        self.zip_with(other, |a, b| a | b)
    }

    /// `self AND NOT other` — the anti-join rule.
    pub(crate) fn and_not(&self, other: &Bitmap) -> Bitmap {
        self.zip_with(other, |a, b| a & !b)
    }

    fn zip_with(&self, other: &Bitmap, f: impl Fn(u64, u64) -> u64) -> Bitmap {
        let len = self.len.max(other.len);
        let mut out = Bitmap::new(len);
        for i in 0..out.words.len() {
            let a = self.words.get(i).copied().unwrap_or(0);
            let b = other.words.get(i).copied().unwrap_or(0);
            out.words[i] = f(a, b);
        }
        out.mask_tail();
        out
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Indices of set bits, ascending.
    pub fn ones(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, w) in self.words.iter().enumerate() {
            let mut word = *w;
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                let idx = wi * 64 + b;
                if idx < self.len {
                    out.push(idx);
                }
                word &= word - 1;
            }
        }
        out
    }

    /// All bits set.
    pub fn full(len: usize) -> Bitmap {
        let mut b = Bitmap::new(len);
        for w in &mut b.words {
            *w = u64::MAX;
        }
        b.mask_tail();
        b
    }
}

/// The join bitmap index: one bitmap per schema table, aligned on wide-table
/// RowIDs.
#[derive(Debug, Clone)]
pub struct JoinBitmapIndex {
    pub table_names: Vec<String>,
    pub bitmaps: Vec<Bitmap>,
    pub n_rows: usize,
}

impl JoinBitmapIndex {
    pub fn new(table_names: Vec<String>, n_rows: usize) -> Self {
        let bitmaps = table_names.iter().map(|_| Bitmap::new(n_rows)).collect();
        JoinBitmapIndex {
            table_names,
            bitmaps,
            n_rows,
        }
    }

    pub fn table_index(&self, table: &str) -> Option<usize> {
        self.table_names
            .iter()
            .position(|t| t.eq_ignore_ascii_case(table))
    }

    pub fn bitmap(&self, table: &str) -> Option<&Bitmap> {
        self.table_index(table).map(|i| &self.bitmaps[i])
    }

    pub fn set(&mut self, table: &str, row: usize, v: bool) {
        if let Some(i) = self.table_index(table) {
            if row >= self.bitmaps[i].len() {
                let new_len = row + 1;
                for b in &mut self.bitmaps {
                    b.resize(new_len);
                }
                self.n_rows = new_len;
            }
            self.bitmaps[i].set(row, v);
        }
    }

    pub fn get(&self, table: &str, row: usize) -> bool {
        self.bitmap(table).map(|b| b.get(row)).unwrap_or(false)
    }

    /// Grow all bitmaps to cover `n_rows` wide rows.
    pub fn grow(&mut self, n_rows: usize) {
        if n_rows > self.n_rows {
            for b in &mut self.bitmaps {
                b.resize(n_rows);
            }
            self.n_rows = n_rows;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(bits: &[usize], len: usize) -> Bitmap {
        let mut b = Bitmap::new(len);
        for &i in bits {
            b.set(i, true);
        }
        b
    }

    #[test]
    fn set_get_count() {
        let b = bm(&[0, 5, 63, 64, 99], 100);
        assert!(b.get(0) && b.get(5) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1) && !b.get(98));
        assert!(!b.get(1000));
        assert_eq!(b.count_ones(), 5);
        assert_eq!(b.ones(), vec![0, 5, 63, 64, 99]);
    }

    #[test]
    fn logical_ops_match_table_2_rules() {
        let t1 = bm(&[0, 1, 2, 3], 6);
        let t2 = bm(&[2, 3, 4], 6);
        assert_eq!(t1.and(&t2).ones(), vec![2, 3]); // inner/semi join
        assert_eq!(t1.or(&t2).ones(), vec![0, 1, 2, 3, 4]); // full outer join
        assert_eq!(t1.and_not(&t2).ones(), vec![0, 1]); // anti join
    }

    #[test]
    fn ops_on_mismatched_lengths() {
        let a = bm(&[0, 70], 80);
        let b = bm(&[0], 10);
        assert_eq!(a.and(&b).ones(), vec![0]);
        assert_eq!(a.or(&b).ones(), vec![0, 70]);
    }

    #[test]
    fn full_and_empty() {
        let f = Bitmap::full(70);
        assert_eq!(f.count_ones(), 70);
        assert!(Bitmap::new(0).is_empty());
    }

    #[test]
    fn join_index_basic_operations() {
        let mut idx = JoinBitmapIndex::new(vec!["T1".into(), "T2".into()], 4);
        idx.set("T1", 0, true);
        idx.set("t2", 3, true);
        assert!(idx.get("t1", 0));
        assert!(idx.get("T2", 3));
        assert!(!idx.get("T2", 0));
        assert!(idx.bitmap("T9").is_none());
        idx.grow(10);
        assert_eq!(idx.bitmap("T1").unwrap().len(), 10);
        // setting past the end grows automatically
        idx.set("T1", 12, true);
        assert!(idx.get("T1", 12));
        assert_eq!(idx.n_rows, 13);
    }
}
