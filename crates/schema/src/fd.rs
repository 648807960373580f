//! Functional-dependency discovery (a level-wise, TANE-style miner) and the
//! FD-set operations (closure, transitive dependents, candidate key, minimal
//! cover) needed by schema normalization and noise injection.
//!
//! The paper uses TANE / HyFD; at wide-table widths of 8–20 columns a plain
//! level-wise search with partition counting is exact and fast enough, and it
//! produces the same artifact: the set of minimal FDs supported by the data.

use std::collections::{HashMap, HashSet};
use tqs_storage::WideTable;

/// A functional dependency `lhs → rhs` (single-attribute RHS).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fd {
    pub lhs: Vec<String>,
    pub rhs: String,
}

impl Fd {
    pub fn new(lhs: Vec<&str>, rhs: &str) -> Self {
        Fd {
            lhs: lhs.into_iter().map(String::from).collect(),
            rhs: rhs.into(),
        }
    }
}

impl std::fmt::Display for Fd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}} -> {}", self.lhs.join(", "), self.rhs)
    }
}

/// A set of FDs over the attribute columns of one wide table.
#[derive(Debug, Clone, Default)]
pub struct FdSet {
    pub attributes: Vec<String>,
    pub fds: Vec<Fd>,
}

/// Configuration for FD discovery.
#[derive(Debug, Clone)]
pub struct FdDiscoveryConfig {
    /// Maximum LHS size explored by the level-wise search. The default is 1:
    /// single-attribute FDs are what drive the paper's schema decomposition
    /// (Example 3.1), and on small sampled wide tables composite LHS sets are
    /// prone to spurious, accidentally-satisfied dependencies that would
    /// produce degenerate dimension tables.
    pub max_lhs: usize,
}

impl Default for FdDiscoveryConfig {
    fn default() -> Self {
        FdDiscoveryConfig { max_lhs: 1 }
    }
}

/// A value fingerprint per row for one attribute (NULL gets its own marker so
/// NULL ≠ NULL for FD purposes does not split partitions spuriously — we
/// treat NULLs as one equivalence class, which is what the data-driven
/// normalizers do).
fn column_fingerprints(wide: &WideTable, attr: &str) -> Vec<String> {
    let idx = wide
        .attr_index(attr)
        .expect("attribute exists") // callers iterate over attr_names()
        + 1; // +1 to skip RowID in the underlying table
    wide.table
        .rows
        .iter()
        .map(|r| {
            let v = r.get(idx);
            if v.is_null() {
                "\u{0}NULL".to_string()
            } else {
                format!("{}:{v}", v.type_tag())
            }
        })
        .collect()
}

/// Count distinct groups of the projection onto `cols`.
fn group_count(fps: &HashMap<String, Vec<String>>, cols: &[String], n_rows: usize) -> usize {
    let mut seen: HashSet<String> = HashSet::with_capacity(n_rows);
    let parts: Vec<&Vec<String>> = cols.iter().map(|c| &fps[c]).collect();
    for row in 0..n_rows {
        let mut key = String::new();
        for p in &parts {
            key.push_str(&p[row]);
            key.push('\u{1}');
        }
        seen.insert(key);
    }
    seen.len()
}

impl FdSet {
    /// Discover the minimal FDs supported by the data, with LHS size up to
    /// `cfg.max_lhs`.
    pub fn discover(wide: &WideTable, cfg: &FdDiscoveryConfig) -> FdSet {
        let attributes = wide.attr_names();
        let n_rows = wide.row_count();
        let mut fps: HashMap<String, Vec<String>> = HashMap::new();
        for a in &attributes {
            fps.insert(a.clone(), column_fingerprints(wide, a));
        }
        let mut fds: Vec<Fd> = Vec::new();
        // Pre-compute distinct counts per single column.
        let singles: HashMap<String, usize> = attributes
            .iter()
            .map(|a| {
                (
                    a.clone(),
                    group_count(&fps, std::slice::from_ref(a), n_rows),
                )
            })
            .collect();

        // Level 1: single-attribute LHS.
        for lhs in &attributes {
            for rhs in &attributes {
                if lhs == rhs {
                    continue;
                }
                let combined = group_count(&fps, &[lhs.clone(), rhs.clone()], n_rows);
                if combined == singles[lhs] {
                    fds.push(Fd {
                        lhs: vec![lhs.clone()],
                        rhs: rhs.clone(),
                    });
                }
            }
        }
        // Higher levels: only add an FD if no subset of the LHS already
        // determines the RHS (minimality).
        for size in 2..=cfg.max_lhs {
            let combos = combinations(&attributes, size);
            for lhs in combos {
                let lhs_groups = group_count(&fps, &lhs, n_rows);
                for rhs in &attributes {
                    if lhs.contains(rhs) {
                        continue;
                    }
                    let already = fds
                        .iter()
                        .any(|fd| fd.rhs == *rhs && fd.lhs.iter().all(|c| lhs.contains(c)));
                    if already {
                        continue;
                    }
                    let mut with_rhs = lhs.clone();
                    with_rhs.push(rhs.clone());
                    if group_count(&fps, &with_rhs, n_rows) == lhs_groups {
                        fds.push(Fd {
                            lhs: lhs.clone(),
                            rhs: rhs.clone(),
                        });
                    }
                }
            }
        }
        FdSet { attributes, fds }
    }

    /// Attribute closure of `cols` under this FD set.
    pub fn closure(&self, cols: &[String]) -> HashSet<String> {
        let mut closed: HashSet<String> = cols.iter().cloned().collect();
        let mut changed = true;
        while changed {
            changed = false;
            for fd in &self.fds {
                if !closed.contains(&fd.rhs) && fd.lhs.iter().all(|c| closed.contains(c)) {
                    closed.insert(fd.rhs.clone());
                    changed = true;
                }
            }
        }
        closed
    }

    /// All attributes transitively determined by the single column `col`
    /// (excluding `col` itself). This is `Fd(col_k)` in §3.2.
    pub(crate) fn determined_by(&self, col: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .closure(&[col.to_string()])
            .into_iter()
            .filter(|c| c != col)
            .collect();
        out.sort();
        out
    }

    /// A candidate key of the full attribute set: start from all attributes
    /// and greedily drop any attribute still implied by the rest.
    pub(crate) fn candidate_key(&self) -> Vec<String> {
        let mut key: Vec<String> = self.attributes.clone();
        let all: HashSet<String> = self.attributes.iter().cloned().collect();
        let mut i = 0;
        while i < key.len() {
            let mut trial = key.clone();
            trial.remove(i);
            if self.closure(&trial) == all {
                key.remove(i);
            } else {
                i += 1;
            }
        }
        key
    }

    /// Reduce to a minimal cover: drop extraneous LHS attributes, then drop
    /// FDs implied by the rest (e.g. the transitive `goodsId → price` when
    /// `goodsId → goodsName → price` is present).
    pub fn minimal_cover(&self) -> FdSet {
        let mut fds = self.fds.clone();
        // 1. remove extraneous LHS attributes
        for fd in fds.iter_mut() {
            let mut i = 0;
            while fd.lhs.len() > 1 && i < fd.lhs.len() {
                let mut trial = fd.lhs.clone();
                trial.remove(i);
                let tmp = FdSet {
                    attributes: self.attributes.clone(),
                    fds: self.fds.clone(),
                };
                if tmp.closure(&trial).contains(&fd.rhs) {
                    fd.lhs.remove(i);
                } else {
                    i += 1;
                }
            }
        }
        fds.sort_by(|a, b| (a.lhs.len(), &a.lhs, &a.rhs).cmp(&(b.lhs.len(), &b.lhs, &b.rhs)));
        fds.dedup();
        // 2. remove redundant FDs. Redundancy elimination is order-dependent;
        //    we test the "shortcut" FDs first (those whose RHS is reachable
        //    through an intermediate attribute, e.g. `goodsId → price` when
        //    `goodsId → goodsName → price` exists) so the surviving cover
        //    keeps the chain structure that 3NF synthesis turns into the
        //    paper's T1–T4 style decomposition.
        // score(X → A) = #{ B : (X → B) and (B → A) are both present, B ∉ X }
        let shortcut_score = |fd: &Fd, all: &[Fd]| -> usize {
            all.iter()
                .filter(|first| first.lhs == fd.lhs && first.rhs != fd.rhs)
                .filter(|first| {
                    all.iter().any(|second| {
                        second.lhs.len() == 1 && second.lhs[0] == first.rhs && second.rhs == fd.rhs
                    })
                })
                .count()
        };
        let mut order: Vec<usize> = (0..fds.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(shortcut_score(&fds[i], &fds)));
        let mut removed = vec![false; fds.len()];
        for &i in &order {
            let rest: Vec<Fd> = fds
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i && !removed[*j])
                .map(|(_, f)| f.clone())
                .collect();
            let tmp = FdSet {
                attributes: self.attributes.clone(),
                fds: rest,
            };
            if tmp.closure(&fds[i].lhs).contains(&fds[i].rhs) {
                removed[i] = true;
            }
        }
        let keep: Vec<Fd> = fds
            .into_iter()
            .zip(removed)
            .filter(|(_, r)| !r)
            .map(|(f, _)| f)
            .collect();
        FdSet {
            attributes: self.attributes.clone(),
            fds: keep,
        }
    }

    pub fn len(&self) -> usize {
        self.fds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Does `lhs → rhs` follow from this FD set?
    pub fn implies(&self, lhs: &[String], rhs: &str) -> bool {
        self.closure(lhs).contains(rhs)
    }
}

/// All `size`-combinations of `items`, in a stable order.
fn combinations(items: &[String], size: usize) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let n = items.len();
    if size > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..size).collect();
    loop {
        out.push(idx.iter().map(|&i| items[i].clone()).collect());
        // advance
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - size {
                idx[i] += 1;
                for j in i + 1..size {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_storage::widegen::{shopping_orders, ShoppingConfig};

    fn shopping_fds() -> FdSet {
        let w = shopping_orders(&ShoppingConfig::default());
        FdSet::discover(&w, &FdDiscoveryConfig::default())
    }

    #[test]
    fn discovers_the_paper_example_fds() {
        let fds = shopping_fds();
        assert!(fds.implies(&["goodsId".into()], "goodsName"));
        assert!(fds.implies(&["goodsName".into()], "price"));
        assert!(fds.implies(&["userId".into()], "userName"));
        // and not nonsense
        assert!(!fds.implies(&["userName".into()], "goodsId"));
        assert!(!fds.implies(&["quantity".into()], "price"));
    }

    #[test]
    fn minimal_cover_drops_transitive_fds() {
        let fds = shopping_fds().minimal_cover();
        // `goodsId → price` is implied transitively via goodsName; a minimal
        // cover keeps at most one of the two goodsId FDs explicitly…
        let direct_price = fds
            .fds
            .iter()
            .any(|fd| fd.lhs == vec!["goodsId".to_string()] && fd.rhs == "price");
        let via_name = fds
            .fds
            .iter()
            .any(|fd| fd.lhs == vec!["goodsId".to_string()] && fd.rhs == "goodsName");
        assert!(!(direct_price && via_name), "cover kept a redundant FD");
        // …and the cover is smaller than the discovered set while still
        // implying everything.
        assert!(fds.len() < shopping_fds().len());
        assert!(fds.implies(&["goodsId".into()], "price"));
        assert!(fds.implies(&["goodsId".into()], "goodsName"));
    }

    #[test]
    fn closure_and_candidate_key() {
        let fds = shopping_fds();
        let cl = fds.closure(&["goodsId".into()]);
        assert!(cl.contains("goodsName"));
        assert!(cl.contains("price"));
        assert!(!cl.contains("userName"));
        let key = fds.candidate_key();
        // the key must determine everything
        assert_eq!(fds.closure(&key).len(), fds.attributes.len());
        // and must not contain derived attributes
        assert!(!key.contains(&"goodsName".to_string()));
        assert!(!key.contains(&"userName".to_string()));
        assert!(!key.contains(&"price".to_string()));
    }

    #[test]
    fn determined_by_is_transitive() {
        let fds = shopping_fds();
        let dep = fds.determined_by("goodsId");
        assert!(dep.contains(&"goodsName".to_string()));
        assert!(dep.contains(&"price".to_string()));
        assert!(!dep.contains(&"goodsId".to_string()));
    }

    #[test]
    fn combinations_enumerates_all() {
        let items: Vec<String> = vec!["a".into(), "b".into(), "c".into(), "d".into()];
        assert_eq!(combinations(&items, 2).len(), 6);
        assert_eq!(combinations(&items, 4).len(), 1);
        assert_eq!(combinations(&items, 5).len(), 0);
    }

    #[test]
    fn handcrafted_fdset_operations() {
        let fds = FdSet {
            attributes: vec!["a".into(), "b".into(), "c".into()],
            fds: vec![Fd::new(vec!["a"], "b"), Fd::new(vec!["b"], "c")],
        };
        assert!(fds.implies(&["a".into()], "c"));
        assert_eq!(fds.candidate_key(), vec!["a".to_string()]);
        assert_eq!(
            fds.determined_by("a"),
            vec!["b".to_string(), "c".to_string()]
        );
        assert_eq!(format!("{}", fds.fds[0]), "{a} -> b");
    }
}
