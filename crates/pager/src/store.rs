//! The disk store: table heaps as append-only leaf chains over a buffer
//! pool, committed through the WAL, with crash-point injection.
//!
//! A store is a directory holding two files:
//!
//! * `data.tqs` — the page file. Page 0 is the table directory; every other
//!   page is a leaf. Each table is a rowid-ordered chain of leaves linked by
//!   their next-leaf pointers: inserts append to the last leaf, scans follow
//!   the chain from the first. Nothing searches by key, so no page indexes
//!   the leaves.
//! * `wal.tqs` — the write-ahead log. Emptied by a checkpoint at the end of
//!   every successful commit and on recovery, so it carries at most the one
//!   in-flight batch.
//!
//! Commit protocol (steal/no-force → no-steal/force-at-checkpoint hybrid):
//!
//! 1. re-encode the table directory into page 0 (always part of the batch);
//! 2. append every dirty page image plus a commit record to the WAL;
//! 3. `fsync` the WAL — **this is the commit point**;
//! 4. flush the dirty pages to the data file and `fsync` it;
//! 5. truncate the WAL (checkpoint).
//!
//! [`CrashPoint`] names the five places a simulated process kill can land in
//! that protocol. A crash poisons the store — every later operation fails —
//! until [`DiskStore::open`] re-runs redo recovery over the files. Batches
//! whose commit record was fsynced (3) survive a crash at any later point;
//! batches that never reached (3) vanish entirely.

use crate::page::{Directory, Leaf, PageBuf, PageCorrupt, PageId, TableMeta, KIND_LEAF};
use crate::pool::{BufferPool, DataFile, PoolStats};
use crate::rowcodec::{decode_row, encode_row};
use crate::wal::{RecoveryStats, Wal};
use std::collections::HashSet;
use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};
use tqs_sql::value::Value;

/// Default buffer-pool capacity, in frames. Small on purpose: realistic
/// table loads must overflow it so eviction and re-reads actually happen.
pub const DEFAULT_POOL_FRAMES: usize = 24;

/// Where a simulated process kill lands inside the commit protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before anything is written: the batch vanishes without a trace.
    BeforeWalAppend,
    /// After the WAL append but before its `fsync`: the OS page cache loses
    /// the record, so the batch vanishes despite the `write()` returning.
    WalAppended,
    /// After the WAL `fsync` but before any data page lands: the batch is
    /// committed and recovery must redo every page from the log.
    WalSynced,
    /// Partway through the data-file flush, leaving the last page torn in
    /// half: recovery must repair it from its full WAL image.
    MidHeapFlush,
    /// After data pages are flushed and synced but before the WAL
    /// checkpoint truncation: recovery replays the batch over identical
    /// bytes — redo must be idempotent.
    AfterFlush,
}

impl CrashPoint {
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::BeforeWalAppend,
        CrashPoint::WalAppended,
        CrashPoint::WalSynced,
        CrashPoint::MidHeapFlush,
        CrashPoint::AfterFlush,
    ];

    pub fn label(self) -> &'static str {
        match self {
            CrashPoint::BeforeWalAppend => "before-wal-append",
            CrashPoint::WalAppended => "wal-appended-unsynced",
            CrashPoint::WalSynced => "wal-synced",
            CrashPoint::MidHeapFlush => "mid-heap-flush",
            CrashPoint::AfterFlush => "after-flush-before-checkpoint",
        }
    }

    /// Is the in-flight batch past the commit point when the kill lands —
    /// i.e. must it survive recovery?
    pub fn batch_is_committed(self) -> bool {
        matches!(
            self,
            CrashPoint::WalSynced | CrashPoint::MidHeapFlush | CrashPoint::AfterFlush
        )
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One leaf's worth of a table scan, with the storage metadata the seeded
/// disk faults key on.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafScan {
    pub page: PageId,
    /// This leaf overflowed into a right sibling at some point.
    pub split_origin: bool,
    /// Cell count at this page's first flush, when it has been flushed — the
    /// version a stale evicted frame would serve.
    pub first_flush_cells: Option<usize>,
    pub rows: Vec<(u64, Vec<Value>)>,
}

/// A full table scan in rowid order, leaf by leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct TableScan {
    pub leaves: Vec<LeafScan>,
    /// First rowid of the most recent commit batch (0 = none).
    pub last_batch_start: u64,
    /// Rows in the most recent commit batch.
    pub last_batch_rows: u32,
}

impl TableScan {
    pub fn row_count(&self) -> usize {
        self.leaves.iter().map(|l| l.rows.len()).sum()
    }

    pub fn into_rows(self) -> Vec<(u64, Vec<Value>)> {
        self.leaves.into_iter().flat_map(|l| l.rows).collect()
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn corrupt(e: PageCorrupt) -> io::Error {
    invalid(e)
}

/// The pool's image of dirty page `id`. The pool never evicts a dirty frame,
/// so a miss is a broken pool, reported instead of panicking.
fn framed(pool: &BufferPool, id: PageId) -> io::Result<&PageBuf> {
    pool.image_of(id)
        .ok_or_else(|| io::Error::other(format!("dirty page {id} is not framed")))
}

/// Record that a leaf-chain walk reached page `id`. A next pointer that leads
/// back into the chain is corrupt: following it would never end.
fn visit(visited: &mut HashSet<PageId>, id: PageId) -> io::Result<()> {
    if visited.insert(id) {
        Ok(())
    } else {
        Err(invalid(format!("leaf chain revisits page {id}")))
    }
}

/// A disk-backed store rooted at one directory.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    data: DataFile,
    wal: Wal,
    pool: BufferPool,
    tables: Vec<TableMeta>,
    page_count: u32,
    batch_seq: u64,
    crash_at: Option<CrashPoint>,
    poisoned: bool,
}

impl DiskStore {
    /// Create a fresh store at `dir`, wiping anything already there.
    pub fn create(dir: &Path, pool_frames: usize) -> io::Result<DiskStore> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(dir.join("data.tqs"))?;
        let mut data = DataFile::new(file);
        let mut page0 = PageBuf::default();
        Directory::init(&mut page0);
        data.write_page(0, &page0)?;
        data.sync()?;
        let mut wal = Wal::open(&dir.join("wal.tqs"))?;
        wal.reset()?;
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            data,
            wal,
            pool: BufferPool::new(pool_frames),
            tables: Vec::new(),
            page_count: 1,
            batch_seq: 0,
            crash_at: None,
            poisoned: false,
        })
    }

    /// Open an existing store, running redo recovery over its WAL first.
    pub fn open(dir: &Path, pool_frames: usize) -> io::Result<(DiskStore, RecoveryStats)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join("data.tqs"))?;
        let mut data = DataFile::new(file);
        let mut wal = Wal::open(&dir.join("wal.tqs"))?;
        let stats = wal.replay(&mut data)?;
        data.sync()?;
        wal.reset()?;
        let mut page0 = PageBuf::default();
        data.read_page(0, &mut page0)?;
        let (page_count, tables) = Directory::decode(&page0).map_err(corrupt)?;
        // Every allocated page reached the file at its batch's commit, so a
        // larger count is corrupt; the next allocation would seek past it.
        let on_disk = data.pages()?;
        if page_count == 0 || u64::from(page_count) > on_disk {
            return Err(invalid(format!(
                "directory counts {page_count} pages, the data file holds {on_disk}"
            )));
        }
        Ok((
            DiskStore {
                dir: dir.to_path_buf(),
                data,
                wal,
                pool: BufferPool::new(pool_frames),
                tables,
                page_count,
                batch_seq: 0,
                crash_at: None,
                poisoned: false,
            },
            stats,
        ))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Is the store still exactly as [`DiskStore::create`] left it — no table
    /// or page allocated, no commit attempted?
    pub fn is_fresh(&self) -> bool {
        self.batch_seq == 0 && self.tables.is_empty() && self.page_count == 1
    }

    pub fn tables(&self) -> &[TableMeta] {
        &self.tables
    }

    /// Pages allocated in the data file, the directory page included.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Arm (or disarm) a one-shot crash at the next commit.
    pub fn set_crash_point(&mut self, point: Option<CrashPoint>) {
        self.crash_at = point;
    }

    /// Did an injected crash fire? A poisoned store refuses every operation
    /// until reopened through [`DiskStore::open`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Rows ever assigned to `table` by this store lineage (committed plus
    /// in-flight): rowids are contiguous from 1.
    pub fn rows_inserted(&self, table: &str) -> io::Result<u64> {
        self.tables[self.table_index(table)?]
            .next_rowid
            .checked_sub(1)
            .ok_or_else(|| invalid(format!("table {table} has rowid counter 0")))
    }

    fn check_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "store is poisoned by an injected crash; reopen it to recover",
            ));
        }
        Ok(())
    }

    fn table_index(&self, table: &str) -> io::Result<usize> {
        self.tables
            .iter()
            .position(|t| t.name == table)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("no table named {table}"))
            })
    }

    fn alloc_page(&mut self) -> PageId {
        let id = self.page_count;
        self.page_count += 1;
        self.pool.install_fresh(id);
        id
    }

    /// Register a table with an empty leaf, the head and tail of its chain.
    /// Durable at the next commit.
    pub fn create_table(&mut self, name: &str) -> io::Result<()> {
        self.check_poisoned()?;
        if self.tables.iter().any(|t| t.name == name) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("table {name} already exists"),
            ));
        }
        let leaf = self.alloc_page();
        let idx = self.pool.fetch(&mut self.data, leaf)?;
        Leaf::init(self.pool.page_mut(idx));
        self.tables.push(TableMeta {
            name: name.to_string(),
            first_leaf: leaf,
            last_leaf: leaf,
            next_rowid: 1,
            last_batch_start: 0,
            last_batch_rows: 0,
        });
        Ok(())
    }

    /// Insert `rows` as one commit batch: assign rowids, append them to the
    /// leaf chain, then run the full commit protocol (including any armed
    /// crash).
    pub fn insert_batch(&mut self, table: &str, rows: &[Vec<Value>]) -> io::Result<()> {
        self.check_poisoned()?;
        let ti = self.table_index(table)?;
        let first = self.tables[ti].next_rowid;
        let mut payload = Vec::new();
        for row in rows {
            let rowid = self.tables[ti].next_rowid;
            self.tables[ti].next_rowid += 1;
            payload.clear();
            encode_row(row, &mut payload);
            self.append(ti, rowid, &payload)?;
        }
        if !rows.is_empty() {
            self.tables[ti].last_batch_start = first;
            self.tables[ti].last_batch_rows = rows.len() as u32;
        }
        self.commit()
    }

    fn append(&mut self, ti: usize, rowid: u64, payload: &[u8]) -> io::Result<()> {
        let tail = self.tables[ti].last_leaf;
        let idx = self.pool.fetch(&mut self.data, tail)?;
        let kind = self.pool.page(idx).kind();
        if kind != KIND_LEAF {
            return Err(invalid(format!(
                "unexpected page kind {kind} at a chain's tail"
            )));
        }
        if Leaf::fits(self.pool.page(idx), payload.len()) {
            Leaf::push_cell(self.pool.page_mut(idx), rowid, payload);
            return Ok(());
        }
        // Split: the full leaf keeps its cells and gains the split-origin
        // mark; the new row opens a fresh right sibling, the new tail.
        let new_leaf = self.alloc_page();
        let idx = self.pool.fetch(&mut self.data, tail)?;
        Leaf::mark_split_origin(self.pool.page_mut(idx));
        Leaf::set_next_leaf(self.pool.page_mut(idx), new_leaf);
        let idx = self.pool.fetch(&mut self.data, new_leaf)?;
        Leaf::init(self.pool.page_mut(idx));
        Leaf::push_cell(self.pool.page_mut(idx), rowid, payload);
        self.tables[ti].last_leaf = new_leaf;
        Ok(())
    }

    /// Empty `table` as one commit batch: its first leaf becomes an empty
    /// chain again, rowids restart at 1, and every other leaf of the chain
    /// is reclaimed — dropped from the pool, then cut off the data file once
    /// the batch has committed. The store keeps no free list, so those pages
    /// must be the most recently allocated ones (nothing else grew since the
    /// table did); otherwise nothing changes and the call fails with
    /// `InvalidInput`.
    pub fn truncate_table(&mut self, table: &str) -> io::Result<()> {
        self.check_poisoned()?;
        let ti = self.table_index(table)?;
        let first_leaf = self.tables[ti].first_leaf;
        let mut visited = HashSet::from([first_leaf]);
        let mut others = Vec::new();
        let mut next = self.next_leaf(first_leaf)?;
        while let Some(id) = next {
            visit(&mut visited, id)?;
            others.push(id);
            next = self.next_leaf(id)?;
        }
        others.sort_unstable();
        let keep = self.page_count.saturating_sub(others.len() as u32);
        if !others.iter().copied().eq(keep..self.page_count) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("table {table} does not own the data file's tail pages"),
            ));
        }
        for &id in &others {
            self.pool.discard(id);
        }
        self.page_count = keep;
        let idx = self.pool.fetch(&mut self.data, first_leaf)?;
        Leaf::init(self.pool.page_mut(idx));
        let meta = &mut self.tables[ti];
        meta.last_leaf = first_leaf;
        meta.next_rowid = 1;
        meta.last_batch_start = 0;
        meta.last_batch_rows = 0;
        self.commit()?;
        self.data.truncate_pages(self.page_count)
    }

    fn next_leaf(&mut self, id: PageId) -> io::Result<Option<PageId>> {
        let idx = self.pool.fetch(&mut self.data, id)?;
        Ok(Leaf::next_leaf(self.pool.page(idx)))
    }

    /// Run the commit protocol over every dirty page (see the module docs).
    pub fn commit(&mut self) -> io::Result<()> {
        self.check_poisoned()?;
        let crash = self.crash_at.take();
        // The directory rides in every batch so table metadata is always
        // WAL-protected.
        let idx = self.pool.fetch(&mut self.data, 0)?;
        Directory::encode(self.pool.page_mut(idx), self.page_count, &self.tables);
        let dirty = self.pool.dirty_page_ids();
        self.batch_seq += 1;

        if crash == Some(CrashPoint::BeforeWalAppend) {
            return self.crash(CrashPoint::BeforeWalAppend);
        }
        let wal_len = self.wal.len()?;
        {
            let images = dirty
                .iter()
                .map(|&id| Ok((id, framed(&self.pool, id)?)))
                .collect::<io::Result<Vec<(PageId, &PageBuf)>>>()?;
            self.wal.append_batch(&images, self.batch_seq)?;
        }
        if crash == Some(CrashPoint::WalAppended) {
            // The record only ever reached the OS cache; the kill drops it.
            self.wal.truncate_to(wal_len)?;
            return self.crash(CrashPoint::WalAppended);
        }
        self.wal.sync()?; // ← the commit point
        if crash == Some(CrashPoint::WalSynced) {
            return self.crash(CrashPoint::WalSynced);
        }
        if crash == Some(CrashPoint::MidHeapFlush) {
            // Every page but the last lands whole; the last is torn in half.
            if let Some((&last, rest)) = dirty.split_last() {
                for &id in rest {
                    let page = framed(&self.pool, id)?.clone();
                    self.data.write_page(id, &page)?;
                }
                let page = framed(&self.pool, last)?.clone();
                self.data.write_torn(last, &page)?;
            }
            self.data.sync()?;
            return self.crash(CrashPoint::MidHeapFlush);
        }
        self.pool.flush_dirty(&mut self.data)?;
        self.data.sync()?;
        if crash == Some(CrashPoint::AfterFlush) {
            // Durable, but the WAL checkpoint never happens: recovery will
            // replay this batch over identical bytes.
            return self.crash(CrashPoint::AfterFlush);
        }
        self.wal.reset()?;
        Ok(())
    }

    fn crash(&mut self, point: CrashPoint) -> io::Result<()> {
        self.poisoned = true;
        Err(io::Error::other(format!(
            "injected crash at {} during commit",
            point.label()
        )))
    }

    /// Scan `table` leaf-by-leaf in rowid order, following the chain from
    /// its first leaf.
    pub fn scan(&mut self, table: &str) -> io::Result<TableScan> {
        self.check_poisoned()?;
        let meta = &self.tables[self.table_index(table)?];
        let (last_batch_start, last_batch_rows) = (meta.last_batch_start, meta.last_batch_rows);
        let mut leaves = Vec::new();
        let mut visited = HashSet::new();
        let mut next = Some(meta.first_leaf);
        while let Some(id) = next {
            visit(&mut visited, id)?;
            let idx = self.pool.fetch(&mut self.data, id)?;
            let page = self.pool.page(idx);
            let cells = Leaf::cells(page).map_err(corrupt)?;
            let split_origin = Leaf::split_origin(page);
            next = Leaf::next_leaf(page);
            let mut rows = Vec::with_capacity(cells.len());
            for (rowid, payload) in cells {
                rows.push((rowid, decode_row(&payload).map_err(invalid)?));
            }
            leaves.push(LeafScan {
                page: id,
                split_origin,
                first_flush_cells: self.pool.first_flush_cells(id),
                rows,
            });
        }
        Ok(TableScan {
            leaves,
            last_batch_start,
            last_batch_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use proptest::prelude::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            TempDir(std::env::temp_dir().join(format!("tqs-store-{}-{tag}", std::process::id())))
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn row(i: u64) -> Vec<Value> {
        vec![
            Value::Int(i as i64),
            Value::Varchar(format!("row-{i}")),
            if i % 7 == 0 {
                Value::Null
            } else {
                Value::UInt(i * 3)
            },
        ]
    }

    fn all_rowids(store: &mut DiskStore, table: &str) -> Vec<u64> {
        store
            .scan(table)
            .unwrap()
            .into_rows()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn inserts_split_scan_and_survive_reopen() {
        let t = TempDir::new("roundtrip");
        let mut store = DiskStore::create(&t.0, 4).unwrap();
        store.create_table("T1").unwrap();
        store.create_table("T2").unwrap();
        // 150 rows in batches of 40 → several leaves (cap 32) and splits,
        // through a pool of only 4 frames.
        let rows: Vec<Vec<Value>> = (1..=150).map(row).collect();
        for chunk in rows.chunks(40) {
            store.insert_batch("T1", chunk).unwrap();
        }
        store.insert_batch("T2", &rows[..5]).unwrap();

        let scan = store.scan("T1").unwrap();
        assert!(scan.leaves.len() > 3, "expected multiple leaves");
        assert!(scan.leaves[0].split_origin, "first leaf must have split");
        assert!(!scan.leaves.last().unwrap().split_origin);
        assert_eq!(scan.last_batch_start, 121);
        assert_eq!(scan.last_batch_rows, 30);
        let got = scan.into_rows();
        assert_eq!(got.len(), 150);
        for (i, (rowid, r)) in got.iter().enumerate() {
            assert_eq!(*rowid, i as u64 + 1, "rowids contiguous in order");
            assert_eq!(r, &row(i as u64 + 1));
        }
        assert_eq!(store.rows_inserted("T1").unwrap(), 150);
        let evictions = store.pool_stats().evictions;
        assert!(evictions > 0, "a 4-frame pool over 150 rows must evict");

        drop(store);
        let (mut back, stats) = DiskStore::open(&t.0, 4).unwrap();
        assert_eq!(stats.batches_replayed, 0, "clean close leaves no WAL");
        assert_eq!(back.scan("T1").unwrap().into_rows(), got);
        assert_eq!(back.scan("T2").unwrap().into_rows()[2], (3, row(3)));
    }

    #[test]
    fn a_scan_fetches_one_page_per_leaf_and_a_load_one_per_row() {
        let t = TempDir::new("traffic");
        let mut store = DiskStore::create(&t.0, DEFAULT_POOL_FRAMES).unwrap();
        store.create_table("T").unwrap();
        let fetches = |s: &DiskStore| s.pool_stats().hits + s.pool_stats().misses;
        let rows: Vec<Vec<Value>> = (1..=1000).map(row).collect();
        for chunk in rows.chunks(48) {
            store.insert_batch("T", chunk).unwrap();
        }
        // One fetch per row (its tail leaf) plus, per split, the full leaf
        // again and its new sibling; one directory fetch per commit (21) and
        // one when the table was created.
        let loaded = fetches(&store);
        assert_eq!(loaded, 1000 + 31 * 2 + 21 + 1);
        let scan = store.scan("T").unwrap();
        assert_eq!(scan.leaves.len(), 32);
        assert_eq!(store.page_count(), 1 + 32, "the directory and the leaves");
        assert_eq!(fetches(&store) - loaded, scan.leaves.len());
    }

    #[test]
    fn crash_at_every_point_keeps_committed_rows_and_only_those() {
        for point in CrashPoint::ALL {
            let t = TempDir::new(&format!("crash-{point}"));
            let mut store = DiskStore::create(&t.0, 8).unwrap();
            store.create_table("T").unwrap();
            let rows: Vec<Vec<Value>> = (1..=120).map(row).collect();
            store.insert_batch("T", &rows[..40]).unwrap();
            store.insert_batch("T", &rows[40..80]).unwrap();
            let committed: Vec<u64> = (1..=80).collect();

            store.set_crash_point(Some(point));
            let err = store.insert_batch("T", &rows[80..]).unwrap_err();
            assert!(err.to_string().contains(point.label()), "{err}");
            assert!(store.is_poisoned());
            assert!(store.scan("T").is_err(), "poisoned store must refuse");

            drop(store);
            let (mut back, stats) = DiskStore::open(&t.0, 8).unwrap();
            let expect: Vec<u64> = if point.batch_is_committed() {
                assert!(stats.batches_replayed >= 1, "{point}: redo must run");
                (1..=120).collect()
            } else {
                assert_eq!(stats.batches_replayed, 0, "{point}: nothing to redo");
                committed.clone()
            };
            assert_eq!(all_rowids(&mut back, "T"), expect, "after {point}");
            // the store works again post-recovery
            back.insert_batch("T", &rows[..3]).unwrap();
            assert_eq!(back.rows_inserted("T").unwrap(), expect.len() as u64 + 3);
        }
    }

    #[test]
    fn empty_tables_and_empty_batches_are_durable() {
        let t = TempDir::new("empty");
        let mut store = DiskStore::create(&t.0, 8).unwrap();
        store.create_table("Empty").unwrap();
        store.insert_batch("Empty", &[]).unwrap();
        drop(store);
        let (mut back, _) = DiskStore::open(&t.0, 8).unwrap();
        assert_eq!(back.scan("Empty").unwrap().row_count(), 0);
        assert_eq!(back.tables().len(), 1);
    }

    fn data_len(dir: &Path) -> u64 {
        std::fs::metadata(dir.join("data.tqs")).unwrap().len()
    }

    #[test]
    fn truncate_table_reclaims_the_tail_and_restarts_rowids() {
        let t = TempDir::new("truncate");
        let mut store = DiskStore::create(&t.0, 4).unwrap();
        store.create_table("Base").unwrap();
        store.create_table("Log").unwrap();
        let rows: Vec<Vec<Value>> = (1..=100).map(row).collect();
        store.insert_batch("Base", &rows).unwrap();
        let (pages, len) = (store.page_count(), data_len(&t.0));
        let base = store.scan("Base").unwrap();
        let empty_log = store.scan("Log").unwrap();
        for _ in 0..3 {
            // 100 rows in 32-cell leaves grow the log's chain by three leaves.
            for chunk in rows.chunks(30) {
                store.insert_batch("Log", chunk).unwrap();
            }
            assert!(store.page_count() > pages + 2);
            store.truncate_table("Log").unwrap();
            assert_eq!((store.page_count(), data_len(&t.0)), (pages, len));
            assert_eq!(store.scan("Log").unwrap(), empty_log);
            assert_eq!(store.scan("Base").unwrap(), base);
        }
        store.insert_batch("Log", &rows[..2]).unwrap();
        assert_eq!(all_rowids(&mut store, "Log"), vec![1, 2]);
        drop(store);
        let (mut back, _) = DiskStore::open(&t.0, 4).unwrap();
        assert_eq!(all_rowids(&mut back, "Log"), vec![1, 2]);
        assert_eq!(back.scan("Base").unwrap().into_rows(), base.into_rows());
    }

    #[test]
    fn truncate_table_refuses_a_table_that_does_not_own_the_tail() {
        let t = TempDir::new("truncate-mid");
        let mut store = DiskStore::create(&t.0, 8).unwrap();
        store.create_table("A").unwrap();
        store.create_table("B").unwrap();
        let rows: Vec<Vec<Value>> = (1..=40).map(row).collect();
        store.insert_batch("A", &rows).unwrap();
        store.insert_batch("B", &rows).unwrap();
        let err = store.truncate_table("A").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(all_rowids(&mut store, "A").len(), 40, "nothing changed");
        store.truncate_table("B").unwrap();
        assert!(all_rowids(&mut store, "B").is_empty());
    }

    #[test]
    fn a_crash_inside_truncate_table_keeps_it_atomic() {
        for point in CrashPoint::ALL {
            let t = TempDir::new(&format!("truncate-crash-{point}"));
            let mut store = DiskStore::create(&t.0, 8).unwrap();
            store.create_table("T").unwrap();
            let rows: Vec<Vec<Value>> = (1..=50).map(row).collect();
            store.insert_batch("T", &rows).unwrap();
            store.set_crash_point(Some(point));
            assert!(store.truncate_table("T").is_err());
            drop(store);
            let (mut back, _) = DiskStore::open(&t.0, 8).unwrap();
            let expect = if point.batch_is_committed() { 0 } else { 50 };
            assert_eq!(all_rowids(&mut back, "T").len(), expect, "{point}");
        }
    }

    #[test]
    fn a_leaf_chain_that_loops_back_is_refused() {
        let t = TempDir::new("cycle");
        let mut store = DiskStore::create(&t.0, 8).unwrap();
        store.create_table("T").unwrap();
        let rows: Vec<Vec<Value>> = (1..=100).map(row).collect();
        store.insert_batch("T", &rows).unwrap();
        let leaves: Vec<PageId> = store
            .scan("T")
            .unwrap()
            .leaves
            .iter()
            .map(|l| l.page)
            .collect();
        assert!(leaves.len() > 2);
        drop(store);
        // Point the last leaf's next pointer back at the first leaf.
        let path = t.0.join("data.tqs");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = leaves[leaves.len() - 1] as usize * PAGE_SIZE;
        let mut last = PageBuf::default();
        last.as_bytes_mut()
            .copy_from_slice(&bytes[at..at + PAGE_SIZE]);
        Leaf::set_next_leaf(&mut last, leaves[0]);
        bytes[at..at + PAGE_SIZE].copy_from_slice(last.as_bytes());
        std::fs::write(&path, bytes).unwrap();

        let (mut back, _) = DiskStore::open(&t.0, 8).unwrap();
        let err = back.scan("T").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let err = back.truncate_table("T").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// A store at `dir` holding table `T` (two pages), whose directory page
    /// `edit` then rewrites in `data.tqs`.
    fn store_with_directory(dir: &Path, edit: impl FnOnce(&mut u32, &mut [TableMeta])) {
        let mut store = DiskStore::create(dir, 8).unwrap();
        store.create_table("T").unwrap();
        store.commit().unwrap();
        drop(store);
        let path = dir.join("data.tqs");
        let mut bytes = std::fs::read(&path).unwrap();
        let mut page0 = PageBuf::default();
        page0.as_bytes_mut().copy_from_slice(&bytes[..PAGE_SIZE]);
        let (mut pages, mut tables) = Directory::decode(&page0).unwrap();
        edit(&mut pages, &mut tables);
        Directory::encode(&mut page0, pages, &tables);
        bytes[..PAGE_SIZE].copy_from_slice(page0.as_bytes());
        std::fs::write(&path, bytes).unwrap();
    }

    #[test]
    fn a_zero_rowid_counter_is_refused() {
        let t = TempDir::new("rowid-zero");
        // No store lineage assigns a rowid counter of 0.
        store_with_directory(&t.0, |_, tables| tables[0].next_rowid = 0);
        let (back, _) = DiskStore::open(&t.0, 8).unwrap();
        let err = back.rows_inserted("T").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn a_page_count_past_the_data_file_is_refused() {
        for count in [0, 3, 1 << 24] {
            let t = TempDir::new(&format!("page-count-{count}"));
            store_with_directory(&t.0, |pages, _| *pages = count);
            let err = DiskStore::open(&t.0, 8).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{count}: {err}");
        }
    }

    /// The files of a store with two tables, one of them spread over several
    /// leaves, and a committed batch still in the WAL (a crash right after
    /// the commit point): `(data.tqs, wal.tqs)`, built once per process.
    fn store_images() -> (Vec<u8>, Vec<u8>) {
        static IMAGES: std::sync::OnceLock<(Vec<u8>, Vec<u8>)> = std::sync::OnceLock::new();
        IMAGES.get_or_init(build_store_images).clone()
    }

    fn build_store_images() -> (Vec<u8>, Vec<u8>) {
        let t = TempDir::new("images");
        let mut store = DiskStore::create(&t.0, 8).unwrap();
        store.create_table("A").unwrap();
        store.create_table("B").unwrap();
        let rows: Vec<Vec<Value>> = (1..=70).map(row).collect();
        store.insert_batch("A", &rows[..60]).unwrap();
        store.insert_batch("B", &rows[..5]).unwrap();
        store.set_crash_point(Some(CrashPoint::WalSynced));
        assert!(store.insert_batch("A", &rows[60..]).is_err());
        drop(store);
        let read = |name: &str| std::fs::read(t.0.join(name)).unwrap();
        (read("data.tqs"), read("wal.tqs"))
    }

    /// Write `data` and `wal` as a store at `dir`, open it and scan every
    /// table. Whatever the files hold, this must return, not panic or hang.
    fn open_and_scan(dir: &Path, data: &[u8], wal: &[u8]) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("data.tqs"), data).unwrap();
        std::fs::write(dir.join("wal.tqs"), wal).unwrap();
        if let Ok((mut store, _)) = DiskStore::open(dir, 4) {
            let names: Vec<String> = store.tables().iter().map(|t| t.name.clone()).collect();
            for name in names {
                let _ = store.rows_inserted(&name);
                let _ = store.scan(&name);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn a_store_with_one_corrupt_byte_opens_or_fails_cleanly(
            in_wal in any::<bool>(),
            unit in 0usize..8,
            offset in 0usize..768,
            to in any::<u8>(),
        ) {
            let (mut data, mut wal) = store_images();
            // Hit page and record headers and the cells behind them: byte
            // `offset` of data page `unit`, or of WAL record `unit` (a page
            // record is 1 + 4 + PAGE_SIZE bytes; the last one is the commit).
            let (file, stride) = if in_wal {
                (&mut wal, 1 + 4 + PAGE_SIZE)
            } else {
                (&mut data, PAGE_SIZE)
            };
            let at = (unit * stride + offset).min(file.len() - 1);
            file[at] = to;
            let t = TempDir::new("mutated");
            open_and_scan(&t.0, &data, &wal);
        }

        #[test]
        fn a_store_of_arbitrary_bytes_opens_or_fails_cleanly(
            in_wal in any::<bool>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..2 * PAGE_SIZE),
        ) {
            let (mut data, mut wal) = store_images();
            *(if in_wal { &mut wal } else { &mut data }) = bytes;
            let t = TempDir::new("arbitrary");
            open_and_scan(&t.0, &data, &wal);
        }
    }

    #[test]
    fn first_flush_cells_tracks_the_stale_version_of_a_regrown_leaf() {
        let t = TempDir::new("staleframe");
        let mut store = DiskStore::create(&t.0, 8).unwrap();
        store.create_table("T").unwrap();
        // first batch part-fills the tail leaf, second batch grows it
        let rows: Vec<Vec<Value>> = (1..=40).map(row).collect();
        store.insert_batch("T", &rows[..10]).unwrap();
        store.insert_batch("T", &rows[10..]).unwrap();
        let scan = store.scan("T").unwrap();
        let first = &scan.leaves[0];
        assert_eq!(first.first_flush_cells, Some(10), "flushed at 10 cells");
        assert!(first.rows.len() > 10, "grew past its first flushed image");
    }
}
