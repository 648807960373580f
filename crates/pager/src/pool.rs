//! The buffer pool: a fixed set of in-memory frames over the data file, with
//! LRU eviction.
//!
//! Policy is **no-steal**: only clean frames are evicted, so a dirty page
//! never reaches the data file outside a commit's WAL-first protocol. If
//! every frame is dirty the pool temporarily exceeds
//! its capacity rather than break that invariant (the store's commit batches
//! touch a bounded handful of pages, so the overshoot is small and
//! self-healing at the next flush).

use crate::page::{PageBuf, PageId, KIND_LEAF, PAGE_SIZE};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};

/// The data file as an array of pages.
#[derive(Debug)]
pub(crate) struct DataFile {
    file: File,
}

impl DataFile {
    pub fn new(file: File) -> DataFile {
        DataFile { file }
    }

    pub(crate) fn read_page(&mut self, id: PageId, into: &mut PageBuf) -> io::Result<()> {
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        self.file.read_exact(into.as_bytes_mut().as_mut_slice())
    }

    pub(crate) fn write_page(&mut self, id: PageId, page: &PageBuf) -> io::Result<()> {
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        self.file.write_all(page.as_bytes().as_slice())
    }

    /// Write only the first half of the page — the torn write a mid-flush
    /// crash leaves behind. Recovery must repair this from the WAL image.
    pub(crate) fn write_torn(&mut self, id: PageId, page: &PageBuf) -> io::Result<()> {
        self.file
            .seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        self.file.write_all(&page.as_bytes()[..PAGE_SIZE / 2])
    }

    /// Whole pages the file holds.
    pub(crate) fn pages(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len() / PAGE_SIZE as u64)
    }

    /// Cut the file back to its first `pages` pages (the store reclaimed
    /// the rest).
    pub(crate) fn truncate_pages(&mut self, pages: u32) -> io::Result<()> {
        self.file.set_len(pages as u64 * PAGE_SIZE as u64)
    }

    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

#[derive(Debug)]
struct Frame {
    page_id: PageId,
    page: PageBuf,
    dirty: bool,
    last_used: u64,
}

/// Cumulative pool counters (surfaced by `EXPLAIN` on the disk engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: usize,
    pub misses: usize,
    pub evictions: usize,
}

/// Frame index inside the pool (invalidated by the next fetch/evict).
pub(crate) type FrameIdx = usize;

#[derive(Debug)]
pub(crate) struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<PageId, FrameIdx>,
    tick: u64,
    stats: PoolStats,
    /// Leaf cell count at each page's *first* flush to the data file — the
    /// "version an evicted-then-stale frame would serve" the seeded
    /// stale-read fault keys on. `None` for non-leaf pages.
    first_flush_cells: HashMap<PageId, Option<usize>>,
}

impl BufferPool {
    pub fn new(capacity: usize) -> BufferPool {
        BufferPool {
            capacity: capacity.max(4),
            frames: Vec::new(),
            map: HashMap::new(),
            tick: 0,
            stats: PoolStats::default(),
            first_flush_cells: HashMap::new(),
        }
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn touch(&mut self, idx: FrameIdx) {
        self.tick += 1;
        self.frames[idx].last_used = self.tick;
    }

    /// Make room for one more frame if at capacity: evict the
    /// least-recently-used clean frame. No candidate → overshoot.
    fn make_room(&mut self) {
        if self.frames.len() < self.capacity {
            return;
        }
        let victim = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.dirty)
            .min_by_key(|(_, f)| f.last_used)
            .map(|(i, _)| i);
        if let Some(idx) = victim {
            self.remove_frame(idx);
            self.stats.evictions += 1;
            tqs_telemetry::counter!("pager.pool.evictions").incr();
        }
    }

    /// Fetch `id` into a frame, reading from `file` on a miss.
    pub(crate) fn fetch(&mut self, file: &mut DataFile, id: PageId) -> io::Result<FrameIdx> {
        if let Some(&idx) = self.map.get(&id) {
            self.stats.hits += 1;
            tqs_telemetry::counter!("pager.pool.hits").incr();
            self.touch(idx);
            return Ok(idx);
        }
        self.stats.misses += 1;
        tqs_telemetry::counter!("pager.pool.misses").incr();
        self.make_room();
        let mut page = PageBuf::default();
        file.read_page(id, &mut page)?;
        let idx = self.frames.len();
        self.frames.push(Frame {
            page_id: id,
            page,
            dirty: false,
            last_used: 0,
        });
        self.map.insert(id, idx);
        self.touch(idx);
        Ok(idx)
    }

    /// Install a frame for a freshly allocated page (no backing bytes yet).
    pub(crate) fn install_fresh(&mut self, id: PageId) -> FrameIdx {
        debug_assert!(!self.map.contains_key(&id), "page {id} already framed");
        self.make_room();
        let idx = self.frames.len();
        self.frames.push(Frame {
            page_id: id,
            page: PageBuf::default(),
            dirty: true,
            last_used: 0,
        });
        self.map.insert(id, idx);
        self.touch(idx);
        idx
    }

    /// Forget page `id` — its frame, dirty or not, and its first-flush
    /// record — because the store reclaimed it: a later reuse of the id
    /// starts from a fresh frame, as a newly allocated page does.
    pub(crate) fn discard(&mut self, id: PageId) {
        if let Some(&idx) = self.map.get(&id) {
            self.remove_frame(idx);
        }
        self.first_flush_cells.remove(&id);
    }

    fn remove_frame(&mut self, idx: FrameIdx) {
        let gone = self.frames.swap_remove(idx);
        self.map.remove(&gone.page_id);
        if idx < self.frames.len() {
            // swap_remove moved the tail frame into `idx`
            self.map.insert(self.frames[idx].page_id, idx);
        }
    }

    pub fn page(&self, idx: FrameIdx) -> &PageBuf {
        &self.frames[idx].page
    }

    /// Mutable access marks the frame dirty.
    pub(crate) fn page_mut(&mut self, idx: FrameIdx) -> &mut PageBuf {
        self.frames[idx].dirty = true;
        &mut self.frames[idx].page
    }

    /// Dirty page ids, ascending — the commit batch's WAL image set.
    pub(crate) fn dirty_page_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self
            .frames
            .iter()
            .filter(|f| f.dirty)
            .map(|f| f.page_id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The current in-pool image of `id`, if framed.
    pub(crate) fn image_of(&self, id: PageId) -> Option<&PageBuf> {
        self.map.get(&id).map(|&idx| &self.frames[idx].page)
    }

    /// Flush every dirty frame to the data file and clear its dirty bit,
    /// recording each page's first-flushed leaf cell count.
    pub(crate) fn flush_dirty(&mut self, file: &mut DataFile) -> io::Result<()> {
        let mut idxs: Vec<FrameIdx> = (0..self.frames.len())
            .filter(|&i| self.frames[i].dirty)
            .collect();
        idxs.sort_by_key(|&i| self.frames[i].page_id);
        for idx in idxs {
            let (id, cells) = {
                let f = &self.frames[idx];
                let cells =
                    (f.page.kind() == KIND_LEAF).then(|| crate::page::Leaf::cell_count(&f.page));
                (f.page_id, cells)
            };
            file.write_page(id, &self.frames[idx].page)?;
            self.frames[idx].dirty = false;
            self.first_flush_cells.entry(id).or_insert(cells);
        }
        Ok(())
    }

    /// The leaf cell count `id` had when it was first flushed, if it was a
    /// leaf and has been flushed at least once.
    pub fn first_flush_cells(&self, id: PageId) -> Option<usize> {
        self.first_flush_cells.get(&id).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Leaf;

    fn temp_data_file(tag: &str) -> (std::path::PathBuf, DataFile) {
        let path = std::env::temp_dir().join(format!("tqs-pool-{}-{tag}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        (path, DataFile::new(file))
    }

    #[test]
    fn lru_evicts_the_coldest_clean_frame_only() {
        let (path, mut file) = temp_data_file("lru");
        // back 8 pages
        for id in 0..8u32 {
            let mut p = PageBuf::default();
            Leaf::init(&mut p);
            Leaf::push_cell(&mut p, id as u64 + 1, &[id as u8]);
            file.write_page(id, &p).unwrap();
        }
        let mut pool = BufferPool::new(4);
        for id in 0..4u32 {
            pool.fetch(&mut file, id).unwrap();
        }
        // dirty pages 0 and 1; re-touch page 3 so page 2 is coldest
        let idx0 = pool.fetch(&mut file, 0).unwrap();
        pool.page_mut(idx0);
        let idx1 = pool.fetch(&mut file, 1).unwrap();
        pool.page_mut(idx1);
        pool.fetch(&mut file, 3).unwrap();
        // a miss must evict page 2 (clean, coldest)
        pool.fetch(&mut file, 7).unwrap();
        assert!(pool.image_of(0).is_some(), "dirty frame survives");
        assert!(pool.image_of(1).is_some(), "dirty frame survives");
        assert!(pool.image_of(2).is_none(), "cold clean frame evicted");
        assert!(pool.image_of(3).is_some());
        assert_eq!(pool.stats().evictions, 1);
        // dirty everywhere → pool overshoots instead of stealing
        let idx3 = pool.fetch(&mut file, 3).unwrap();
        pool.page_mut(idx3);
        let idx7 = pool.fetch(&mut file, 7).unwrap();
        pool.page_mut(idx7);
        pool.fetch(&mut file, 4).unwrap();
        let idx4 = pool.fetch(&mut file, 4).unwrap();
        pool.page_mut(idx4);
        pool.fetch(&mut file, 5).unwrap();
        assert!(pool.image_of(0).is_some() && pool.image_of(3).is_some());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn flush_clears_dirty_bits_and_records_first_images() {
        let (path, mut file) = temp_data_file("flush");
        let mut pool = BufferPool::new(4);
        let idx = pool.install_fresh(0);
        Leaf::init(pool.page_mut(idx));
        Leaf::push_cell(pool.page_mut(idx), 1, &[1]);
        assert_eq!(pool.dirty_page_ids(), vec![0]);
        pool.flush_dirty(&mut file).unwrap();
        assert!(pool.dirty_page_ids().is_empty());
        assert_eq!(pool.first_flush_cells(0), Some(1));
        // grow the page and flush again: the first-flush count is sticky
        let idx = pool.fetch(&mut file, 0).unwrap();
        Leaf::push_cell(pool.page_mut(idx), 2, &[2]);
        Leaf::push_cell(pool.page_mut(idx), 3, &[3]);
        pool.flush_dirty(&mut file).unwrap();
        assert_eq!(pool.first_flush_cells(0), Some(1));
        // the file carries the latest image
        let mut back = PageBuf::default();
        file.read_page(0, &mut back).unwrap();
        assert_eq!(Leaf::cell_count(&back), 3);
        std::fs::remove_file(path).unwrap();
    }
}
