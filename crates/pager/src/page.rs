//! Fixed-size pages and the on-page codecs.
//!
//! Every file in a store is an array of `PAGE_SIZE`-byte pages. Two page
//! kinds exist:
//!
//! * **leaf** — one link of a table's leaf chain: `(rowid, payload)` cells in
//!   ascending rowid order plus a next-leaf pointer;
//! * **directory** — page 0, the table directory: one entry per table (name,
//!   first and last leaf, rowid counter, last commit-batch window) plus the
//!   allocated page count.
//!
//! All integers are little-endian. Codecs are deliberately strict: a page
//! whose kind byte or offsets are inconsistent decodes to an error, never to
//! garbage rows — a torn page must be *visible* to the layers above.

/// Size of every page, in bytes.
pub(crate) const PAGE_SIZE: usize = 4096;

/// Page index inside the data file (page 0 is the table directory).
pub(crate) type PageId = u32;

pub(crate) const KIND_LEAF: u8 = 1;
pub(crate) const KIND_DIRECTORY: u8 = 3;

/// Leaf flag: this leaf overflowed and handed its high end to a new sibling
/// — the metadata the seeded "split loses the high key" fault keys on.
pub(crate) const FLAG_SPLIT_ORIGIN: u8 = 0b0000_0001;

const LEAF_HEADER: usize = 12; // kind, flags, count u16, next u32, free u32

/// Cap on cells per leaf (besides the byte-fit check) so realistic table
/// sizes still exercise splits, multi-leaf scans and buffer-pool traffic.
pub const MAX_LEAF_CELLS: usize = 32;

/// One fixed-size page image.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct PageBuf(pub Box<[u8; PAGE_SIZE]>);

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageBuf(kind={})", self.0[0])
    }
}

impl Default for PageBuf {
    fn default() -> Self {
        PageBuf(Box::new([0u8; PAGE_SIZE]))
    }
}

impl PageBuf {
    pub fn kind(&self) -> u8 {
        self.0[0]
    }

    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.0
    }

    pub(crate) fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.0
    }
}

fn read_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(buf)
}

fn write_u16(b: &mut [u8], at: usize, v: u16) {
    b[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn write_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn write_u64(b: &mut [u8], at: usize, v: u64) {
    b[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Decoding error: the page image does not parse as its claimed kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PageCorrupt(pub String);

impl std::fmt::Display for PageCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt page: {}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Leaf pages
// ---------------------------------------------------------------------------

/// Typed view over a leaf page.
pub(crate) struct Leaf;

impl Leaf {
    /// Format `page` as a fresh, empty leaf.
    pub(crate) fn init(page: &mut PageBuf) {
        let b = page.as_bytes_mut();
        b.fill(0);
        b[0] = KIND_LEAF;
        write_u32(b, 8, LEAF_HEADER as u32);
    }

    pub(crate) fn cell_count(page: &PageBuf) -> usize {
        read_u16(page.as_bytes(), 2) as usize
    }

    pub(crate) fn next_leaf(page: &PageBuf) -> Option<PageId> {
        match read_u32(page.as_bytes(), 4) {
            0 => None, // page 0 is the directory, so 0 is a safe sentinel
            id => Some(id),
        }
    }

    pub(crate) fn set_next_leaf(page: &mut PageBuf, next: PageId) {
        write_u32(page.as_bytes_mut(), 4, next);
    }

    pub fn split_origin(page: &PageBuf) -> bool {
        page.as_bytes()[1] & FLAG_SPLIT_ORIGIN != 0
    }

    pub(crate) fn mark_split_origin(page: &mut PageBuf) {
        page.as_bytes_mut()[1] |= FLAG_SPLIT_ORIGIN;
    }

    fn free_offset(page: &PageBuf) -> usize {
        read_u32(page.as_bytes(), 8) as usize
    }

    /// Does a payload of `len` bytes still fit?
    pub fn fits(page: &PageBuf, len: usize) -> bool {
        Self::cell_count(page) < MAX_LEAF_CELLS
            && Self::free_offset(page) + 8 + 4 + len <= PAGE_SIZE
    }

    /// Append one `(rowid, payload)` cell. Caller must have checked
    /// [`fits`](Self::fits); rowids must arrive in ascending order.
    pub(crate) fn push_cell(page: &mut PageBuf, rowid: u64, payload: &[u8]) {
        let at = Self::free_offset(page);
        let count = Self::cell_count(page);
        let b = page.as_bytes_mut();
        write_u64(b, at, rowid);
        write_u32(b, at + 8, payload.len() as u32);
        b[at + 12..at + 12 + payload.len()].copy_from_slice(payload);
        write_u16(b, 2, (count + 1) as u16);
        write_u32(b, 8, (at + 12 + payload.len()) as u32);
    }

    /// All `(rowid, payload)` cells, in on-page (ascending rowid) order.
    pub fn cells(page: &PageBuf) -> Result<Vec<(u64, Vec<u8>)>, PageCorrupt> {
        let b = page.as_bytes();
        if b[0] != KIND_LEAF {
            return Err(PageCorrupt(format!("expected leaf, kind byte {}", b[0])));
        }
        let count = Self::cell_count(page);
        let free = Self::free_offset(page);
        if !(LEAF_HEADER..=PAGE_SIZE).contains(&free) {
            return Err(PageCorrupt(format!("leaf free offset {free} out of range")));
        }
        let mut cells = Vec::with_capacity(count);
        let mut at = LEAF_HEADER;
        for _ in 0..count {
            if at + 12 > free {
                return Err(PageCorrupt("leaf cell runs past free offset".into()));
            }
            let rowid = read_u64(b, at);
            let len = read_u32(b, at + 8) as usize;
            if at + 12 + len > free {
                return Err(PageCorrupt("leaf payload runs past free offset".into()));
            }
            cells.push((rowid, b[at + 12..at + 12 + len].to_vec()));
            at += 12 + len;
        }
        if at != free {
            return Err(PageCorrupt(
                "leaf has trailing bytes before free offset".into(),
            ));
        }
        Ok(cells)
    }
}

// ---------------------------------------------------------------------------
// The directory page
// ---------------------------------------------------------------------------

/// One table's directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    pub name: String,
    /// Head of the table's leaf chain: the page the table was created with,
    /// where every scan starts.
    pub first_leaf: PageId,
    /// Tail of the leaf chain, where inserts append.
    pub last_leaf: PageId,
    /// Next rowid to assign (rowids start at 1 and only grow).
    pub next_rowid: u64,
    /// First rowid of the most recent commit batch (0 = no batch yet) — the
    /// window the WAL-loss and double-replay faults key on.
    pub last_batch_start: u64,
    /// Rows in the most recent commit batch.
    pub last_batch_rows: u32,
}

/// Bytes of a directory entry after its name: first and last leaf, rowid
/// counter, last batch start and rows.
const ENTRY_FIELDS: usize = 4 + 4 + 8 + 8 + 4;

/// Typed view over page 0.
pub(crate) struct Directory;

impl Directory {
    pub(crate) fn init(page: &mut PageBuf) {
        let b = page.as_bytes_mut();
        b.fill(0);
        b[0] = KIND_DIRECTORY;
        write_u32(b, 4, 1); // pages allocated so far (the directory itself)
    }

    pub fn encode(page: &mut PageBuf, page_count: u32, tables: &[TableMeta]) {
        Self::init(page);
        let b = page.as_bytes_mut();
        write_u32(b, 4, page_count);
        write_u16(b, 2, tables.len() as u16);
        let mut at = 8;
        for t in tables {
            let name = t.name.as_bytes();
            assert!(name.len() <= u8::MAX as usize, "table name too long");
            assert!(
                at + 1 + name.len() + ENTRY_FIELDS <= PAGE_SIZE,
                "table directory overflows page 0"
            );
            b[at] = name.len() as u8;
            b[at + 1..at + 1 + name.len()].copy_from_slice(name);
            at += 1 + name.len();
            write_u32(b, at, t.first_leaf);
            write_u32(b, at + 4, t.last_leaf);
            write_u64(b, at + 8, t.next_rowid);
            write_u64(b, at + 16, t.last_batch_start);
            write_u32(b, at + 24, t.last_batch_rows);
            at += ENTRY_FIELDS;
        }
    }

    pub fn decode(page: &PageBuf) -> Result<(u32, Vec<TableMeta>), PageCorrupt> {
        let b = page.as_bytes();
        if b[0] != KIND_DIRECTORY {
            return Err(PageCorrupt(format!(
                "expected directory, kind byte {}",
                b[0]
            )));
        }
        let count = read_u16(b, 2) as usize;
        let page_count = read_u32(b, 4);
        let mut tables = Vec::with_capacity(count);
        let mut at = 8;
        for _ in 0..count {
            if at + 1 > PAGE_SIZE {
                return Err(PageCorrupt("directory entry overflows".into()));
            }
            let name_len = b[at] as usize;
            if at + 1 + name_len + ENTRY_FIELDS > PAGE_SIZE {
                return Err(PageCorrupt("directory entry overflows".into()));
            }
            let name = std::str::from_utf8(&b[at + 1..at + 1 + name_len])
                .map_err(|_| PageCorrupt("directory name is not UTF-8".into()))?
                .to_string();
            at += 1 + name_len;
            tables.push(TableMeta {
                name,
                first_leaf: read_u32(b, at),
                last_leaf: read_u32(b, at + 4),
                next_rowid: read_u64(b, at + 8),
                last_batch_start: read_u64(b, at + 16),
                last_batch_rows: read_u32(b, at + 24),
            });
            at += ENTRY_FIELDS;
        }
        Ok((page_count, tables))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A full leaf: `MAX_LEAF_CELLS` cells of 20-byte payloads.
    fn full_leaf() -> PageBuf {
        let mut page = PageBuf::default();
        Leaf::init(&mut page);
        for rowid in 1..=MAX_LEAF_CELLS as u64 {
            Leaf::push_cell(&mut page, rowid, &[rowid as u8; 20]);
        }
        Leaf::set_next_leaf(&mut page, 9);
        page
    }

    fn sample_directory() -> PageBuf {
        let table = |name: &str, leaf: PageId| TableMeta {
            name: name.into(),
            first_leaf: leaf,
            last_leaf: leaf + 1,
            next_rowid: 40,
            last_batch_start: 8,
            last_batch_rows: 32,
        };
        let mut page = PageBuf::default();
        Directory::encode(&mut page, 6, &[table("T1", 1), table("GoodsDim", 3)]);
        page
    }

    proptest! {
        #[test]
        fn page_decoders_refuse_arbitrary_bytes_without_panicking(
            bytes in proptest::collection::vec(any::<u8>(), PAGE_SIZE),
            kind in prop_oneof![Just(KIND_LEAF), Just(KIND_DIRECTORY)],
        ) {
            let mut page = PageBuf::default();
            page.as_bytes_mut().copy_from_slice(&bytes);
            // Past the kind check, into the offsets and counts.
            page.as_bytes_mut()[0] = kind;
            let _ = Leaf::cells(&page);
            let _ = Directory::decode(&page);
        }

        #[test]
        fn page_decoders_survive_any_single_byte_mutation(at in 0usize..1024, to in any::<u8>()) {
            // The leaf's header and 32 cells of 32 bytes span its first 1036
            // bytes; the directory's header and two entries its first 76.
            let mut leaf = full_leaf();
            leaf.as_bytes_mut()[at] = to;
            let _ = Leaf::cells(&leaf);
            let mut directory = sample_directory();
            directory.as_bytes_mut()[at % 76] = to;
            let _ = Directory::decode(&directory);
        }
    }

    #[test]
    fn leaf_cells_round_trip_in_order() {
        let mut page = PageBuf::default();
        Leaf::init(&mut page);
        assert_eq!(Leaf::cell_count(&page), 0);
        assert!(Leaf::next_leaf(&page).is_none());
        for rowid in 1..=5u64 {
            assert!(Leaf::fits(&page, 10));
            Leaf::push_cell(&mut page, rowid, &[rowid as u8; 10]);
        }
        let cells = Leaf::cells(&page).unwrap();
        assert_eq!(cells.len(), 5);
        assert_eq!(cells[2], (3, vec![3u8; 10]));
        Leaf::set_next_leaf(&mut page, 7);
        assert_eq!(Leaf::next_leaf(&page), Some(7));
        assert!(!Leaf::split_origin(&page));
        Leaf::mark_split_origin(&mut page);
        assert!(Leaf::split_origin(&page));
    }

    #[test]
    fn leaf_respects_the_cell_cap_and_byte_fit() {
        let mut page = PageBuf::default();
        Leaf::init(&mut page);
        for rowid in 0..MAX_LEAF_CELLS as u64 {
            assert!(Leaf::fits(&page, 1));
            Leaf::push_cell(&mut page, rowid, &[0]);
        }
        assert!(!Leaf::fits(&page, 1), "cell cap must close the leaf");
        let mut page = PageBuf::default();
        Leaf::init(&mut page);
        assert!(!Leaf::fits(&page, PAGE_SIZE), "oversize payload rejected");
    }

    #[test]
    fn torn_leaf_decodes_to_an_error_not_garbage() {
        let mut page = PageBuf::default();
        Leaf::init(&mut page);
        Leaf::push_cell(&mut page, 1, &[9; 100]);
        Leaf::push_cell(&mut page, 2, &[8; 100]);
        // Tear the tail half: the free offset now points past zeroed bytes.
        page.as_bytes_mut()[PAGE_SIZE / 2..].fill(0);
        // Free offset itself survived (it is in the header), but the second
        // cell's bytes did not — corrupt, not silently one cell.
        assert!(Leaf::cells(&page).is_ok(), "header region intact");
        // Tear the header half instead: count says 2, data is gone.
        let mut page2 = PageBuf::default();
        Leaf::init(&mut page2);
        Leaf::push_cell(&mut page2, 1, &[9; 100]);
        page2.as_bytes_mut()[8..12].copy_from_slice(&(PAGE_SIZE as u32 + 9).to_le_bytes());
        assert!(Leaf::cells(&page2).is_err());
    }

    #[test]
    fn directory_round_trips() {
        let mut page = PageBuf::default();
        let tables = vec![
            TableMeta {
                name: "T1".into(),
                first_leaf: 3,
                last_leaf: 11,
                next_rowid: 151,
                last_batch_start: 129,
                last_batch_rows: 22,
            },
            TableMeta {
                name: "GoodsDim".into(),
                first_leaf: 9,
                last_leaf: 9,
                next_rowid: 8,
                last_batch_start: 1,
                last_batch_rows: 7,
            },
        ];
        Directory::encode(&mut page, 12, &tables);
        let (pages, back) = Directory::decode(&page).unwrap();
        assert_eq!(pages, 12);
        assert_eq!(back, tables);
        let chain_ends = |t: &TableMeta| (t.first_leaf, t.last_leaf);
        assert_eq!(
            back.iter().map(chain_ends).collect::<Vec<_>>(),
            [(3, 11), (9, 9)]
        );
    }
}
