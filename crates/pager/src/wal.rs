//! The write-ahead log: full page images followed by a commit record, with
//! redo-only recovery.
//!
//! Record wire format (all integers little-endian):
//!
//! ```text
//! page image : [0x01][page_id u32][image: PAGE_SIZE bytes]
//! commit     : [0x02][batch_seq u64]
//! ```
//!
//! A commit batch is staged in one userspace buffer and written with a single
//! `write_all`, then made durable with one `fsync`. Recovery scans the log
//! from the start, stages page images, and applies them to the data file only
//! when their commit record is reached; a torn tail (truncated record or an
//! unknown kind byte) ends the scan — everything before the last complete
//! commit record is redone, everything after is discarded.

use crate::envfault::{EnvFaultOp, EnvFaultPolicy};
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::pool::DataFile;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

const REC_PAGE: u8 = 0x01;
const REC_COMMIT: u8 = 0x02;

/// What redo recovery found and did while replaying a WAL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Commit batches whose page images were re-applied to the data file.
    pub batches_replayed: usize,
    /// Total page images applied (a page staged twice is applied twice).
    pub pages_applied: usize,
    /// Page images staged after the last commit record and discarded.
    pub uncommitted_pages_dropped: usize,
    /// The log ended mid-record (crash during the WAL append itself).
    pub torn_tail: bool,
}

/// An append-only write-ahead log file.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    env: EnvFaultPolicy,
}

impl Wal {
    pub fn open(path: &Path) -> io::Result<Wal> {
        // Never truncate: recovery must read whatever tail survived a crash.
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        Ok(Wal {
            file,
            env: EnvFaultPolicy::off(),
        })
    }

    /// Route this log's writes and fsyncs through an environmental fault
    /// policy (chaos testing). An injected write failure leaves a torn tail
    /// — exactly what recovery's scan is built to discard.
    #[cfg(test)]
    fn set_env_faults(&mut self, env: EnvFaultPolicy) {
        self.env = env;
    }

    pub fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Append one commit batch — page images then the commit record — with a
    /// single write. **Not yet durable**: call [`Wal::sync`] afterwards.
    pub(crate) fn append_batch(
        &mut self,
        images: &[(PageId, &PageBuf)],
        batch_seq: u64,
    ) -> io::Result<()> {
        let mut buf = Vec::with_capacity(images.len() * (1 + 4 + PAGE_SIZE) + 9);
        for (id, page) in images {
            buf.push(REC_PAGE);
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(page.as_bytes().as_slice());
        }
        buf.push(REC_COMMIT);
        buf.extend_from_slice(&batch_seq.to_le_bytes());
        self.file.seek(SeekFrom::End(0))?;
        tqs_telemetry::counter!("pager.wal.appends").incr();
        tqs_telemetry::counter!("pager.wal.append_bytes").add(buf.len() as u64);
        if let Some(e) = self.env.should_fail(EnvFaultOp::Write) {
            // A short write: half the batch reaches the log before the EIO,
            // leaving a torn tail for recovery to discard.
            self.file.write_all(&buf[..buf.len() / 2])?;
            return Err(e);
        }
        self.file.write_all(&buf)
    }

    pub fn sync(&mut self) -> io::Result<()> {
        tqs_telemetry::counter!("pager.wal.fsyncs").incr();
        if let Some(e) = self.env.should_fail(EnvFaultOp::Sync) {
            return Err(e);
        }
        self.file.sync_all()
    }

    /// Truncate back to `len` — used to emulate the OS page cache losing an
    /// appended-but-never-fsynced batch in a crash.
    pub(crate) fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        Ok(())
    }

    /// Discard the whole log (after its batches are safely in the data file).
    pub fn reset(&mut self) -> io::Result<()> {
        self.truncate_to(0)?;
        self.file.sync_all()
    }

    /// Redo every committed batch into the data file. Stops at a torn tail.
    /// Does not sync or truncate anything — the caller owns that ordering.
    pub fn replay(&mut self, data: &mut DataFile) -> io::Result<RecoveryStats> {
        let mut bytes = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut bytes)?;

        let mut stats = RecoveryStats::default();
        let mut staged: Vec<(PageId, PageBuf)> = Vec::new();
        let mut at = 0usize;
        while at < bytes.len() {
            match bytes[at] {
                REC_PAGE if at + 1 + 4 + PAGE_SIZE <= bytes.len() => {
                    let id = u32::from_le_bytes([
                        bytes[at + 1],
                        bytes[at + 2],
                        bytes[at + 3],
                        bytes[at + 4],
                    ]);
                    let mut page = PageBuf::default();
                    page.as_bytes_mut()
                        .copy_from_slice(&bytes[at + 5..at + 5 + PAGE_SIZE]);
                    staged.push((id, page));
                    at += 1 + 4 + PAGE_SIZE;
                }
                REC_COMMIT if at + 1 + 8 <= bytes.len() => {
                    for (id, page) in staged.drain(..) {
                        data.write_page(id, &page)?;
                        stats.pages_applied += 1;
                    }
                    stats.batches_replayed += 1;
                    at += 1 + 8;
                }
                // Truncated record or garbage: a torn tail. Nothing after it
                // can be trusted.
                _ => {
                    stats.torn_tail = true;
                    break;
                }
            }
        }
        stats.uncommitted_pages_dropped = staged.len();
        tqs_telemetry::counter!("pager.wal.replay_batches").add(stats.batches_replayed as u64);
        tqs_telemetry::counter!("pager.wal.replay_pages").add(stats.pages_applied as u64);
        if stats.torn_tail {
            tqs_telemetry::counter!("pager.wal.replay_torn_tails").incr();
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Leaf;

    struct TempWal {
        wal_path: std::path::PathBuf,
        data_path: std::path::PathBuf,
    }

    impl TempWal {
        fn new(tag: &str) -> TempWal {
            let base = std::env::temp_dir();
            let pid = std::process::id();
            let t = TempWal {
                wal_path: base.join(format!("tqs-wal-{pid}-{tag}.wal")),
                data_path: base.join(format!("tqs-wal-{pid}-{tag}.db")),
            };
            let _ = std::fs::remove_file(&t.wal_path);
            let _ = std::fs::remove_file(&t.data_path);
            t
        }

        fn data(&self) -> DataFile {
            DataFile::new(
                OpenOptions::new()
                    .create(true)
                    .truncate(false)
                    .read(true)
                    .write(true)
                    .open(&self.data_path)
                    .unwrap(),
            )
        }
    }

    impl Drop for TempWal {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.wal_path);
            let _ = std::fs::remove_file(&self.data_path);
        }
    }

    fn leaf_with(rowids: &[u64]) -> PageBuf {
        let mut p = PageBuf::default();
        Leaf::init(&mut p);
        for &r in rowids {
            Leaf::push_cell(&mut p, r, &r.to_le_bytes());
        }
        p
    }

    #[test]
    fn committed_batches_replay_and_uncommitted_tail_is_dropped() {
        let t = TempWal::new("replay");
        let mut wal = Wal::open(&t.wal_path).unwrap();
        let p1 = leaf_with(&[1, 2]);
        let p2 = leaf_with(&[3]);
        wal.append_batch(&[(0, &p1), (1, &p2)], 1).unwrap();
        let p1b = leaf_with(&[1, 2, 5]);
        wal.append_batch(&[(0, &p1b)], 2).unwrap();
        // a third batch whose commit record never made it
        let len = wal.len().unwrap();
        wal.append_batch(&[(1, &leaf_with(&[3, 9]))], 3).unwrap();
        wal.truncate_to(len + 1 + 4 + PAGE_SIZE as u64).unwrap();

        let mut data = t.data();
        let stats = wal.replay(&mut data).unwrap();
        assert_eq!(stats.batches_replayed, 2);
        assert_eq!(stats.pages_applied, 3);
        assert_eq!(stats.uncommitted_pages_dropped, 1);
        assert!(!stats.torn_tail, "complete page record, missing commit");

        let mut back = PageBuf::default();
        data.read_page(0, &mut back).unwrap();
        assert_eq!(Leaf::cells(&back).unwrap().len(), 3, "second image wins");
        data.read_page(1, &mut back).unwrap();
        assert_eq!(Leaf::cells(&back).unwrap().len(), 1, "uncommitted dropped");
    }

    #[test]
    fn a_tail_torn_mid_record_stops_the_scan() {
        let t = TempWal::new("torn");
        let mut wal = Wal::open(&t.wal_path).unwrap();
        wal.append_batch(&[(0, &leaf_with(&[1]))], 1).unwrap();
        let committed = wal.len().unwrap();
        wal.append_batch(&[(1, &leaf_with(&[2]))], 2).unwrap();
        wal.truncate_to(committed + 3).unwrap(); // mid page record

        let mut data = t.data();
        let stats = wal.replay(&mut data).unwrap();
        assert_eq!(stats.batches_replayed, 1);
        assert!(stats.torn_tail);

        let mut back = PageBuf::default();
        data.read_page(0, &mut back).unwrap();
        assert_eq!(Leaf::cells(&back).unwrap().len(), 1);
    }

    #[test]
    fn injected_write_faults_leave_committed_prefix_intact() {
        let t = TempWal::new("envfault");
        let mut wal = Wal::open(&t.wal_path).unwrap();
        wal.set_env_faults(EnvFaultPolicy::seeded(11, 40));
        let mut committed = 0usize;
        let mut seq = 0u64;
        while committed < 5 {
            seq += 1;
            let page = leaf_with(&[seq]);
            match wal.append_batch(&[(0, &page)], seq) {
                Ok(()) => match wal.sync() {
                    Ok(()) => committed += 1,
                    // Data written but durability failed: a real store would
                    // retry the sync; the batch is still complete on disk.
                    Err(_) => {
                        wal.sync().unwrap();
                        committed += 1;
                    }
                },
                // Short write: the torn tail must be discarded before the
                // next append, as the commit protocol does after an IO error.
                Err(_) => {
                    let len = wal.len().unwrap();
                    // Recovery-style scan to find the committed prefix, then
                    // drop the torn bytes.
                    let mut data = t.data();
                    let stats = wal.replay(&mut data).unwrap();
                    assert!(stats.torn_tail || stats.uncommitted_pages_dropped > 0 || len == 0);
                    let keep = (stats.batches_replayed * (1 + 4 + PAGE_SIZE + 1 + 8)) as u64;
                    wal.truncate_to(keep).unwrap();
                }
            }
        }
        let mut data = t.data();
        let stats = wal.replay(&mut data).unwrap();
        assert_eq!(stats.batches_replayed, 5, "every committed batch survives");
        assert!(!stats.torn_tail, "torn tails were repaired");
    }

    #[test]
    fn reset_empties_the_log() {
        let t = TempWal::new("reset");
        let mut wal = Wal::open(&t.wal_path).unwrap();
        wal.append_batch(&[(0, &leaf_with(&[1]))], 1).unwrap();
        assert!(wal.len().unwrap() > 0);
        wal.reset().unwrap();
        assert_eq!(wal.len().unwrap(), 0);
        let mut data = t.data();
        assert_eq!(wal.replay(&mut data).unwrap(), RecoveryStats::default());
    }
}
