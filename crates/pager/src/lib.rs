//! # tqs-pager — the disk-backed page store
//!
//! A small but honest storage engine: fixed-size pages, a buffer pool with
//! pin counts and LRU eviction, a write-ahead log with redo recovery, and
//! append-only B+trees keyed by rowid holding each table's heap. It backs
//! the third simulated engine (`EngineKind::Disk`) so every oracle,
//! campaign fleet, and reverification pass can hunt storage-layer logic bugs
//! with the exact same drivers they use against the row and columnar engines.
//!
//! Layering, bottom to top:
//!
//! * [`page`] — page images and the on-page codecs (leaf / internal /
//!   directory), all strict: a torn page decodes to an error, not garbage.
//! * `rowcodec` — `Vec<Value>` ⇄ leaf-cell payload bytes, injective and
//!   strict, so disk answers can be compared bit-for-bit against row answers.
//! * [`pool`] — the buffer pool (no-steal: dirty pages never hit the data
//!   file outside a commit).
//! * [`wal`] — the write-ahead log and redo recovery.
//! * [`store`] — [`DiskStore`]: tables, commit protocol, crash injection.
//!
//! Crash-fault injection is first-class: [`CrashPoint`] names five places a
//! process kill can land inside the commit protocol, and
//! [`DiskStore::set_crash_point`] arms a one-shot kill there. A crashed
//! store is poisoned until [`DiskStore::open`] re-runs recovery. The
//! invariant the crash-recovery suite pins: a batch whose commit record was
//! fsynced survives recovery byte-for-byte; a batch that never reached the
//! fsync vanishes entirely.

pub mod envfault;
pub mod page;
pub mod pool;
pub(crate) mod rowcodec;
pub mod store;
pub mod wal;

pub use envfault::{EnvFaultOp, EnvFaultPolicy};
pub use page::MAX_LEAF_CELLS;
pub use store::{CrashPoint, DiskStore, LeafScan, TableScan, DEFAULT_POOL_FRAMES};
pub use wal::RecoveryStats;
