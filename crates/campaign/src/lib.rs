//! # tqs-campaign
//!
//! Long-running, sharded, resumable bug-hunt campaigns on top of the TQS
//! harness. Where a `tqs_core::tqs::TqsSession` answers "what does one
//! client find in N queries", this crate answers the production question:
//! "keep hunting this system for days, across partitions and engine builds,
//! survive restarts, and don't drown me in duplicate reports."
//!
//! * [`campaign`] — the orchestrator: the (shard × profile × oracle ×
//!   engine × plan mode × workload) cell grid, the worker fleet,
//!   [`Campaign::new`] / [`Campaign::resume`] / [`Campaign::run`].
//! * `scheduler` — the fleet both campaigns run on: workers take items in
//!   order from one shared cursor, and results come back in item order.
//! * [`triage`] — plan-fingerprint deduplication of raw divergences into bug
//!   classes, one minimized representative per class.
//! * [`corpus`] — the append-only JSONL bug corpus with replayable witness
//!   traces ([`CorpusEntry::replay_connector`]) and one-representative-per-
//!   class compaction ([`Corpus::compact`]).
//! * [`reverify`] — the regression subsystem: [`ReverifyCampaign`] replays
//!   every persisted bug class (witness replay + live re-execution) against
//!   chosen engine builds and classifies it `StillFailing` / `Fixed` /
//!   `Flaky` / `Stale`.
//! * [`checkpoint`] — the cell-completion journal behind resume, plus
//!   per-run totals so throughput rates stay cumulative across kill/resume.
//! * `journal` — the one append-only JSONL format under the checkpoint,
//!   corpus and quarantine files: atomic-or-absent appends, the fsync
//!   commit point, and the torn-tail rule on load and repair.
//! * [`stats`] — live fleet counters and their [`CampaignStats`] snapshot.
//! * [`status`] — the live progress board and the `curl`-able HTTP/JSONL
//!   status endpoint ([`CampaignStatusServer`]).
//!
//! Every artifact above is written and read as `tqs_telemetry::Json`.
//!
//! ## Determinism contract
//!
//! Campaign cells are deterministic: a cell's query stream depends only on
//! `(campaign seed, cell id)` and its own per-cell KQE state, and its data
//! partition is fixed by the shard spec. Thread scheduling may reorder which
//! worker drains which cell — and therefore which duplicate sighting gets to
//! *name* a class first — but the deduplicated **bug-class set** of a
//! finished campaign is a pure function of the configuration. That is the
//! property the resume machinery leans on: kill a campaign at any point,
//! `resume` it (any number of times, with any worker count), and the final
//! class set is bit-identical to an uninterrupted run's.
//!
//! ## Quick start
//!
//! ```
//! use tqs_campaign::{Campaign, CampaignConfig, EngineKind, OracleSpec, PlanMode, Workload};
//! use tqs_core::dsg::{DsgConfig, WideSource};
//! use tqs_engine::ProfileId;
//! use tqs_storage::widegen::ShoppingConfig;
//!
//! let dir = std::env::temp_dir().join(format!("tqs-doc-campaign-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut campaign = Campaign::new(CampaignConfig {
//!     dir: dir.clone(),
//!     dsg: DsgConfig {
//!         source: WideSource::Shopping(ShoppingConfig { n_rows: 80, ..Default::default() }),
//!         ..Default::default()
//!     },
//!     shards: 2,
//!     workers: 2,
//!     profiles: vec![ProfileId::MysqlLike],
//!     oracles: vec![OracleSpec::GroundTruth],
//!     engines: vec![EngineKind::Row],
//!     plan_modes: vec![PlanMode::Single],
//!     workloads: vec![Workload::Select],
//!     queries_per_cell: 20,
//!     seed: 11,
//!     minimize: false,
//!     max_cells_per_run: None,
//!     supervisor: Default::default(),
//! })
//! .unwrap();
//! let stats = campaign.run().unwrap();
//! assert!(campaign.is_complete());
//! assert!(stats.queries > 0);
//! // The same directory resumes to the same (already complete) state.
//! let resumed = Campaign::resume(campaign.config().clone()).unwrap();
//! assert_eq!(resumed.class_keys(), campaign.class_keys());
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod campaign;
pub mod checkpoint;
pub mod corpus;
mod journal;
pub mod reverify;
mod scheduler;
pub mod stats;
pub mod status;
pub mod supervisor;
pub mod triage;

pub use campaign::{
    Campaign, CampaignCell, CampaignConfig, CampaignStopHandle, OracleSpec, PlanMode, Workload,
};
pub use checkpoint::{CellRecord, Checkpoint, CheckpointHeader, CheckpointLoad, RunRecord};
pub use corpus::{CompactionStats, Corpus, CorpusEntry, StoredStatement};
pub use reverify::{
    ClassVerdict, ReverifyCampaign, ReverifyConfig, ReverifyReport, ReverifyStatus,
};
pub use stats::{CampaignStats, LiveStats, ReverifyStats, RunTotals};
pub use status::{CampaignStatusServer, StatusBoard};
pub use supervisor::{Quarantine, QuarantineEntry, SupervisorConfig};
/// The grid's engine axis and the re-verification build axis are the two
/// arguments of [`tqs_core::backend::EngineConnector::open`]; they live there.
pub use tqs_core::backend::{BuildSpec, EngineKind};
pub use triage::{BugTriage, TriageClass};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// The crate's one locking policy: poisoning is ignored. The supervisor
/// catches a cell's panic and retries or quarantines that cell; if the panic
/// struck while a lock was held, honouring the poison would make every later
/// `lock()` panic too, and every remaining cell would end in quarantine.
pub(crate) trait Unpoisoned<T> {
    /// `lock()`, taking the guard even after a holder panicked.
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T>;
    /// `into_inner()`, taking the value even after a holder panicked.
    fn into_inner_unpoisoned(self) -> T;
}

impl<T> Unpoisoned<T> for Mutex<T> {
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn into_inner_unpoisoned(self) -> T {
        self.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpoisoned_access_survives_a_holder_that_panicked() {
        let m = std::sync::Arc::new(Mutex::new(vec![1, 2, 3]));
        let holder = std::sync::Arc::clone(&m);
        let died = std::thread::spawn(move || {
            let mut held = holder.lock_unpoisoned();
            held.push(4);
            panic!("worker dies holding the lock");
        })
        .join();
        assert!(died.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*m.lock_unpoisoned(), [1, 2, 3, 4]);
        let m = std::sync::Arc::into_inner(m).unwrap();
        assert_eq!(m.into_inner_unpoisoned(), [1, 2, 3, 4]);
    }
}
