//! The campaign orchestrator: a long-running, sharded, resumable bug hunt.
//!
//! A campaign turns the one-shot explorer into a service-shaped workload:
//!
//! 1. **Cell grid.** The hunt is the cross product (wide-table shard ×
//!    fault profile × oracle × engine × plan mode × workload). Each cell is
//!    an independent, deterministic unit: its statement stream is seeded by
//!    `(campaign seed, cell id)` and its data partition is fixed, so a cell
//!    always produces the same verdicts no matter when, where or after how
//!    many kills it runs.
//! 2. **Fleet.** Worker threads take pending cells in id order from one
//!    shared cursor (`scheduler::drain_in_order`), each cell under the
//!    supervisor's retry and quarantine policy. Cells finish out of order
//!    and retire in cell order on the run thread, the one writer of triage
//!    and journals. A bounded run drains the lowest-id pending cells.
//! 3. **Triage.** A cell deduplicates its raw divergences by plan-fingerprint
//!    class and minimizes each of its classes once; retiring it admits them
//!    campaign-wide ([`crate::triage::BugTriage`]), so the lowest cell id
//!    owns each class at any worker count.
//! 4. **Persistence.** A retiring cell appends its new classes, with their
//!    witness traces, to `corpus.jsonl`, then its record to
//!    `checkpoint.jsonl`. [`Campaign::resume`] replays both and continues
//!    with the missing cells — a killed-and-resumed campaign converges to the
//!    identical deduplicated bug-class set as an uninterrupted one, and any
//!    worker count writes the same corpus.

use crate::checkpoint::{CellRecord, Checkpoint, CheckpointHeader, RunRecord};
use crate::corpus::{Corpus, CorpusEntry, StoredStatement};
use crate::scheduler::drain_in_order;
use crate::stats::{CampaignStats, LiveStats, RunTotals};
use crate::status::StatusBoard;
use crate::supervisor::{retry_append, Quarantine, QuarantineEntry, SupervisorConfig};
use crate::triage::BugTriage;
use crate::Unpoisoned;
use std::collections::{BTreeSet, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;
use tqs_core::backend::{DbmsConnector, EngineKind, RecordingConnector};
use tqs_core::bugs::{minimize_with_oracle, BugReport, KeyCache, OracleKind};
use tqs_core::dsg::{DsgConfig, DsgDatabase, QueryGenConfig, QueryGenerator};
use tqs_core::kqe::{Kqe, KqeConfig, KqeScorer};
use tqs_core::mutation::{DmlGenConfig, DmlGenerator, DmlOracle};
use tqs_core::oracle::{DifferentialOracle, Oracle, OracleVerdict, PlanSpaceOracle, TqsOracle};
use tqs_engine::cancel::CancelToken;
use tqs_engine::ProfileId;
use tqs_graph::plangraph::{graph_fingerprint, query_graph_with_subqueries};
use tqs_graph::{GraphIndex, LabeledGraph};
use tqs_sql::ast::{DmlStmt, SelectStmt};
use tqs_sql::render::render_stmt;
use tqs_telemetry::Json;

/// Engine-level statement executions in a recorded trace slice.
fn count_statements(events: &[tqs_core::backend::TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, tqs_core::backend::TraceEvent::Statement { .. }))
        .count()
}

/// How many physical plans a cell hunts per statement — the plan-space grid
/// axis. `Single` is the historical behavior (the oracle's own hint-set
/// transformations); `Space` swaps the cell's verdict procedure for the
/// [`PlanSpaceOracle`]: every statement is lowered through the optimizer,
/// its full plan space enumerated (cost-ranked top-K plus seeded samples)
/// and *every* enumerated plan executed and verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// One plan per hint set, as the cell's oracle defines.
    Single,
    /// The enumerated optimizer plan space per statement.
    Space,
}

impl PlanMode {
    pub fn label(self) -> &'static str {
        match self {
            PlanMode::Single => "single",
            PlanMode::Space => "space",
        }
    }
}

/// What kind of statement stream a cell hunts with — the workload grid
/// axis. `Select` is the historical behavior (generated join queries judged
/// by the cell's oracle); `Dml` swaps the stream for generated mutation
/// programs (INSERT/UPDATE/DELETE plus transaction control) judged by the
/// delta-maintained mutation ground truth
/// ([`DmlOracle`](tqs_core::mutation::DmlOracle)), which is what reaches the
/// engines' seeded DML fault complement ([`tqs_engine::FaultKind::DML`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Generated SELECT statements through the cell's oracle.
    Select,
    /// Generated DML + transaction programs through the mutation oracle.
    Dml,
}

impl Workload {
    pub fn label(self) -> &'static str {
        match self {
            Workload::Select => "select",
            Workload::Dml => "dml",
        }
    }
}

/// Which verdict procedure a cell drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleSpec {
    /// The paper's oracle: every hinted plan against the shard's wide-table
    /// ground truth.
    GroundTruth,
    /// Cross-engine differential testing: the faulty build against one
    /// pristine replica on a *different* engine (columnar, unless the cell
    /// itself runs columnar, in which case row).
    CrossEngine,
    /// Three-way differential testing: the faulty build against pristine
    /// replicas of *both other* engines. The expected answer is the first
    /// reference's; the second executes every statement too and can only
    /// veto, by failing (see [`DifferentialOracle`]).
    ThreeWay,
}

impl OracleSpec {
    pub fn label(self) -> &'static str {
        match self {
            OracleSpec::GroundTruth => "ground-truth",
            OracleSpec::CrossEngine => "cross-engine",
            OracleSpec::ThreeWay => "three-way",
        }
    }

    /// Build the verdict procedure for one cell. Differential oracles pick
    /// their references among the engines *other than* the cell's own, so a
    /// reference never shares the build-under-test's fault complement.
    pub(crate) fn build(
        self,
        profile: ProfileId,
        engine: EngineKind,
        shard: &Arc<DsgDatabase>,
    ) -> Box<dyn Oracle> {
        match self {
            OracleSpec::GroundTruth => Box::new(TqsOracle::shared(Arc::clone(shard))),
            OracleSpec::CrossEngine => {
                let reference = if engine == EngineKind::Columnar {
                    EngineKind::Row
                } else {
                    EngineKind::Columnar
                };
                Box::new(DifferentialOracle::new(
                    reference.connect_pristine(profile, shard),
                ))
            }
            OracleSpec::ThreeWay => {
                let references: Vec<Box<dyn DbmsConnector>> = EngineKind::ALL
                    .into_iter()
                    .filter(|e| *e != engine)
                    .map(|e| Box::new(e.connect_pristine(profile, shard)) as Box<dyn DbmsConnector>)
                    .collect();
                Box::new(DifferentialOracle::panel(references))
            }
        }
    }
}

/// Campaign configuration. The `(seed, shards, profiles, oracles,
/// queries_per_cell)` tuple is the campaign's *identity* — it determines the
/// cell grid and every cell's behavior, and is pinned in the checkpoint
/// header so a resume cannot silently run a different hunt in the same
/// directory. `workers` and `max_cells_per_run` are operational knobs and
/// may change between runs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign directory: holds `checkpoint.jsonl` and `corpus.jsonl`.
    pub dir: PathBuf,
    /// The testing-database recipe (wide-table source, FDs, noise).
    pub dsg: DsgConfig,
    /// Row-range shards the wide table is split into (≥ 1).
    pub shards: usize,
    /// Worker threads draining the cell grid.
    pub workers: usize,
    /// Engine builds under test (one cell column per profile).
    pub profiles: Vec<ProfileId>,
    /// Verdict procedures (one cell column per oracle).
    pub oracles: Vec<OracleSpec>,
    /// Executors under test (one cell column per engine). Part of the
    /// campaign identity like `profiles`/`oracles`.
    pub engines: Vec<EngineKind>,
    /// Plan modes hunted (one cell column per mode). Part of the campaign
    /// identity; `[Single]` reproduces the historical grid exactly.
    pub plan_modes: Vec<PlanMode>,
    /// Statement workloads hunted (one cell column per workload). Part of
    /// the campaign identity; `[Select]` reproduces the historical grid
    /// exactly.
    pub workloads: Vec<Workload>,
    /// Query budget per cell — cells are budget-bound, not wall-clock-bound,
    /// which is what makes them deterministic and resumable.
    pub queries_per_cell: usize,
    pub seed: u64,
    /// Minimize one representative per newly discovered class.
    pub minimize: bool,
    /// Drain at most this many cells per run: the lowest-id pending ones
    /// (the rest stay pending for the next run) — bounded sessions and
    /// kill-testing.
    pub max_cells_per_run: Option<usize>,
    /// Supervised-runtime knobs: deadlines, retry/quarantine policy and
    /// chaos injection. Operational (not part of the campaign
    /// identity): a resume may use different supervision than the run that
    /// created the journal.
    pub supervisor: SupervisorConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            dir: PathBuf::from("campaign-run"),
            dsg: DsgConfig::default(),
            shards: 2,
            workers: 2,
            profiles: vec![ProfileId::MysqlLike],
            oracles: vec![OracleSpec::GroundTruth],
            engines: vec![EngineKind::Row],
            plan_modes: vec![PlanMode::Single],
            workloads: vec![Workload::Select],
            queries_per_cell: 100,
            seed: 7,
            minimize: true,
            max_cells_per_run: None,
            supervisor: SupervisorConfig::default(),
        }
    }
}

impl CampaignConfig {
    fn header(&self) -> CheckpointHeader {
        CheckpointHeader {
            seed: self.seed,
            dsg_digest: self.dsg_digest(),
            shards: self.shards.max(1),
            cells: self.cell_grid().len(),
            queries_per_cell: self.queries_per_cell,
            profiles: self.profiles.iter().map(|p| p.name().to_string()).collect(),
            oracles: self.oracles.iter().map(|o| o.label().to_string()).collect(),
            engines: self.engines.iter().map(|e| e.label().to_string()).collect(),
            plan_modes: self
                .plan_modes
                .iter()
                .map(|m| m.label().to_string())
                .collect(),
            workloads: self
                .workloads
                .iter()
                .map(|w| w.label().to_string())
                .collect(),
        }
    }

    /// Digest of the testing-database recipe (source, FD discovery, noise).
    /// Pinned in the checkpoint header: the shard databases a resume rebuilds
    /// are a pure function of `dsg`, so a changed recipe must be rejected,
    /// not silently hunted. `DsgConfig`'s `Debug` rendering covers every
    /// field and is deterministic, which is all a tamper check needs.
    fn dsg_digest(&self) -> u64 {
        tqs_sql::fingerprint_hash(format!("{:?}", self.dsg).as_bytes())
    }

    /// The full cell grid, in id order. Newer axes go innermost so a
    /// campaign not using them keeps exactly the cell ids it had before the
    /// axis existed (corpus entries name cells by id): engine inside oracle,
    /// plan mode inside engine, workload inside plan mode.
    fn cell_grid(&self) -> Vec<CampaignCell> {
        let mut cells = Vec::new();
        for shard in 0..self.shards.max(1) {
            for &profile in &self.profiles {
                for &oracle in &self.oracles {
                    for &engine in &self.engines {
                        for &plan_mode in &self.plan_modes {
                            for &workload in &self.workloads {
                                cells.push(CampaignCell {
                                    id: cells.len(),
                                    shard,
                                    profile,
                                    oracle,
                                    engine,
                                    plan_mode,
                                    workload,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One schedulable work unit: hunt one shard on one engine build with one
/// oracle for `queries_per_cell` statements.
#[derive(Debug, Clone, Copy)]
pub struct CampaignCell {
    pub id: usize,
    /// Index into the campaign's shard databases.
    pub shard: usize,
    pub profile: ProfileId,
    pub oracle: OracleSpec,
    pub engine: EngineKind,
    pub plan_mode: PlanMode,
    pub workload: Workload,
}

impl CampaignCell {
    /// The verdict procedure of this cell: the configured oracle in
    /// single-plan mode, the [`PlanSpaceOracle`] in plan-space mode (the
    /// plan-space hunt subsumes the per-oracle hint transformations — every
    /// enumerated plan is checked against the shard's ground truth). The
    /// single construction point shared by the hunt ([`Campaign::run`]) and
    /// both re-verification legs, so a witness always replays under the
    /// oracle that recorded it.
    pub(crate) fn build_oracle(&self, shard: &Arc<DsgDatabase>) -> Box<dyn Oracle> {
        match self.plan_mode {
            PlanMode::Single => self.oracle.build(self.profile, self.engine, shard),
            PlanMode::Space => Box::new(PlanSpaceOracle::shared(Arc::clone(shard))),
        }
    }
}

/// A sharded, resumable hunt campaign (see the module docs).
pub struct Campaign {
    cfg: CampaignConfig,
    shards: Vec<Arc<DsgDatabase>>,
    cells: Vec<CampaignCell>,
    done: HashSet<usize>,
    triage: BugTriage,
    corpus: Corpus,
    checkpoint: Checkpoint,
    /// Campaign files whose torn final line (kill mid-append) was truncated
    /// when this campaign resumed — surfaced through [`CampaignStats`]
    /// instead of stderr so fleets and CI see the repair in the artifact.
    torn_tails_repaired: usize,
    /// Totals of every finished run before this process's runs, replayed
    /// from the journal's run records; [`Campaign::run`] folds each of its
    /// own runs in so rates stay cumulative within a process too.
    prior: RunTotals,
    /// Live progress published for status readers (the HTTP endpoint).
    status: Arc<StatusBoard>,
    /// The journaled poison list (cells that exhausted their retry budget).
    quarantine_journal: Quarantine,
    /// Quarantined cells, loaded from the journal on resume and extended as
    /// the fleet gives up on cells. Quarantined cells are neither pending
    /// nor done — they are accounted for separately.
    quarantine: Vec<QuarantineEntry>,
    /// Graceful-stop flag shared with [`CampaignStopHandle`]s; workers check
    /// it before taking another cell.
    stop: Arc<AtomicBool>,
}

/// A cloneable handle requesting a graceful stop of a running [`Campaign`]:
/// in-flight cells finish, the run checkpoint is written, and `run` returns
/// `Ok` with the partial stats. Obtain one with [`Campaign::stop_handle`]
/// *before* calling `run` (which borrows the campaign mutably).
#[derive(Clone)]
pub struct CampaignStopHandle {
    flag: Arc<AtomicBool>,
    board: Arc<StatusBoard>,
}

impl CampaignStopHandle {
    /// Request a graceful stop. Idempotent; takes effect at the next
    /// cell boundary of each worker.
    pub fn request_stop(&self) {
        tqs_telemetry::counter!("campaign.supervisor.stop_requests").incr();
        self.flag.store(true, Ordering::Relaxed);
        self.board.request_stop();
    }

    pub fn is_stop_requested(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

impl Campaign {
    /// Start a fresh campaign: build the shard databases (wide table
    /// generated once, FDs shared), write the checkpoint header, and leave
    /// every cell pending. Fails if the directory already holds a campaign —
    /// use [`resume`](Self::resume) for that.
    pub fn new(cfg: CampaignConfig) -> io::Result<Campaign> {
        std::fs::create_dir_all(&cfg.dir)?;
        let checkpoint = Checkpoint::in_dir(&cfg.dir);
        if checkpoint.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds a campaign checkpoint; use Campaign::resume",
                    cfg.dir.display()
                ),
            ));
        }
        checkpoint.create(&cfg.header())?;
        Ok(Campaign {
            shards: DsgDatabase::build_sharded(&cfg.dsg, cfg.shards),
            cells: cfg.cell_grid(),
            done: HashSet::new(),
            triage: BugTriage::new(),
            corpus: Corpus::in_dir(&cfg.dir),
            checkpoint,
            torn_tails_repaired: 0,
            prior: RunTotals::default(),
            status: Arc::new(StatusBoard::new()),
            quarantine_journal: Quarantine::in_dir(&cfg.dir),
            quarantine: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            cfg,
        })
    }

    /// Resume a campaign from its directory: replay the checkpoint journal
    /// (which cells are drained) and the corpus (which bug classes are
    /// known), rebuild the shard databases from the same seed, and leave the
    /// missing cells pending. The journal header must match `cfg`'s
    /// identity.
    pub fn resume(cfg: CampaignConfig) -> io::Result<Campaign> {
        let checkpoint = Checkpoint::in_dir(&cfg.dir);
        // A kill mid-append leaves a torn final line; truncate it so this
        // run's appends start on a fresh line instead of merging into it.
        // The repairs are counted (not logged) — `CampaignStats` carries
        // them into the run's machine-readable artifact.
        let quarantine_journal = Quarantine::in_dir(&cfg.dir);
        let torn_tails_repaired = usize::from(checkpoint.repair_torn_tail()?)
            + usize::from(Corpus::in_dir(&cfg.dir).repair_torn_tail()?)
            + usize::from(quarantine_journal.repair_torn_tail()?);
        let loaded = checkpoint.load()?;
        let header = loaded.header;
        let expected = cfg.header();
        if header != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: checkpoint header does not match the configuration \
                     (on disk: {header:?}, configured: {expected:?})",
                    cfg.dir.display()
                ),
            ));
        }
        let corpus = Corpus::in_dir(&cfg.dir);
        let mut triage = BugTriage::new();
        for entry in corpus.load()? {
            if entry.report.class_key() != entry.class_key {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: corpus class key `{}` disagrees with its report",
                        corpus.path().display(),
                        entry.class_key
                    ),
                ));
            }
            triage.admit(entry.report, entry.cell_id);
        }
        let cells = cfg.cell_grid();
        let done: HashSet<usize> = loaded
            .cells
            .iter()
            .map(|r| r.cell_id)
            .filter(|id| *id < cells.len())
            .collect();
        // Sum the journal's run records so the resumed campaign's rates are
        // cumulative — the clock keeps running across kill/resume instead
        // of resetting with each process.
        let prior = loaded
            .runs
            .iter()
            .fold(RunTotals::default(), |acc, r| RunTotals {
                elapsed: acc.elapsed + std::time::Duration::from_millis(r.elapsed_ms),
                queries: acc.queries + r.queries,
                statements: acc.statements + r.statements,
                plans: acc.plans + r.plans,
            });
        // The poison list survives resume: quarantined cells are neither
        // re-run nor lost. (A torn final line was already repaired above —
        // its cell simply stays pending and gets another chance.)
        let mut seen_poisoned = HashSet::new();
        let quarantine: Vec<QuarantineEntry> = quarantine_journal
            .load()?
            .into_iter()
            .filter(|q| {
                q.cell_id < cells.len()
                    && !done.contains(&q.cell_id)
                    && seen_poisoned.insert(q.cell_id)
            })
            .collect();
        Ok(Campaign {
            shards: DsgDatabase::build_sharded(&cfg.dsg, cfg.shards),
            cells,
            done,
            triage,
            corpus,
            checkpoint,
            torn_tails_repaired,
            prior,
            status: Arc::new(StatusBoard::new()),
            quarantine_journal,
            quarantine,
            stop: Arc::new(AtomicBool::new(false)),
            cfg,
        })
    }

    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    pub fn triage(&self) -> &BugTriage {
        &self.triage
    }

    /// Torn final lines truncated when this campaign resumed (always 0 for
    /// a fresh campaign). Also carried in [`CampaignStats`].
    pub fn torn_tails_repaired(&self) -> usize {
        self.torn_tails_repaired
    }

    /// Totals of the campaign's previous runs (journal run records plus any
    /// runs this process already finished).
    pub fn prior_totals(&self) -> RunTotals {
        self.prior
    }

    /// The live-progress board. Hand this (it is `Arc`-shared) to a
    /// [`CampaignStatusServer`](crate::status::CampaignStatusServer) — or
    /// any other monitor thread — before calling [`run`](Self::run); it
    /// publishes snapshots for the whole run and the final stats afterward.
    pub fn status_board(&self) -> Arc<StatusBoard> {
        Arc::clone(&self.status)
    }

    /// The shard databases the fleet hunts (index = `CampaignCell::shard`).
    pub fn shards(&self) -> &[Arc<DsgDatabase>] {
        &self.shards
    }

    /// The full cell grid, in id order (`cells()[id].id == id`). Corpus
    /// entries name their discovering cell by id; re-verification resolves
    /// the shard and oracle of a persisted class through this.
    pub fn cells(&self) -> &[CampaignCell] {
        &self.cells
    }

    pub fn cells_total(&self) -> usize {
        self.cells.len()
    }

    pub fn cells_done(&self) -> usize {
        self.done.len()
    }

    /// Cells still pending, in id order. Quarantined cells are not pending —
    /// the fleet gave up on them and journaled why.
    pub(crate) fn pending_cells(&self) -> Vec<CampaignCell> {
        let poisoned: HashSet<usize> = self.quarantine.iter().map(|q| q.cell_id).collect();
        self.cells
            .iter()
            .filter(|c| !self.done.contains(&c.id) && !poisoned.contains(&c.id))
            .copied()
            .collect()
    }

    /// Every cell is either drained or quarantined — nothing left to hunt.
    pub fn is_complete(&self) -> bool {
        self.done.len() + self.quarantine.len() == self.cells.len()
    }

    /// The poison list: cells that exhausted their retry budget, with the
    /// attempt count and final failure reason. Survives kill+resume.
    pub fn quarantined(&self) -> &[QuarantineEntry] {
        &self.quarantine
    }

    /// A handle for requesting a graceful stop of a `run` in progress (from
    /// another thread — `run` borrows the campaign mutably). Workers finish
    /// their in-flight cell, the run record is journaled, and `run` returns
    /// `Ok`; `/status` reports `stopping` then `stopped`.
    pub fn stop_handle(&self) -> CampaignStopHandle {
        CampaignStopHandle {
            flag: Arc::clone(&self.stop),
            board: Arc::clone(&self.status),
        }
    }

    /// The deduplicated class-key set — the campaign's primary artifact.
    pub fn class_keys(&self) -> BTreeSet<String> {
        self.triage.class_keys()
    }

    /// Drain the pending cells — the `max_cells_per_run` lowest-id ones when
    /// bounded — with the worker fleet, retiring each in cell order on this
    /// thread. Returns this run's statistics.
    pub fn run(&mut self) -> io::Result<CampaignStats> {
        let _run_span = tqs_telemetry::span("campaign", "run");
        let mut pending = self.pending_cells();
        pending.truncate(self.cfg.max_cells_per_run.unwrap_or(usize::MAX));
        let live = Arc::new(LiveStats::start_with_prior(self.prior));
        self.status.begin_run(
            Arc::clone(&live),
            self.cells.len(),
            self.done.len(),
            self.triage.class_count(),
            self.torn_tails_repaired,
        );
        let fleet = Fleet {
            cfg: &self.cfg,
            shards: &self.shards,
            diversity: Mutex::new(GraphIndex::new()),
            live: &live,
        };
        let sup = &self.cfg.supervisor;
        // The one writer: cells retire in id order, so the lowest cell that
        // found a class owns it. Appends retry under the supervisor's budget.
        let retire = |cell: &CampaignCell, outcome: CellOutcome| -> io::Result<()> {
            let mut new_classes = 0;
            for entry in outcome.found {
                if self.triage.admit(entry.report.clone(), cell.id).is_some() {
                    retry_append(sup, |env| self.corpus.append_with(&entry, env))?;
                    new_classes += 1;
                    live.add_new_class();
                }
            }
            match outcome.end {
                Ok(mut record) => {
                    record.new_classes = new_classes;
                    retry_append(sup, |env| self.checkpoint.append_cell_with(&record, env))?;
                    self.done.insert(cell.id);
                    live.cell_drained();
                }
                Err(entry) => {
                    retry_append(sup, |env| self.quarantine_journal.append(&entry, env))?;
                    self.quarantine.push(entry);
                    live.add_quarantined();
                    tqs_telemetry::counter!("campaign.supervisor.quarantined").incr();
                }
            }
            Ok(())
        };
        if let Err(e) = drain_in_order(
            self.cfg.workers,
            &pending,
            &self.stop,
            |cell| fleet.supervise_cell(cell),
            retire,
        ) {
            self.status.abort();
            return Err(e);
        }
        let diversity = fleet.diversity.into_inner_unpoisoned();
        live.set_diversity(diversity.isomorphic_set_count());
        let stats = live.snapshot(
            self.cells.len(),
            self.done.len(),
            self.triage.class_count(),
            self.torn_tails_repaired,
        );
        // Journal this run's totals and fold them into `prior` so both a
        // resumed process and a later `run()` in this one keep reporting
        // cumulative rates.
        let totals = live.run_totals();
        let run_record = RunRecord {
            elapsed_ms: totals.elapsed.as_millis() as u64,
            queries: totals.queries,
            statements: totals.statements,
            plans: totals.plans,
        };
        retry_append(sup, |env| self.checkpoint.append_run_with(&run_record, env))?;
        self.prior = RunTotals {
            elapsed: self.prior.elapsed + totals.elapsed,
            queries: self.prior.queries + totals.queries,
            statements: self.prior.statements + totals.statements,
            plans: self.prior.plans + totals.plans,
        };
        self.status.finish(stats.clone());
        Ok(stats)
    }
}

/// What the fleet's workers share: configuration and shards, read-only, the
/// reporting-only diversity index and the live counters. They write no
/// triage and no journal; [`Campaign::run`] retires what they return.
struct Fleet<'a> {
    cfg: &'a CampaignConfig,
    shards: &'a [Arc<DsgDatabase>],
    diversity: Mutex<GraphIndex>,
    live: &'a LiveStats,
}

/// A supervised cell's result, retired on the run thread in cell order.
struct CellOutcome {
    /// One corpus entry per class found, in order, over all attempts.
    found: Vec<CorpusEntry>,
    /// Drained: the checkpoint record. Given up on: the quarantine entry.
    end: Result<CellRecord, QuarantineEntry>,
}

impl Fleet<'_> {
    /// One cell under supervision: panics are caught and recorded as
    /// `HarnessPanic` classes, failed attempts retry with capped backoff, and
    /// a cell that exhausts the attempt budget is quarantined instead of
    /// poisoning the run. What failed attempts found is kept: a retry
    /// re-sights it as duplicates, and a quarantined cell still retires it.
    fn supervise_cell(&self, cell: &CampaignCell) -> CellOutcome {
        let sup = &self.cfg.supervisor;
        let mut found = Vec::new();
        let mut attempt = 0u32;
        let end = loop {
            attempt += 1;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_cell(cell, attempt, &mut found)
            }));
            let reason = match outcome {
                Ok(Ok(record)) => break Ok(record),
                Ok(Err(e)) => {
                    tqs_telemetry::counter!("campaign.supervisor.cell_io_errors").incr();
                    e.to_string()
                }
                Err(payload) => {
                    self.live.add_panic_caught();
                    tqs_telemetry::counter!("campaign.supervisor.panics_caught").incr();
                    let text = panic_payload_text(payload.as_ref());
                    // The panic is itself a finding, a class like any other;
                    // a persistent panicker's repeats are duplicate sightings.
                    let entry = harness_panic_entry(cell, &text);
                    if !found.iter().any(|e| e.class_key == entry.class_key) {
                        self.live.add_raw_reports(1);
                        found.push(entry);
                    }
                    text
                }
            };
            if attempt >= sup.max_attempts.max(1) {
                break Err(QuarantineEntry {
                    cell_id: cell.id,
                    attempts: attempt,
                    reason,
                });
            }
            self.live.add_retry();
            tqs_telemetry::counter!("campaign.supervisor.retries").incr();
            std::thread::sleep(sup.backoff(attempt));
        };
        CellOutcome { found, end }
    }

    /// Drain one cell with the [`CellWorkload`] its `workload` axis names.
    fn run_cell(
        &self,
        cell: &CampaignCell,
        attempt: u32,
        found: &mut Vec<CorpusEntry>,
    ) -> io::Result<CellRecord> {
        let shard = &self.shards[cell.shard];
        let seed = self.cfg.seed ^ ((cell.id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match cell.workload {
            Workload::Select => self.drain_cell(cell, attempt, found, || SelectHunt {
                oracle: cell.build_oracle(shard),
                kqe: Kqe::new(shard.schema_desc.clone(), KqeConfig::default()),
                generator: QueryGenerator::new(QueryGenConfig {
                    seed,
                    ..Default::default()
                }),
                diversity: &self.diversity,
                live: self.live,
            }),
            Workload::Dml => self.drain_cell(cell, attempt, found, || DmlHunt {
                oracle: DmlOracle::new(&shard.db.catalog),
                generator: DmlGenerator::new(DmlGenConfig {
                    seed,
                    ..Default::default()
                }),
            }),
        }
    }

    /// The cell loop: a deterministic stream of `queries_per_cell` units of
    /// the cell's workload, each new class pushed to `found` minimized and
    /// with its witness trace, then the checkpoint record. `attempt` is the
    /// supervisor's 1-based attempt counter — everything the cell does is
    /// attempt-independent except the chaos panic decision, so a retry
    /// re-sights what `found` holds and reduces nothing twice. The workload
    /// is built by `make_hunt` once the cell's clock and span are running, so
    /// they cover the oracle's set-up (reference replicas load whole catalogs).
    fn drain_cell<W: CellWorkload>(
        &self,
        cell: &CampaignCell,
        attempt: u32,
        found: &mut Vec<CorpusEntry>,
        make_hunt: impl FnOnce() -> W,
    ) -> io::Result<CellRecord> {
        let started = Instant::now();
        let live = self.live;
        let mut cell_span = tqs_telemetry::span_with("campaign", || format!("cell-{}", cell.id));
        cell_span.arg("shard", Json::count(cell.shard));
        cell_span.arg("oracle", Json::str(cell.oracle.label()));
        cell_span.arg("engine", Json::str(cell.engine.label()));
        cell_span.arg("plan_mode", Json::str(cell.plan_mode.label()));
        cell_span.arg("workload", Json::str(cell.workload.label()));
        let shard = &self.shards[cell.shard];
        let mut conn = RecordingConnector::new(cell.engine.faulty(cell.profile));
        conn.load_catalog(&shard.db.catalog)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut hunt = make_hunt();

        let sup = &self.cfg.supervisor;
        let cell_deadline = sup.cell_deadline.map(|d| started + d);
        let mut timed_out = false;
        let mut queries = 0usize;
        let mut raw_reports = 0usize;
        for _ in 0..self.cfg.queries_per_cell {
            // The cell deadline is checked between units (and folded into
            // each cancellable unit's token below), so a timed-out cell
            // overruns its budget by at most one unit.
            if cell_deadline.is_some_and(|d| Instant::now() >= d) {
                timed_out = true;
                break;
            }
            let unit = hunt.generate(shard);
            hunt.begin_unit();
            // Drain (and count) the previous unit's engine events.
            live.add_statements(count_statements(&conn.take_trace()));
            // Statement budget: the engines poll the installed token at
            // operator boundaries; a cancelled statement errors out and the
            // oracle skips it — a timeout can never be misread as a bug.
            let _cancel = if W::CANCELLABLE {
                statement_deadline(sup, cell_deadline)
                    .map(|d| CancelToken::with_deadline(d).install())
            } else {
                None
            };
            let reports = match hunt.judge(&unit, &mut conn) {
                OracleVerdict::Skip => {
                    tqs_telemetry::counter!("campaign.oracle.skip").incr();
                    continue;
                }
                OracleVerdict::Pass => {
                    tqs_telemetry::counter!("campaign.oracle.pass").incr();
                    queries += 1;
                    live.add_queries(1);
                    continue;
                }
                OracleVerdict::Bugs(reports) => {
                    tqs_telemetry::counter!("campaign.oracle.bugs").incr();
                    queries += 1;
                    live.add_queries(1);
                    reports
                }
            };
            raw_reports += reports.len();
            live.add_raw_reports(reports.len());
            let graph_fp = hunt.graph_fingerprint(&unit);
            // Materialized lazily: almost every report is a duplicate
            // sighting at fleet throughput, and copying full recorded result
            // sets for those would dominate the hot path. Must be captured
            // before the first minimization pollutes the trace.
            let mut witness: Option<Vec<StoredStatement>> = None;
            for report in reports {
                // Single-plan reports carry no fingerprint until here, so
                // legacy class keys are byte-identical.
                let mut report = match graph_fp {
                    Some(fp) => report.keyed_on_graph(fp),
                    None => report,
                };
                if found.iter().any(|e| e.class_key == report.class_key()) {
                    continue; // duplicate sighting of a class this cell holds
                }
                let witness = witness.get_or_insert_with(|| {
                    conn.trace()
                        .iter()
                        .filter_map(StoredStatement::from_event)
                        .collect()
                });
                if self.cfg.minimize {
                    report.minimized_sql = hunt.minimize(&unit, &mut conn);
                }
                found.push(CorpusEntry {
                    cell_id: cell.id,
                    class_key: report.class_key().to_string(),
                    connector: conn.info(),
                    report,
                    trace: witness.clone(),
                });
            }
        }

        live.add_statements(count_statements(&conn.take_trace()));
        live.add_plans(hunt.plans_enumerated());

        if timed_out {
            live.add_deadline_cell();
            tqs_telemetry::counter!("campaign.supervisor.deadline_cells").incr();
        }
        // Chaos hook: fires after the hunting loop, so a panicking attempt
        // has found its ordinary bug classes (the retry re-sights them) but
        // never returns a checkpoint record.
        self.maybe_chaos_panic(cell, attempt);

        Ok(CellRecord {
            cell_id: cell.id,
            queries,
            raw_reports,
            new_classes: 0, // counted when the cell retires
            elapsed_ms: started.elapsed().as_millis() as u64,
            timeout: timed_out,
        })
    }

    /// Chaos hook for the supervision goldens: deterministically panic in a
    /// seeded subset of cells. The message is attempt-independent so that a
    /// killed-and-resumed chaos run produces bit-identical quarantine reasons.
    fn maybe_chaos_panic(&self, cell: &CampaignCell, attempt: u32) {
        if self.cfg.supervisor.chaos_panics(cell.id, attempt) {
            tqs_telemetry::counter!("campaign.supervisor.chaos_panics").incr();
            panic!("chaos: injected panic in cell {}", cell.id);
        }
    }
}

/// A caught worker panic as a first-class incident report: a
/// `HarnessPanic` bug class keyed per cell, so the campaign's output records
/// *that the harness failed* alongside what the engines did.
fn harness_panic_entry(cell: &CampaignCell, payload: &str) -> CorpusEntry {
    let connector = cell.engine.faulty(cell.profile).info();
    let report = BugReport {
        dbms: connector.name.clone(),
        oracle: OracleKind::HarnessPanic,
        sql: payload.to_string(),
        transformed_sql: String::new(),
        hint_label: format!("harness-panic:cell-{}", cell.id),
        expected_rows: 0,
        observed_rows: 0,
        fired: Vec::new(),
        minimized_sql: None,
        fingerprint: None,
        keys: KeyCache::default(),
    };
    CorpusEntry {
        cell_id: cell.id,
        class_key: report.class_key().to_string(),
        connector,
        report,
        trace: Vec::new(),
    }
}

/// What genuinely differs between a SELECT cell and a DML cell: the
/// generator, the judge, whether a statement may carry a [`CancelToken`], and
/// whether a query graph (to record, and to key reports on), a reducer and
/// plan enumeration exist. Everything else about a cell happens once, in
/// [`Fleet::drain_cell`].
trait CellWorkload {
    /// One unit of the cell's query budget.
    type Unit;
    /// May a unit run under a statement [`CancelToken`]?
    const CANCELLABLE: bool;
    fn generate(&mut self, shard: &DsgDatabase) -> Self::Unit;
    /// Called before a unit is judged ([`Oracle::begin_unit`]).
    fn begin_unit(&mut self) {}
    fn judge(&mut self, unit: &Self::Unit, conn: &mut dyn DbmsConnector) -> OracleVerdict;
    /// The query-graph fingerprint `unit`'s reports are keyed on
    /// ([`BugReport::keyed_on_graph`]).
    fn graph_fingerprint(&self, _unit: &Self::Unit) -> Option<u64> {
        None
    }
    /// A minimized reproducer of the failing `unit`.
    fn minimize(&mut self, _unit: &Self::Unit, _conn: &mut dyn DbmsConnector) -> Option<String> {
        None
    }
    fn plans_enumerated(&self) -> usize {
        0
    }
}

/// Generated join queries through the cell's oracle.
struct SelectHunt<'a> {
    oracle: Box<dyn Oracle>,
    /// Per-cell KQE state: the adaptive walk stays deterministic for the
    /// cell regardless of what the rest of the fleet is doing — the
    /// property the resume guarantee rests on.
    kqe: Kqe,
    generator: QueryGenerator,
    /// The fleet-wide diversity index (reporting only).
    diversity: &'a Mutex<GraphIndex>,
    live: &'a LiveStats,
}

impl CellWorkload for SelectHunt<'_> {
    /// A join query and its query graph.
    type Unit = (SelectStmt, LabeledGraph);
    const CANCELLABLE: bool = true;

    fn generate(&mut self, shard: &DsgDatabase) -> Self::Unit {
        let scorer = KqeScorer { kqe: &self.kqe };
        let stmt = self.generator.generate(shard, None, &scorer);
        let qg = query_graph_with_subqueries(&stmt, &shard.schema_desc);
        let embedding = self.kqe.record(&qg);
        let mut idx = self.diversity.lock_unpoisoned();
        idx.insert(&qg, embedding);
        self.live.set_diversity(idx.isomorphic_set_count());
        (stmt, qg)
    }

    fn begin_unit(&mut self) {
        self.oracle.begin_unit();
    }

    fn judge(&mut self, (stmt, _): &Self::Unit, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        self.oracle.check(stmt, conn)
    }

    fn graph_fingerprint(&self, (_, qg): &Self::Unit) -> Option<u64> {
        Some(graph_fingerprint(qg))
    }

    fn minimize(&mut self, (stmt, _): &Self::Unit, conn: &mut dyn DbmsConnector) -> Option<String> {
        let minimized = minimize_with_oracle(stmt, self.oracle.as_mut(), conn);
        Some(render_stmt(&minimized))
    }

    fn plans_enumerated(&self) -> usize {
        self.oracle.plans_enumerated()
    }
}

/// Generated DML + transaction programs judged by the delta-maintained
/// mutation ground truth. The oracle reloads the pristine catalog per
/// program, so programs are independent and the cell stays deterministic.
/// Mutation reports have no query graph and no single-statement reducer:
/// they keep the oracle's own key and are persisted unminimized.
struct DmlHunt {
    oracle: DmlOracle,
    generator: DmlGenerator,
}

impl CellWorkload for DmlHunt {
    /// One whole program.
    type Unit = Vec<DmlStmt>;
    /// The mutation oracle compares two *stateful* executions statement by
    /// statement, and cancelling one side mid-program would read as semantic
    /// divergence — a deadline misreported as a bug. DML cells are bounded by
    /// the cell deadline between programs.
    const CANCELLABLE: bool = false;

    fn generate(&mut self, shard: &DsgDatabase) -> Self::Unit {
        self.generator.generate_program(shard)
    }

    fn judge(&mut self, program: &Self::Unit, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        self.oracle.check_program(program, conn)
    }
}

/// The effective deadline for one statement: the per-statement budget, the
/// cell deadline, or (when both are set) whichever lands first.
fn statement_deadline(sup: &SupervisorConfig, cell_deadline: Option<Instant>) -> Option<Instant> {
    let stmt = sup.stmt_deadline.map(|d| Instant::now() + d);
    match (stmt, cell_deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Render a caught panic payload as text. `panic!` with a literal yields
/// `&str`; formatted panics yield `String`; anything else is opaque.
fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_core::dsg::WideSource;
    use tqs_schema::NoiseConfig;
    use tqs_storage::widegen::ShoppingConfig;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tqs-campaign-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg(dir: PathBuf) -> CampaignConfig {
        CampaignConfig {
            dir,
            dsg: DsgConfig {
                source: WideSource::Shopping(ShoppingConfig {
                    n_rows: 90,
                    ..Default::default()
                }),
                fd: Default::default(),
                noise: Some(NoiseConfig {
                    epsilon: 0.04,
                    seed: 3,
                    max_injections: 10,
                }),
            },
            shards: 2,
            workers: 2,
            profiles: vec![ProfileId::MysqlLike],
            oracles: vec![OracleSpec::GroundTruth],
            engines: vec![EngineKind::Row],
            plan_modes: vec![PlanMode::Single],
            workloads: vec![Workload::Select],
            queries_per_cell: 30,
            seed: 99,
            minimize: false,
            max_cells_per_run: None,
            supervisor: Default::default(),
        }
    }

    #[test]
    fn cell_grid_covers_the_cross_product_in_id_order() {
        let cfg = CampaignConfig {
            shards: 2,
            profiles: vec![ProfileId::MysqlLike, ProfileId::TidbLike],
            oracles: vec![OracleSpec::GroundTruth, OracleSpec::CrossEngine],
            engines: vec![EngineKind::Row, EngineKind::Disk],
            plan_modes: vec![PlanMode::Single, PlanMode::Space],
            workloads: vec![Workload::Select, Workload::Dml],
            ..small_cfg(test_dir("grid"))
        };
        let cells = cfg.cell_grid();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 2 * 2);
        assert!(cells.iter().enumerate().all(|(i, c)| c.id == i));
        assert_eq!(cells[0].shard, 0);
        assert_eq!(cells.last().unwrap().shard, 1);
        // Newest axis innermost: adjacent ids differ by workload first, then
        // plan mode, then engine, so campaigns not using an axis keep their
        // historical cell ids.
        assert_eq!(cells[0].workload, Workload::Select);
        assert_eq!(cells[1].workload, Workload::Dml);
        assert_eq!(cells[0].plan_mode, PlanMode::Single);
        assert_eq!(cells[2].plan_mode, PlanMode::Space);
        assert_eq!(cells[0].engine, EngineKind::Row);
        assert_eq!(cells[4].engine, EngineKind::Disk);
        assert_eq!(cells[0].oracle, cells[4].oracle);
        assert_eq!(cfg.header().cells, 64);
        assert_eq!(cfg.header().engines, vec!["row", "disk"]);
        assert_eq!(cfg.header().plan_modes, vec!["single", "space"]);
        assert_eq!(cfg.header().workloads, vec!["select", "dml"]);
    }

    #[test]
    fn dml_cells_hunt_mutation_bug_classes() {
        let dir = test_dir("dml");
        let mut campaign = Campaign::new(CampaignConfig {
            shards: 1,
            workers: 1,
            workloads: vec![Workload::Dml],
            queries_per_cell: 10,
            ..small_cfg(dir.clone())
        })
        .unwrap();
        let stats = campaign.run().unwrap();
        assert!(campaign.is_complete());
        assert!(stats.queries > 0);
        assert!(
            stats.bug_classes > 0,
            "seeded DML faults should surface through the mutation workload"
        );
        // Every discovered class is a mutation class with DML provenance.
        for class in campaign.triage().classes() {
            assert_eq!(
                class.representative.oracle,
                tqs_core::bugs::OracleKind::Mutation
            );
            assert!(class
                .representative
                .fired
                .iter()
                .all(|f| tqs_engine::FaultKind::DML.contains(f)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_kind_labels_round_trip() {
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::from_label(e.label()), Ok(e));
        }
        assert!(EngineKind::from_label("paper-tape").is_err());
    }

    #[test]
    fn fresh_campaign_runs_and_journals_every_cell() {
        let dir = test_dir("fresh");
        let mut campaign = Campaign::new(small_cfg(dir.clone())).unwrap();
        assert_eq!(campaign.cells_total(), 2);
        let stats = campaign.run().unwrap();
        assert!(campaign.is_complete());
        assert_eq!(stats.cells_drained, 2);
        assert!(stats.queries > 0);
        assert!(stats.queries_per_sec() > 0.0);
        assert!(stats.bug_classes > 0, "seeded faults should surface");
        assert!(stats.raw_reports >= stats.new_classes);
        // the journal holds header + one line per cell + the run's totals
        let loaded = campaign.checkpoint.load().unwrap();
        assert_eq!(loaded.cells.len(), 2);
        assert_eq!(loaded.runs.len(), 1);
        assert_eq!(loaded.runs[0].queries, stats.queries);
        // duplicate directory is refused
        assert!(Campaign::new(small_cfg(dir.clone())).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_a_mismatched_header() {
        let dir = test_dir("mismatch");
        let mut campaign = Campaign::new(small_cfg(dir.clone())).unwrap();
        campaign.run().unwrap();
        let refuse = |cfg: CampaignConfig| match Campaign::resume(cfg) {
            Ok(_) => panic!("resume accepted a mismatched header"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
        };
        refuse(CampaignConfig {
            seed: 1234,
            ..small_cfg(dir.clone())
        });
        // A changed testing-database recipe is just as much a different
        // campaign as a changed seed: the shard data would silently differ.
        let mut other_dsg = small_cfg(dir.clone());
        other_dsg.dsg.noise = None;
        refuse(other_dsg);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounded_runs_drain_in_installments() {
        let dir = test_dir("bounded");
        let mut campaign = Campaign::new(CampaignConfig {
            max_cells_per_run: Some(1),
            workers: 3,
            ..small_cfg(dir.clone())
        })
        .unwrap();
        // Each installment drains the lowest-id pending cell, however many
        // workers the fleet has.
        let checkpointed = |campaign: &Campaign| -> Vec<usize> {
            let mut ids: Vec<usize> = (campaign.checkpoint.load().unwrap().cells)
                .iter()
                .map(|r| r.cell_id)
                .collect();
            ids.sort_unstable();
            ids
        };
        let first = campaign.run().unwrap();
        assert_eq!(checkpointed(&campaign), [0]);
        assert!(!campaign.is_complete());
        assert_eq!(first.prior, RunTotals::default());
        let second = campaign.run().unwrap();
        assert_eq!(checkpointed(&campaign), [0, 1]);
        assert!(campaign.is_complete());
        // The second run's rates are cumulative over both installments.
        assert_eq!(second.prior.queries, first.queries);
        assert_eq!(second.total_queries(), first.queries + second.queries);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumed_campaigns_carry_prior_run_totals() {
        use std::time::Duration;
        let dir = test_dir("prior");
        let mut campaign = Campaign::new(small_cfg(dir.clone())).unwrap();
        let first = campaign.run().unwrap();
        assert!(first.queries > 0);
        drop(campaign);
        // A fresh process resuming the directory starts with the first
        // run's totals on the books, so its rates never reset.
        let resumed = Campaign::resume(small_cfg(dir.clone())).unwrap();
        let prior = resumed.prior_totals();
        assert_eq!(prior.queries, first.queries);
        assert_eq!(prior.statements, first.statements);
        assert_eq!(prior.plans, first.plans);
        assert!(prior.elapsed <= first.elapsed + Duration::from_millis(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn minimized_representatives_still_fail() {
        let dir = test_dir("minimize");
        let mut campaign = Campaign::new(CampaignConfig {
            minimize: true,
            shards: 1,
            workers: 1,
            queries_per_cell: 60,
            ..small_cfg(dir.clone())
        })
        .unwrap();
        campaign.run().unwrap();
        let classes = campaign.triage().classes();
        assert!(!classes.is_empty());
        assert!(classes
            .iter()
            .all(|c| c.representative.minimized_sql.is_some()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
