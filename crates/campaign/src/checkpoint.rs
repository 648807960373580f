//! The campaign checkpoint journal.
//!
//! `checkpoint.jsonl` is an append-only journal in the campaign directory:
//! the first line records the campaign's identity (seed, shard count, cell
//! grid, per-cell budget), then one line per *completed* cell, plus one
//! [`RunRecord`] line per finished run carrying the run's wall-clock and
//! throughput totals. Resuming a killed campaign replays the journal to
//! learn which cells are already drained — cells are deterministic given
//! the campaign seed, so re-running only the missing ones reproduces
//! exactly the bug-class set an uninterrupted run would have produced —
//! and sums the run records so cumulative rates survive the restart
//! instead of resetting (and spiking) with each resume.

use crate::journal::Journal;
use std::io;
use std::path::Path;
use tqs_pager::envfault::EnvFaultPolicy;
use tqs_telemetry::Json;

/// The identity of a campaign, pinned in the journal header. Resume refuses
/// a directory whose header disagrees with the live configuration — mixing
/// cell grids would silently skip work or re-run drained cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    pub seed: u64,
    /// Digest of the testing-database recipe (`DsgConfig`) — the shard data
    /// a resume rebuilds must come from the same recipe the campaign
    /// started with.
    pub dsg_digest: u64,
    pub shards: usize,
    pub cells: usize,
    pub queries_per_cell: usize,
    pub profiles: Vec<String>,
    pub oracles: Vec<String>,
    /// Executor labels ([`EngineKind::label`](crate::campaign::EngineKind)).
    /// Headers journaled before the engine axis existed omit the field and
    /// load as `["row"]` — the only engine those campaigns could run.
    pub engines: Vec<String>,
    /// Plan-mode labels ([`PlanMode::label`](crate::campaign::PlanMode)).
    /// Headers journaled before the plan-space axis existed omit the field
    /// and load as `["single"]` — those campaigns ran one plan per hint set.
    pub plan_modes: Vec<String>,
    /// Workload labels ([`Workload::label`](crate::campaign::Workload)).
    /// Headers journaled before the workload axis existed omit the field and
    /// load as `["select"]` — those campaigns hunted SELECT statements only.
    pub workloads: Vec<String>,
}

impl CheckpointHeader {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "campaign".to_string(),
                Json::str(format!("{:016x}", self.seed)),
            ),
            (
                "dsg".to_string(),
                Json::str(format!("{:016x}", self.dsg_digest)),
            ),
            ("shards".to_string(), Json::count(self.shards)),
            ("cells".to_string(), Json::count(self.cells)),
            (
                "queries_per_cell".to_string(),
                Json::count(self.queries_per_cell),
            ),
            (
                "profiles".to_string(),
                Json::Arr(self.profiles.iter().map(Json::str).collect()),
            ),
            (
                "oracles".to_string(),
                Json::Arr(self.oracles.iter().map(Json::str).collect()),
            ),
            (
                "engines".to_string(),
                Json::Arr(self.engines.iter().map(Json::str).collect()),
            ),
            (
                "plan_modes".to_string(),
                Json::Arr(self.plan_modes.iter().map(Json::str).collect()),
            ),
            (
                "workloads".to_string(),
                Json::Arr(self.workloads.iter().map(Json::str).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<CheckpointHeader, String> {
        let count = |k: &str| {
            j.get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("header missing `{k}`"))
        };
        let list = |k: &str| -> Result<Vec<String>, String> {
            j.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("header missing `{k}`"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(String::from)
                        .ok_or_else(|| format!("`{k}` entries must be strings"))
                })
                .collect()
        };
        // An axis newer than the header: absent means the one value every
        // campaign of that era ran.
        let axis = |k: &str, legacy: &str| match j.get(k) {
            Some(_) => list(k),
            None => Ok(vec![legacy.to_string()]),
        };
        let hex_field = |k: &str| -> Result<u64, String> {
            let hex = j
                .get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("header missing `{k}`"))?;
            u64::from_str_radix(hex, 16).map_err(|_| format!("bad `{k}` value `{hex}`"))
        };
        Ok(CheckpointHeader {
            seed: hex_field("campaign")?,
            dsg_digest: hex_field("dsg")?,
            shards: count("shards")?,
            cells: count("cells")?,
            queries_per_cell: count("queries_per_cell")?,
            profiles: list("profiles")?,
            oracles: list("oracles")?,
            engines: axis("engines", "row")?,
            plan_modes: axis("plan_modes", "single")?,
            workloads: axis("workloads", "select")?,
        })
    }
}

/// One completed cell, as journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    pub cell_id: usize,
    /// Statements the oracle actually exercised in this cell.
    pub queries: usize,
    /// Raw (pre-dedup) bug reports the cell produced.
    pub raw_reports: usize,
    /// Bug classes this cell was first to discover.
    pub new_classes: usize,
    pub elapsed_ms: u64,
    /// The cell hit its wall-clock deadline and was checkpointed as
    /// complete-with-timeout (it ran fewer statements than configured).
    /// Emitted only when true, so legacy journals parse unchanged.
    pub timeout: bool,
}

impl CellRecord {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("cell".to_string(), Json::count(self.cell_id)),
            ("queries".to_string(), Json::count(self.queries)),
            ("raw".to_string(), Json::count(self.raw_reports)),
            ("new_classes".to_string(), Json::count(self.new_classes)),
            (
                "elapsed_ms".to_string(),
                Json::count(self.elapsed_ms as usize),
            ),
        ];
        if self.timeout {
            members.push(("timeout".to_string(), Json::Bool(true)));
        }
        Json::Obj(members)
    }

    fn from_json(j: &Json) -> Result<CellRecord, String> {
        let count = |k: &str| {
            j.get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("cell record missing `{k}`"))
        };
        Ok(CellRecord {
            cell_id: count("cell")?,
            queries: count("queries")?,
            raw_reports: count("raw")?,
            new_classes: count("new_classes")?,
            elapsed_ms: count("elapsed_ms")? as u64,
            timeout: j.get("timeout").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// One finished run, as journaled: the wall-clock and throughput totals of
/// a `Campaign::run` that reached its end. Resume sums these so cumulative
/// rates (`queries_per_sec`, `plans_per_sec`) carry across kill/resume.
/// Journals written before run records existed simply have none — their
/// campaigns resume with zero prior totals, exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunRecord {
    pub elapsed_ms: u64,
    /// Oracle-exercised statements in the run.
    pub queries: usize,
    /// Engine-level statements executed in the run.
    pub statements: usize,
    /// Optimizer-enumerated plans executed in the run.
    pub plans: usize,
}

impl RunRecord {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            (
                "run_elapsed_ms".to_string(),
                Json::count(self.elapsed_ms as usize),
            ),
            ("queries".to_string(), Json::count(self.queries)),
            ("statements".to_string(), Json::count(self.statements)),
            ("plans".to_string(), Json::count(self.plans)),
        ])
    }

    fn from_json(j: &Json) -> Result<RunRecord, String> {
        let count = |k: &str| {
            j.get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("run record missing `{k}`"))
        };
        Ok(RunRecord {
            elapsed_ms: count("run_elapsed_ms")? as u64,
            queries: count("queries")?,
            statements: count("statements")?,
            plans: count("plans")?,
        })
    }
}

/// One parsed journal line: the identity header comes first, then cell and
/// run records in append order.
enum Line {
    Header(CheckpointHeader),
    Cell(CellRecord),
    Run(RunRecord),
}

/// Everything a journal replay yields: the identity header, the completed
/// cells, and the finished-run totals.
#[derive(Debug, Clone)]
pub struct CheckpointLoad {
    pub header: CheckpointHeader,
    pub cells: Vec<CellRecord>,
    pub runs: Vec<RunRecord>,
}

/// Handle on one campaign's checkpoint journal.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    journal: Journal,
}

impl Checkpoint {
    pub fn in_dir(dir: &Path) -> Checkpoint {
        Checkpoint {
            journal: Journal::in_dir(dir, "checkpoint", "campaign.checkpoint.torn_lines_dropped"),
        }
    }

    pub(crate) fn exists(&self) -> bool {
        self.journal.path().exists()
    }

    /// Start a fresh journal (truncates), writing the header line.
    pub fn create(&self, header: &CheckpointHeader) -> io::Result<()> {
        self.journal.create(&header.to_json())
    }

    /// Journal one completed cell, fsynced, with no fault injection
    /// (callers serialize through the campaign's io lock).
    pub fn append_cell(&self, record: &CellRecord) -> io::Result<()> {
        self.append_cell_with(record, &EnvFaultPolicy::off())
    }

    /// Journal one completed cell through an environmental fault policy
    /// (atomic-or-absent, fsync commit point).
    pub(crate) fn append_cell_with(
        &self,
        record: &CellRecord,
        env: &EnvFaultPolicy,
    ) -> io::Result<()> {
        tqs_telemetry::counter!("campaign.checkpoint.cell_appends").incr();
        self.journal.append(&record.to_json(), env)
    }

    /// Journal one finished run's totals so resumed campaigns report
    /// cumulative throughput instead of restarting their clocks.
    pub(crate) fn append_run_with(
        &self,
        record: &RunRecord,
        env: &EnvFaultPolicy,
    ) -> io::Result<()> {
        tqs_telemetry::counter!("campaign.checkpoint.run_appends").incr();
        self.journal.append(&record.to_json(), env)
    }

    /// Truncate a torn final line left by a kill mid-append.
    pub(crate) fn repair_torn_tail(&self) -> io::Result<bool> {
        self.journal.repair_torn_tail()
    }

    /// Replay the journal: the header, every completed cell, and every
    /// finished run. A missing or empty journal is an error.
    pub fn load(&self) -> io::Result<CheckpointLoad> {
        let mut lines = self
            .journal
            .load(|i, j| {
                // Dispatch on the record's distinguishing key: cell records
                // carry `cell`, run records carry `run_elapsed_ms`.
                if i == 0 {
                    CheckpointHeader::from_json(j).map(Line::Header)
                } else if j.get("cell").is_some() {
                    CellRecord::from_json(j).map(Line::Cell)
                } else if j.get("run_elapsed_ms").is_some() {
                    RunRecord::from_json(j).map(Line::Run)
                } else {
                    Err("unrecognized journal record".to_string())
                }
            })?
            .into_iter();
        let Some(Line::Header(header)) = lines.next() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: empty checkpoint", self.journal.path().display()),
            ));
        };
        let mut loaded = CheckpointLoad {
            header,
            cells: Vec::new(),
            runs: Vec::new(),
        };
        for line in lines {
            match line {
                Line::Cell(r) => loaded.cells.push(r),
                Line::Run(r) => loaded.runs.push(r),
                // Only the first line parses as a header.
                Line::Header(_) => {}
            }
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            seed: 0xDEAD_BEEF,
            dsg_digest: 0xD16E_5700,
            shards: 4,
            cells: 8,
            queries_per_cell: 100,
            profiles: vec!["MySQL-like".into(), "TiDB-like".into()],
            oracles: vec!["ground-truth".into()],
            engines: vec!["row".into(), "disk".into()],
            plan_modes: vec!["single".into(), "space".into()],
            workloads: vec!["select".into(), "dml".into()],
        }
    }

    #[test]
    fn journal_round_trips_header_and_cells() {
        let dir = std::env::temp_dir().join(format!("tqs-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = Checkpoint::in_dir(&dir);
        ckpt.create(&header()).unwrap();
        for id in [2usize, 5] {
            ckpt.append_cell(&CellRecord {
                cell_id: id,
                queries: 90,
                raw_reports: 14,
                new_classes: 3,
                elapsed_ms: 120,
                timeout: false,
            })
            .unwrap();
        }
        ckpt.append_run_with(
            &RunRecord {
                elapsed_ms: 2_500,
                queries: 180,
                statements: 540,
                plans: 900,
            },
            &EnvFaultPolicy::off(),
        )
        .unwrap();
        let loaded = ckpt.load().unwrap();
        assert_eq!(loaded.header, header());
        assert_eq!(loaded.cells.len(), 2);
        assert_eq!(loaded.cells[1].cell_id, 5);
        assert_eq!(loaded.runs.len(), 1);
        assert_eq!(loaded.runs[0].queries, 180);
        assert_eq!(loaded.runs[0].elapsed_ms, 2_500);
        // torn tail is dropped
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(ckpt.journal.path())
                .unwrap();
            f.write_all(b"{\"cell\": 6, \"quer").unwrap();
        }
        let loaded = ckpt.load().unwrap();
        assert_eq!(loaded.cells.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_run_record_journals_load_with_zero_runs() {
        // Journals written before run records existed have only the header
        // and cell lines; they must load with an empty run list.
        let dir = std::env::temp_dir().join(format!("tqs-ckpt-legacy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = Checkpoint::in_dir(&dir);
        ckpt.create(&header()).unwrap();
        ckpt.append_cell(&CellRecord {
            cell_id: 0,
            queries: 10,
            raw_reports: 0,
            new_classes: 0,
            elapsed_ms: 5,
            timeout: false,
        })
        .unwrap();
        let loaded = ckpt.load().unwrap();
        assert_eq!(loaded.cells.len(), 1);
        assert!(loaded.runs.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_engine_axis_headers_load_as_row_only() {
        // A header journaled before the engine axis existed has no
        // `engines` member; it must load as the row-only campaign it was.
        let mut legacy = header().to_json();
        if let Json::Obj(members) = &mut legacy {
            members.retain(|(k, _)| k != "engines");
        }
        let parsed = CheckpointHeader::from_json(&legacy).unwrap();
        assert_eq!(parsed.engines, vec!["row".to_string()]);
    }

    #[test]
    fn pre_plan_axis_headers_load_as_single_plan() {
        // A header journaled before the plan-space axis existed has no
        // `plan_modes` member; it must load as the single-plan campaign it
        // was.
        let mut legacy = header().to_json();
        if let Json::Obj(members) = &mut legacy {
            members.retain(|(k, _)| k != "plan_modes");
        }
        let parsed = CheckpointHeader::from_json(&legacy).unwrap();
        assert_eq!(parsed.plan_modes, vec!["single".to_string()]);
    }

    #[test]
    fn pre_workload_axis_headers_load_as_select_only() {
        // A header journaled before the workload axis existed has no
        // `workloads` member; it must load as the SELECT-only campaign it
        // was.
        let mut legacy = header().to_json();
        if let Json::Obj(members) = &mut legacy {
            members.retain(|(k, _)| k != "workloads");
        }
        let parsed = CheckpointHeader::from_json(&legacy).unwrap();
        assert_eq!(parsed.workloads, vec!["select".to_string()]);
    }
}
