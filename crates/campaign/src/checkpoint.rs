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

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
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
            engines: if j.get("engines").is_some() {
                list("engines")?
            } else {
                vec!["row".to_string()]
            },
            plan_modes: if j.get("plan_modes").is_some() {
                list("plan_modes")?
            } else {
                vec!["single".to_string()]
            },
            workloads: if j.get("workloads").is_some() {
                list("workloads")?
            } else {
                vec!["select".to_string()]
            },
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

/// Dispatch target for journal body lines.
enum Record {
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
    path: PathBuf,
}

impl Checkpoint {
    pub const FILE_NAME: &'static str = "checkpoint.jsonl";

    pub fn in_dir(dir: &Path) -> Checkpoint {
        Checkpoint {
            path: dir.join(Self::FILE_NAME),
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn exists(&self) -> bool {
        self.path.exists()
    }

    /// Start a fresh journal (truncates), writing the header line.
    pub fn create(&self, header: &CheckpointHeader) -> io::Result<()> {
        let mut f = std::fs::File::create(&self.path)?;
        let mut line = header.to_json().to_string();
        line.push('\n');
        f.write_all(line.as_bytes())?;
        f.flush()
    }

    /// Journal one completed cell with the default durability settings
    /// (callers serialize through the campaign's io lock).
    pub fn append_cell(&self, record: &CellRecord) -> io::Result<()> {
        self.append_cell_with(record, &crate::supervisor::AppendOptions::default())
    }

    /// Journal one completed cell through explicit durability options
    /// (atomic-or-absent, fsync commit point, chaos fault policy).
    pub fn append_cell_with(
        &self,
        record: &CellRecord,
        opts: &crate::supervisor::AppendOptions,
    ) -> io::Result<()> {
        tqs_telemetry::counter!("campaign.checkpoint.cell_appends").incr();
        self.append_line(record.to_json(), opts)
    }

    /// Journal one finished run's totals so resumed campaigns report
    /// cumulative throughput instead of restarting their clocks.
    pub fn append_run(&self, record: &RunRecord) -> io::Result<()> {
        self.append_run_with(record, &crate::supervisor::AppendOptions::default())
    }

    /// [`Checkpoint::append_run`] through explicit durability options.
    pub fn append_run_with(
        &self,
        record: &RunRecord,
        opts: &crate::supervisor::AppendOptions,
    ) -> io::Result<()> {
        tqs_telemetry::counter!("campaign.checkpoint.run_appends").incr();
        self.append_line(record.to_json(), opts)
    }

    fn append_line(&self, json: Json, opts: &crate::supervisor::AppendOptions) -> io::Result<()> {
        let mut line = json.to_string();
        line.push('\n');
        crate::supervisor::append_line_durable(&self.path, line.as_bytes(), opts)
    }

    /// Truncate a torn final line left by a kill mid-append so later
    /// appends start on a fresh line (see
    /// [`Corpus::repair_torn_tail`](crate::corpus::Corpus::repair_torn_tail)).
    pub fn repair_torn_tail(&self) -> io::Result<bool> {
        crate::corpus::repair_torn_tail(&self.path)
    }

    /// Replay the journal: the header, every completed cell, and every
    /// finished run. A torn final line (kill mid-append) is dropped;
    /// corruption elsewhere errors.
    pub fn load(&self) -> io::Result<CheckpointLoad> {
        let mut text = String::new();
        std::fs::File::open(&self.path)?.read_to_string(&mut text)?;
        let lines: Vec<&str> = text.split('\n').filter(|l| !l.trim().is_empty()).collect();
        if lines.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: empty checkpoint", self.path.display()),
            ));
        }
        let bad = |i: usize, msg: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: line {}: {msg}", self.path.display(), i + 1),
            )
        };
        let header = Json::parse(lines[0])
            .map_err(|e| e.to_string())
            .and_then(|j| CheckpointHeader::from_json(&j))
            .map_err(|m| bad(0, m))?;
        let mut cells = Vec::new();
        let mut runs = Vec::new();
        for (i, line) in lines.iter().enumerate().skip(1) {
            // Dispatch on the record's distinguishing key: cell records
            // carry `cell`, run records carry `run_elapsed_ms`.
            let parsed = Json::parse(line).map_err(|e| e.to_string()).and_then(|j| {
                if j.get("cell").is_some() {
                    CellRecord::from_json(&j).map(Record::Cell)
                } else if j.get("run_elapsed_ms").is_some() {
                    RunRecord::from_json(&j).map(Record::Run)
                } else {
                    Err("unrecognized journal record".to_string())
                }
            });
            match parsed {
                Ok(Record::Cell(r)) => cells.push(r),
                Ok(Record::Run(r)) => runs.push(r),
                Err(_) if i + 1 == lines.len() && !text.ends_with('\n') => {
                    tqs_telemetry::counter!("campaign.checkpoint.torn_lines_dropped").incr();
                    tqs_telemetry::event_with("campaign", || {
                        (
                            "checkpoint.torn_line_dropped".to_string(),
                            vec![(
                                "path".to_string(),
                                Json::str(self.path.display().to_string()),
                            )],
                        )
                    });
                    break;
                }
                Err(m) => return Err(bad(i, m)),
            }
        }
        Ok(CheckpointLoad {
            header,
            cells,
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

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
        ckpt.append_run(&RunRecord {
            elapsed_ms: 2_500,
            queries: 180,
            statements: 540,
            plans: 900,
        })
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
            let mut f = OpenOptions::new().append(true).open(ckpt.path()).unwrap();
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
