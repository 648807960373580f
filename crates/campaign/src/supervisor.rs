//! The campaign supervision layer: retry policy, quarantine journal,
//! chaos-panic injection, and durable (atomic-or-absent) journal appends.
//!
//! The fleet used to be a fragile batch job — one worker panic or one
//! transient IO error on a corpus append aborted the whole run. The
//! supervisor makes the harness survive the failures it provokes:
//!
//! * **Panic isolation** — workers run each cell under `catch_unwind`; the
//!   panic becomes an `OracleKind::HarnessPanic` bug class and the worker
//!   moves on (see `Campaign::run`).
//! * **Retry + quarantine** — a failing cell retries with capped exponential
//!   backoff (`SupervisorConfig::backoff`); after
//!   [`SupervisorConfig::max_attempts`] failures it is journaled to a poison
//!   list ([`Quarantine`]) that survives kill+resume, so the cell is neither
//!   re-run nor lost.
//! * **Deadlines** — per-cell and per-statement wall-clock budgets enforced
//!   through the engine-side cancel token (`tqs_engine::cancel`).
//! * **Durable appends** — `append_line_durable` gives every `journal`
//!   append an fsync commit point and an atomic-or-absent contract: on any
//!   failure (real or injected via [`EnvFaultPolicy`]) the file is rolled
//!   back to its pre-append length.
//! * **Environmental fault injection** — [`SupervisorConfig::env_faults`]
//!   routes the campaign's own file IO through the seeded
//!   [`EnvFaultPolicy`] shim so chaos tests can prove all of the above.

use crate::journal::Journal;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;
use std::time::Duration;

use tqs_pager::envfault::{EnvFaultOp, EnvFaultPolicy};
use tqs_telemetry::Json;

/// Operational knobs for the supervised runtime. These steer *how* a
/// campaign executes, not *what* it hunts, so they are deliberately not part
/// of the checkpoint header identity: a resumed campaign may use different
/// deadlines or retry budgets than the run that created the journal.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Wall-clock budget for one cell. Checked between statements (and
    /// folded into each statement's cancel deadline), so a cell never
    /// exceeds its deadline by more than one statement. `None` = unbounded.
    pub cell_deadline: Option<Duration>,
    /// Wall-clock budget for one statement, enforced cooperatively inside
    /// the engines via the cancel token. `None` = unbounded.
    pub stmt_deadline: Option<Duration>,
    /// Attempts per cell (and per journal append) before giving up. The
    /// final journal-append attempt runs with fault injection suppressed,
    /// so injected environmental faults can never exhaust the budget.
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt up to [`Self::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// Chaos: make roughly this percentage of cells panic mid-hunt
    /// (deterministically from [`Self::chaos_seed`]). 0 = off. A third of
    /// the panicking cells are *persistent* offenders that panic on every
    /// attempt and end up quarantined; the rest panic only on the first
    /// attempt and succeed on retry.
    pub chaos_panic_pct: u8,
    /// Seed for the chaos panic decision function.
    pub chaos_seed: u64,
    /// Environmental fault policy for the campaign's own journal IO.
    pub env_faults: EnvFaultPolicy,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            cell_deadline: None,
            stmt_deadline: None,
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            chaos_panic_pct: 0,
            chaos_seed: 0,
            env_faults: EnvFaultPolicy::off(),
        }
    }
}

impl SupervisorConfig {
    /// Backoff before retry number `attempt` (1-based): base · 2^(attempt−1),
    /// capped.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.backoff_cap)
    }

    /// Chaos decision: does `cell_id` panic on this `attempt`? Pure function
    /// of `(chaos_seed, cell_id, attempt)`, so goldens can compute the
    /// expected panic set and a killed+resumed run reproduces the
    /// uninterrupted one bit-identically.
    pub fn chaos_panics(&self, cell_id: usize, attempt: u32) -> bool {
        if !self.chaos_picked(cell_id) {
            return false;
        }
        self.chaos_persistent(cell_id) || attempt == 1
    }

    /// Chaos decision: is `cell_id` a persistent offender (panics on every
    /// attempt, ends quarantined)?
    pub fn chaos_persistent(&self, cell_id: usize) -> bool {
        self.chaos_picked(cell_id) && (self.chaos_hash(cell_id) >> 8) % 3 == 0
    }

    fn chaos_picked(&self, cell_id: usize) -> bool {
        self.chaos_panic_pct > 0 && self.chaos_hash(cell_id) % 100 < u64::from(self.chaos_panic_pct)
    }

    fn chaos_hash(&self, cell_id: usize) -> u64 {
        splitmix64(self.chaos_seed ^ (cell_id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Append one line to a journal file with an atomic-or-absent contract: on
/// success the full line and its fsync (the commit point) are on disk, with
/// `env` injecting environmental faults into both; on any
/// failure the file is rolled back to its pre-append length, so a retry
/// never produces a duplicate and a crash mid-append leaves at worst a torn
/// tail for the existing repair path.
pub(crate) fn append_line_durable(
    path: &Path,
    bytes: &[u8],
    env: &EnvFaultPolicy,
) -> io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    let start = f.metadata()?.len();
    let result = write_through_policy(&mut f, bytes, env);
    if result.is_err() {
        // Roll back whatever prefix landed. This bypasses the fault policy:
        // the rollback models the caller discarding a torn tail, which the
        // resume path would otherwise do via repair_torn_tail. If even the
        // rollback fails we still report the original error; the line is
        // complete-or-torn on disk and both states are handled on load.
        let _ = f.set_len(start);
    }
    result
}

fn write_through_policy(
    f: &mut std::fs::File,
    bytes: &[u8],
    env: &EnvFaultPolicy,
) -> io::Result<()> {
    if let Some(e) = env.should_fail(EnvFaultOp::Write) {
        // Short write: half the line reaches the file before the EIO.
        let _ = f.write_all(&bytes[..bytes.len() / 2]);
        return Err(e);
    }
    f.write_all(bytes)?;
    if let Some(e) = env.should_fail(EnvFaultOp::Sync) {
        return Err(e);
    }
    f.sync_data()
}

/// Retry a journal append under the supervisor's budget. All but the last
/// attempt run with the supervisor's environmental fault policy; the final attempt suppresses
/// injection, so only *real* IO errors can escape this function. Returns the
/// number of retries that were needed (0 = first attempt succeeded).
pub(crate) fn retry_append(
    sup: &SupervisorConfig,
    mut op: impl FnMut(&EnvFaultPolicy) -> io::Result<()>,
) -> io::Result<u32> {
    let attempts = sup.max_attempts.max(1);
    let mut retries = 0u32;
    loop {
        let attempt = retries + 1;
        let effective = if attempt == attempts {
            EnvFaultPolicy::off()
        } else {
            sup.env_faults.clone()
        };
        match op(&effective) {
            Ok(()) => return Ok(retries),
            Err(e) if attempt >= attempts => return Err(e),
            Err(_) => {
                tqs_telemetry::counter!("campaign.supervisor.append_retries").incr();
                retries += 1;
                std::thread::sleep(sup.backoff(attempt));
            }
        }
    }
}

/// One quarantined cell: the poison-list journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    pub cell_id: usize,
    /// Attempts consumed before the cell was given up on.
    pub attempts: u32,
    /// Human-readable cause (panic payload or IO error text).
    pub reason: String,
}

impl QuarantineEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cell".to_string(), Json::count(self.cell_id)),
            ("attempts".to_string(), Json::num(f64::from(self.attempts))),
            ("reason".to_string(), Json::str(&self.reason)),
        ])
    }

    fn from_json(j: &Json) -> Result<QuarantineEntry, String> {
        let field = |k: &str| -> Result<&Json, String> {
            j.get(k)
                .ok_or_else(|| format!("quarantine entry missing `{k}`"))
        };
        Ok(QuarantineEntry {
            cell_id: field("cell")?.as_usize().ok_or("`cell` is not a number")?,
            attempts: field("attempts")?
                .as_f64()
                .ok_or("`attempts` is not a number")? as u32,
            reason: field("reason")?
                .as_str()
                .ok_or("`reason` is not a string")?
                .to_string(),
        })
    }
}

/// The journaled poison list: cells that exhausted their retry budget.
/// Append-only JSONL beside the corpus and checkpoint, under the same
/// `journal` contract, so it survives kill+resume.
#[derive(Debug, Clone)]
pub struct Quarantine {
    journal: Journal,
}

impl Quarantine {
    pub fn in_dir(dir: &Path) -> Quarantine {
        Quarantine {
            journal: Journal::in_dir(dir, "quarantine", "campaign.quarantine.torn_lines_dropped"),
        }
    }

    /// Journal one quarantined cell (durable, atomic-or-absent).
    pub(crate) fn append(&self, entry: &QuarantineEntry, env: &EnvFaultPolicy) -> io::Result<()> {
        tqs_telemetry::counter!("campaign.quarantine.appends").incr();
        self.journal.append(&entry.to_json(), env)
    }

    /// Load the poison list. A missing file is an empty list; a dropped torn
    /// final line's cell was never marked done, so a resume simply re-runs
    /// it — and re-quarantines it if it is still poisoned.
    pub fn load(&self) -> io::Result<Vec<QuarantineEntry>> {
        self.journal
            .load_or_empty(|_, j| QuarantineEntry::from_json(j))
    }

    /// Truncate a torn final line left by a kill mid-append.
    pub(crate) fn repair_torn_tail(&self) -> io::Result<bool> {
        self.journal.repair_torn_tail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tqs-supervisor-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let sup = SupervisorConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(70),
            ..Default::default()
        };
        assert_eq!(sup.backoff(1), Duration::from_millis(10));
        assert_eq!(sup.backoff(2), Duration::from_millis(20));
        assert_eq!(sup.backoff(3), Duration::from_millis(40));
        assert_eq!(sup.backoff(4), Duration::from_millis(70), "capped");
        assert_eq!(sup.backoff(40), Duration::from_millis(70), "shift clamped");
    }

    #[test]
    fn chaos_decisions_are_deterministic_and_partitioned() {
        let sup = SupervisorConfig {
            chaos_panic_pct: 40,
            chaos_seed: 0xC4A0,
            ..Default::default()
        };
        let picked: Vec<usize> = (0..100).filter(|&c| sup.chaos_panics(c, 1)).collect();
        assert!(picked.len() > 10, "~40% of 100 cells should panic");
        assert!(picked.len() < 70);
        for &c in &picked {
            // Persistent offenders panic on every attempt; transient ones
            // only on the first.
            let again = sup.chaos_panics(c, 2);
            assert_eq!(again, sup.chaos_persistent(c));
        }
        let off = SupervisorConfig::default();
        assert!((0..100).all(|c| !off.chaos_panics(c, 1)));
    }

    #[test]
    fn durable_append_rolls_back_on_injected_failure() {
        let dir = temp_dir("rollback");
        let path = dir.join("journal.jsonl");
        let good = EnvFaultPolicy::off();
        append_line_durable(&path, b"{\"n\": 1}\n", &good).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();

        // 100% failure rate: the first checked op fails.
        let bad = EnvFaultPolicy::seeded(3, 100);
        let err = append_line_durable(&path, b"{\"n\": 2}\n", &bad).unwrap_err();
        assert!(err.to_string().contains("injected"));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            before,
            "failed append left no bytes behind"
        );

        // And a retry through the supervisor budget lands it exactly once.
        let sup = SupervisorConfig {
            backoff_base: Duration::from_millis(1),
            env_faults: bad,
            ..Default::default()
        };
        let retries =
            retry_append(&sup, |env| append_line_durable(&path, b"{\"n\": 2}\n", env)).unwrap();
        assert!(retries >= 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"n\": 1}\n{\"n\": 2}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_append_final_attempt_suppresses_injection() {
        let sup = SupervisorConfig {
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            env_faults: EnvFaultPolicy::seeded(0, 100),
            ..Default::default()
        };
        let calls = AtomicU32::new(0);
        let retries = retry_append(&sup, |effective| {
            calls.fetch_add(1, Ordering::Relaxed);
            match effective.should_fail(EnvFaultOp::Rename) {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(retries, 1);
    }

    #[test]
    fn quarantine_round_trips_and_repairs_torn_tail() {
        let dir = temp_dir("quarantine");
        let q = Quarantine::in_dir(&dir);
        assert_eq!(q.load().unwrap(), Vec::new(), "missing file is empty");

        let env = EnvFaultPolicy::off();
        let a = QuarantineEntry {
            cell_id: 3,
            attempts: 3,
            reason: "chaos: injected panic in cell 3".to_string(),
        };
        let b = QuarantineEntry {
            cell_id: 7,
            attempts: 2,
            reason: "io: disk full".to_string(),
        };
        q.append(&a, &env).unwrap();
        q.append(&b, &env).unwrap();
        assert_eq!(q.load().unwrap(), vec![a.clone(), b.clone()]);

        // Torn tail: dropped on load, truncated by repair.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new()
                .append(true)
                .open(q.journal.path())
                .unwrap();
            f.write_all(b"{\"cell\": 9, \"atte").unwrap();
        }
        assert_eq!(q.load().unwrap(), vec![a.clone(), b.clone()]);
        assert!(q.repair_torn_tail().unwrap());
        assert!(!q.repair_torn_tail().unwrap(), "idempotent");
        assert_eq!(q.load().unwrap(), vec![a, b]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
