//! Supervision goldens: the campaign runtime under injected worker panics,
//! environmental IO faults, and cell/statement deadlines.
//!
//! The contract under test (ISSUE 10): a supervised campaign *completes*
//! despite chaos — panicking cells become first-class `harness-panic`
//! incident classes, persistent offenders land on the quarantine list,
//! injected IO faults are retried away — and none of it perturbs the
//! ordinary bug-class set, even across a kill/resume cycle.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Duration;
use tqs_campaign::{
    Campaign, CampaignConfig, CellRecord, Checkpoint, EngineKind, OracleSpec, PlanMode, Quarantine,
    SupervisorConfig, Workload,
};
use tqs_core::dsg::{DsgConfig, WideSource};
use tqs_engine::ProfileId;
use tqs_pager::EnvFaultPolicy;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tqs-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Quiet the default panic hook: injected worker panics are the point of
/// these tests and must not spray backtraces over the test output.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn cfg(dir: PathBuf) -> CampaignConfig {
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
                max_injections: 12,
            }),
        },
        // 3 shards × 2 engines × 2 workloads = 12 cells: wide enough that a
        // 40% chaos rate deterministically picks several panicking cells.
        shards: 3,
        workers: 2,
        profiles: vec![ProfileId::MysqlLike],
        oracles: vec![OracleSpec::GroundTruth],
        engines: vec![EngineKind::Row, EngineKind::Columnar],
        plan_modes: vec![PlanMode::Single],
        workloads: vec![Workload::Select, Workload::Dml],
        queries_per_cell: 30,
        seed: 3,
        minimize: false,
        max_cells_per_run: None,
        supervisor: Default::default(),
    }
}

/// Chaos knobs shared by the golden and the kill/resume test so both runs
/// inject the *same* panics and IO faults. Note each run needs a fresh
/// `EnvFaultPolicy` (the policy is shared state: its injection counter and
/// free-pass bit travel with clones of the same seeded instance).
fn chaos_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        chaos_panic_pct: 40,
        chaos_seed: 0xC4A0,
        env_faults: EnvFaultPolicy::seeded(9, 25),
        ..Default::default()
    }
}

fn ordinary(classes: &BTreeSet<String>) -> BTreeSet<String> {
    classes
        .iter()
        .filter(|k| !k.contains("harness-panic"))
        .cloned()
        .collect()
}

#[test]
fn chaos_run_completes_and_matches_the_fault_free_class_set() {
    quiet_panics();
    // Fault-free reference.
    let dir_ref = test_dir("golden-ref");
    let mut reference = Campaign::new(cfg(dir_ref.clone())).unwrap();
    reference.run().unwrap();
    assert!(reference.is_complete());
    let ref_classes = reference.class_keys();
    assert!(!ref_classes.is_empty(), "seeded faults should surface");

    // Chaos leg: same grid, seeded panics + environmental IO faults.
    let dir = test_dir("golden");
    let mut chaos_cfg = cfg(dir.clone());
    chaos_cfg.supervisor = chaos_supervisor();
    let sup = chaos_cfg.supervisor.clone();
    let mut chaos = Campaign::new(chaos_cfg).unwrap();
    let cells = chaos.cells_total();
    let picked: Vec<usize> = (0..cells).filter(|&id| sup.chaos_panics(id, 1)).collect();
    let persistent: BTreeSet<usize> = (0..cells).filter(|&id| sup.chaos_persistent(id)).collect();
    assert!(
        picked.len() * 10 >= cells,
        "chaos seed must panic in at least 10% of cells (picked {picked:?} of {cells})"
    );

    let stats = chaos.run().unwrap();
    assert!(
        chaos.is_complete(),
        "supervision must drive the run to completion"
    );
    assert!(sup.env_faults.injected() > 0, "IO faults never fired");
    assert_eq!(stats.panics_caught, {
        // Transient offenders panic once; persistent ones panic on every
        // attempt until quarantined after max_attempts.
        let max = sup.max_attempts as usize;
        picked.len() + persistent.len() * (max - 1)
    });
    assert_eq!(stats.quarantined, persistent.len());

    // Every panicking cell is a first-class incident class.
    let classes = chaos.class_keys();
    for &id in &picked {
        let label = format!("harness-panic:cell-{id}");
        assert!(
            classes.iter().any(|k| k.contains(&label)),
            "cell {id} panicked but produced no incident class"
        );
    }

    // Persistent offenders — and only they — are quarantined, on disk too.
    let quarantined: BTreeSet<usize> = chaos.quarantined().iter().map(|q| q.cell_id).collect();
    assert_eq!(quarantined, persistent);
    let journaled: BTreeSet<usize> = Quarantine::in_dir(&dir)
        .load()
        .unwrap()
        .iter()
        .map(|q| q.cell_id)
        .collect();
    assert_eq!(journaled, persistent);

    // The ordinary bug-class set is byte-identical to the fault-free run:
    // panics and IO faults change what the campaign *survived*, never what
    // it *found*.
    assert_eq!(ordinary(&classes), ref_classes);

    // Every drained cell journals the fault-free run's work. Its new classes
    // are the reference's, plus the incident class of a cell that panicked:
    // what an attempt found before it panicked retires with the cell.
    let records = |dir: &PathBuf| -> BTreeMap<usize, CellRecord> {
        let journal = Checkpoint::in_dir(dir).load().unwrap();
        journal.cells.into_iter().map(|r| (r.cell_id, r)).collect()
    };
    let (want, got) = (records(&dir_ref), records(&dir));
    assert_eq!(got.len() + persistent.len(), cells);
    for (id, record) in &got {
        let reference = &want[id];
        assert_eq!(
            (record.queries, record.raw_reports),
            (reference.queries, reference.raw_reports),
            "cell {id}"
        );
        let panicked = usize::from(picked.contains(id));
        assert_eq!(
            record.new_classes,
            reference.new_classes + panicked,
            "cell {id}"
        );
    }

    std::fs::remove_dir_all(&dir_ref).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_and_resumed_chaos_run_is_bit_identical() {
    quiet_panics();
    // Uninterrupted chaos reference.
    let dir_a = test_dir("resume-ref");
    let mut ref_cfg = cfg(dir_a.clone());
    ref_cfg.supervisor = chaos_supervisor();
    let mut reference = Campaign::new(ref_cfg).unwrap();
    reference.run().unwrap();
    assert!(reference.is_complete());

    // Same chaos campaign killed (dropped) after every single cell: each
    // run drains one cell then dies, so resume must reconstruct triage,
    // quarantine, and retry state from the journals alone.
    let dir_b = test_dir("resume");
    let make = |dir: PathBuf| CampaignConfig {
        max_cells_per_run: Some(1),
        workers: 1,
        supervisor: chaos_supervisor(),
        ..cfg(dir)
    };
    let mut killed = Campaign::new(make(dir_b.clone())).unwrap();
    killed.run().unwrap();
    drop(killed);
    let mut rounds = 0;
    loop {
        let mut resumed = Campaign::resume(make(dir_b.clone())).unwrap();
        if resumed.is_complete() {
            // Final reload for the comparison below.
            assert_eq!(resumed.run().unwrap().cells_drained, 0);
            let q_ref: Vec<(usize, u32)> = reference
                .quarantined()
                .iter()
                .map(|q| (q.cell_id, q.attempts))
                .collect();
            let mut q_res: Vec<(usize, u32)> = resumed
                .quarantined()
                .iter()
                .map(|q| (q.cell_id, q.attempts))
                .collect();
            q_res.sort_unstable();
            let mut q_ref = q_ref;
            q_ref.sort_unstable();
            assert_eq!(q_res, q_ref, "quarantine list must survive kill/resume");
            assert_eq!(
                resumed.class_keys(),
                reference.class_keys(),
                "killed+resumed chaos run must reproduce the full class set \
                 (incidents included)"
            );
            break;
        }
        resumed.run().unwrap();
        drop(resumed);
        rounds += 1;
        assert!(rounds < 64, "chaos resume loop did not converge");
    }

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn zero_cell_deadline_times_out_every_cell_but_completes() {
    let dir = test_dir("deadline-cell");
    let mut dl_cfg = cfg(dir.clone());
    dl_cfg.supervisor = SupervisorConfig {
        cell_deadline: Some(Duration::ZERO),
        ..Default::default()
    };
    let mut campaign = Campaign::new(dl_cfg).unwrap();
    let stats = campaign.run().unwrap();
    // An already-expired budget: every cell gives up before its first
    // statement yet checkpoints as complete-with-timeout.
    assert!(campaign.is_complete());
    assert_eq!(stats.deadline_cells, campaign.cells_total());
    assert_eq!(stats.queries, 0);
    assert_eq!(campaign.class_keys().len(), 0);
    let journal = Checkpoint::in_dir(&dir).load().unwrap();
    assert!(journal.cells.iter().all(|c| c.timeout && c.queries == 0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_statement_deadline_cancels_statements_without_false_bugs() {
    let dir = test_dir("deadline-stmt");
    let mut dl_cfg = cfg(dir.clone());
    // Select-only grid: statement cancellation applies to the query path.
    // DML cells deliberately ignore the statement budget (cancelling one
    // side of a stateful comparison would fabricate divergence) and are
    // bounded by the cell deadline instead.
    dl_cfg.workloads = vec![Workload::Select];
    dl_cfg.supervisor = SupervisorConfig {
        stmt_deadline: Some(Duration::ZERO),
        ..Default::default()
    };
    let mut campaign = Campaign::new(dl_cfg).unwrap();
    let stats = campaign.run().unwrap();
    // Every statement is cancelled at its first progress check; the oracles
    // must classify those as skips — a timeout is never a bug report.
    assert!(campaign.is_complete());
    assert_eq!(stats.deadline_cells, 0, "cell budget was never set");
    assert_eq!(
        campaign.class_keys().len(),
        0,
        "cancelled statements must not be misread as divergence"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
