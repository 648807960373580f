//! Campaign-level integration tests: the resume determinism contract (after
//! a kill, a torn write or a graceful stop), the sharded-vs-unsharded
//! bug-class comparison, and corpus replay.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;
use tqs_campaign::{
    Campaign, CampaignConfig, Checkpoint, Corpus, CorpusEntry, EngineKind, OracleSpec, PlanMode,
    SupervisorConfig, Workload,
};
use tqs_core::backend::DbmsConnector;
use tqs_core::bugs::OracleKind;
use tqs_core::dsg::{DsgConfig, WideSource};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_sql::hints::HintSet;
use tqs_sql::parser::parse_stmt;
use tqs_storage::widegen::ShoppingConfig;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tqs-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One seeded-fault campaign configuration; identical across directories so
/// runs are comparable.
fn cfg(dir: PathBuf, shards: usize, queries_per_cell: usize) -> CampaignConfig {
    CampaignConfig {
        dir,
        dsg: DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 100,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: Some(NoiseConfig {
                epsilon: 0.04,
                seed: 17,
                max_injections: 12,
            }),
        },
        shards,
        workers: 2,
        profiles: vec![ProfileId::MysqlLike],
        oracles: vec![OracleSpec::GroundTruth],
        engines: vec![EngineKind::Row],
        plan_modes: vec![PlanMode::Single],
        workloads: vec![Workload::Select],
        queries_per_cell,
        seed: 4242,
        minimize: true,
        max_cells_per_run: None,
        supervisor: Default::default(),
    }
}

#[test]
fn killed_and_resumed_campaign_matches_uninterrupted_run() {
    // Uninterrupted reference run.
    let dir_a = test_dir("uninterrupted");
    let mut uninterrupted = Campaign::new(cfg(dir_a.clone(), 2, 40)).unwrap();
    let stats = uninterrupted.run().unwrap();
    assert!(uninterrupted.is_complete());
    assert!(stats.bug_classes > 0, "seeded faults should surface");

    // Same campaign identity in a second directory, killed after one cell.
    let dir_b = test_dir("killed");
    let mut killed = Campaign::new(CampaignConfig {
        max_cells_per_run: Some(1),
        workers: 1,
        ..cfg(dir_b.clone(), 2, 40)
    })
    .unwrap();
    killed.run().unwrap();
    assert!(!killed.is_complete());
    drop(killed); // the "kill": all in-memory state is gone

    // Resume from disk (different worker count on purpose — an operational
    // knob, not part of the campaign identity) and finish.
    let mut resumed = Campaign::resume(cfg(dir_b.clone(), 2, 40)).unwrap();
    assert_eq!(resumed.cells_done(), 1);
    resumed.run().unwrap();
    assert!(resumed.is_complete());

    // The deduplicated bug-class set is bit-identical.
    assert_eq!(
        resumed.class_keys(),
        uninterrupted.class_keys(),
        "killed+resumed campaign must reproduce the uninterrupted class set"
    );

    // And the persisted corpora agree with the in-memory triage state.
    let persisted: BTreeSet<String> = Corpus::in_dir(&dir_b)
        .load()
        .unwrap()
        .into_iter()
        .map(|e| e.class_key)
        .collect();
    assert_eq!(persisted, resumed.class_keys());

    // Resuming a *complete* campaign is a no-op that changes nothing.
    let mut again = Campaign::resume(cfg(dir_b.clone(), 2, 40)).unwrap();
    let stats = again.run().unwrap();
    assert_eq!(stats.cells_drained, 0);
    assert_eq!(again.class_keys(), uninterrupted.class_keys());

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn a_graceful_stop_journals_the_run_and_resume_finishes_the_grid() {
    // Eight cells (2 shards × 2 oracles × 2 engines) drained by one worker;
    // a monitor asks the fleet to stop as soon as the checkpoint journal
    // holds a drained cell.
    let grid = |tag: &str, workers: usize| CampaignConfig {
        workers,
        oracles: vec![OracleSpec::GroundTruth, OracleSpec::CrossEngine],
        engines: vec![EngineKind::Row, EngineKind::Columnar],
        ..cfg(test_dir(tag), 2, 25)
    };
    let mut reference = Campaign::new(grid("stop-ref", 2)).unwrap();
    reference.run().unwrap();
    assert!(reference.is_complete());

    let config = grid("stop", 1);
    let mut campaign = Campaign::new(config.clone()).unwrap();
    assert_eq!(campaign.cells_total(), 8);
    let handle = campaign.stop_handle();
    let checkpoint = Checkpoint::in_dir(&config.dir);
    let monitor = std::thread::spawn(move || {
        // `load` skips a torn last line, so a record mid-append reads as
        // not there yet.
        while checkpoint.load().map_or(true, |j| j.cells.is_empty()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.request_stop();
    });
    let stats = campaign.run().unwrap();
    monitor.join().unwrap();
    assert!(campaign.stop_handle().is_stop_requested());
    assert!(
        (1..stats.cells_total).contains(&stats.cells_done),
        "stopped after {} of {} cells",
        stats.cells_done,
        stats.cells_total
    );
    assert!(!campaign.is_complete());

    // The stopped run is journaled: its drained cells and its run record.
    let journal = Checkpoint::in_dir(&config.dir).load().unwrap();
    assert_eq!(journal.cells.len(), stats.cells_done);
    let [run] = journal.runs[..] else {
        panic!("one run record expected, journal holds {:?}", journal.runs);
    };
    assert_eq!(
        (run.queries, run.statements, run.plans),
        (stats.queries, stats.statements, stats.plans)
    );
    drop(campaign);

    let mut resumed = Campaign::resume(CampaignConfig {
        workers: 2,
        ..config.clone()
    })
    .unwrap();
    assert_eq!(resumed.cells_done(), stats.cells_done);
    assert_eq!(resumed.prior_totals().queries, stats.queries);
    resumed.run().unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.class_keys(), reference.class_keys());

    std::fs::remove_dir_all(&reference.config().dir).unwrap();
    std::fs::remove_dir_all(&config.dir).unwrap();
}

#[test]
fn torn_final_lines_are_skipped_and_resume_reproduces_the_class_set() {
    // Reference: the uninterrupted run's deduplicated class set.
    let dir_ref = test_dir("torn-ref");
    let mut reference = Campaign::new(cfg(dir_ref.clone(), 2, 40)).unwrap();
    reference.run().unwrap();

    // Same campaign, killed after one cell — and killed *mid-write*: both
    // the corpus and the checkpoint journal end in a torn partial line, the
    // on-disk state a power cut during an append leaves behind.
    let dir = test_dir("torn");
    let mut killed = Campaign::new(CampaignConfig {
        max_cells_per_run: Some(1),
        workers: 1,
        ..cfg(dir.clone(), 2, 40)
    })
    .unwrap();
    killed.run().unwrap();
    drop(killed);
    for file in ["corpus.jsonl", "checkpoint.jsonl"] {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(file))
            .unwrap();
        use std::io::Write;
        // No trailing newline: a partial append, not a corrupt record.
        f.write_all(b"{\"cell\": 1, \"class\": \"SemiJo").unwrap();
    }

    // Resume truncates the torn tails — counted into the run's stats, not
    // printed — and completes to the exact class set of the uninterrupted
    // run.
    let mut resumed = Campaign::resume(cfg(dir.clone(), 2, 40)).unwrap();
    assert_eq!(
        resumed.cells_done(),
        1,
        "torn tail must not eat the journal"
    );
    assert_eq!(
        resumed.torn_tails_repaired(),
        2,
        "both the corpus and the checkpoint journal were torn"
    );
    let stats = resumed.run().unwrap();
    assert_eq!(stats.torn_tails_repaired, 2);
    assert!(resumed.is_complete());
    assert_eq!(
        resumed.class_keys(),
        reference.class_keys(),
        "resume over torn tails must reproduce the uninterrupted class set"
    );

    // Resume truncated the torn tails before appending, so both files are
    // clean line-oriented JSONL again: the corpus loads in full and agrees
    // with the in-memory triage.
    let persisted: BTreeSet<String> = Corpus::in_dir(&dir)
        .load()
        .unwrap()
        .into_iter()
        .map(|e| e.class_key)
        .collect();
    assert_eq!(persisted, resumed.class_keys());
    let loaded = tqs_campaign::Checkpoint::in_dir(&dir).load().unwrap();
    assert_eq!(loaded.cells.len(), resumed.cells_total());

    std::fs::remove_dir_all(&dir_ref).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_and_unsharded_hunts_find_the_same_fault_classes() {
    // Same total query budget, same seeded fault build: two shards hunting
    // half the data each vs one worker over the whole catalog.
    let dir_sharded = test_dir("sharded");
    let mut sharded = Campaign::new(cfg(dir_sharded.clone(), 2, 150)).unwrap();
    sharded.run().unwrap();

    let dir_whole = test_dir("whole");
    let mut whole = Campaign::new(cfg(dir_whole.clone(), 1, 300)).unwrap();
    whole.run().unwrap();

    // Root-cause granularity (the paper's Table 4 "bug type" level): the
    // individual faults implicated across all classes. Which *combinations*
    // fire together depends on the exact query mix, but partitioned hunting
    // must not lose root-cause coverage relative to the monolithic hunt.
    let implicated = |c: &Campaign| -> BTreeSet<String> {
        c.triage()
            .fault_classes()
            .iter()
            .flat_map(|combo| combo.split('+').map(str::to_string))
            .collect()
    };
    let sharded_faults = implicated(&sharded);
    let whole_faults = implicated(&whole);
    assert!(!sharded_faults.is_empty());
    assert!(!whole_faults.is_empty());
    let missed: Vec<&String> = whole_faults.difference(&sharded_faults).collect();
    let extra: Vec<&String> = sharded_faults.difference(&whole_faults).collect();
    assert!(
        missed.is_empty() && extra.is_empty(),
        "root-cause sets diverged; sharded missed {missed:?}, found extra {extra:?}"
    );

    std::fs::remove_dir_all(&dir_sharded).unwrap();
    std::fs::remove_dir_all(&dir_whole).unwrap();
}

#[test]
fn corpus_witnesses_replay_without_the_engine() {
    let dir = test_dir("replay");
    let mut campaign = Campaign::new(cfg(dir.clone(), 1, 60)).unwrap();
    campaign.run().unwrap();
    let entries = Corpus::in_dir(&dir).load().unwrap();
    assert!(!entries.is_empty());
    for entry in &entries {
        // Every persisted class carries a witness trace; serving it back
        // through the replay backend reproduces the recorded outcomes
        // bit-for-bit, without the faulty engine build.
        assert!(!entry.trace.is_empty());
        let mut replay = entry.replay_connector();
        assert_eq!(replay.info().name, entry.connector.name);
        for stored in &entry.trace {
            let Ok(stmt) = parse_stmt(&stored.sql) else {
                continue;
            };
            let outcome = replay.execute_with_hints(&stmt, &HintSet::new(&stored.label));
            match &stored.error {
                Some(_) => assert!(outcome.is_err(), "recorded error must replay as error"),
                None => {
                    let out = outcome.expect("recorded statement must replay");
                    assert_eq!(out.result.row_count(), stored.rows.len());
                    assert_eq!(out.fired, stored.fired);
                }
            }
        }
        // A fingerprint-stamped report deduplicates under the same key after
        // the disk round-trip.
        assert_eq!(entry.report.class_key(), entry.class_key);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn worker_count_does_not_change_what_the_fleet_finds() {
    // Figure 10 as an assertion: the same grids drained by 1, 2 and 4 workers
    // do the same work and write the same corpus, byte for byte, and the same
    // cell records — what makes the campaign fleet a valid scaling experiment
    // (only the wall clock may move). The SELECT grid runs two oracles on two
    // engines; on the DML grid, cells on two profiles and two engines sight
    // many of the same classes, which the lowest cell id must own.
    let grids = |dir: PathBuf, workers: usize| {
        [
            CampaignConfig {
                workers,
                oracles: vec![OracleSpec::GroundTruth, OracleSpec::CrossEngine],
                engines: vec![EngineKind::Row, EngineKind::Columnar],
                ..cfg(dir.join("select"), 2, 25)
            },
            CampaignConfig {
                workers,
                profiles: vec![ProfileId::MysqlLike, ProfileId::TidbLike],
                engines: vec![EngineKind::Row, EngineKind::Disk],
                workloads: vec![Workload::Dml],
                ..cfg(dir.join("dml"), 2, 25)
            },
        ]
    };
    let outcome = |workers: usize| {
        let dir = test_dir(&format!("workers-{workers}"));
        let found: Vec<_> = grids(dir.clone(), workers)
            .into_iter()
            .map(|config| {
                let mut campaign = Campaign::new(config.clone()).unwrap();
                assert_eq!(campaign.cells_total(), 8);
                let stats = campaign.run().unwrap();
                assert!(campaign.is_complete());
                let corpus = std::fs::read_to_string(campaign.corpus().path()).unwrap();
                let mut cells = Checkpoint::in_dir(&config.dir).load().unwrap().cells;
                for record in &mut cells {
                    record.elapsed_ms = 0;
                }
                (
                    corpus,
                    cells,
                    (stats.queries, stats.statements, stats.raw_reports),
                )
            })
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        found
    };
    let one = outcome(1);
    assert!(
        one.iter().all(|(corpus, ..)| !corpus.is_empty()),
        "seeded faults should surface"
    );
    assert_eq!(outcome(2), one);
    assert_eq!(outcome(4), one);
}

#[test]
fn a_mixed_grid_keeps_each_workloads_behaviour() {
    // One cell loop, two workloads: SELECT cells minimize their witnesses and
    // run under the statement budget; DML cells report mutation classes only,
    // have no reducer, and never carry a cancel token.
    // Returns the corpus split into (DML cells' entries, SELECT cells').
    let hunt = |tag: &str, stmt_deadline| -> (Vec<CorpusEntry>, Vec<CorpusEntry>) {
        let dir = test_dir(tag);
        let mut campaign = Campaign::new(CampaignConfig {
            workloads: vec![Workload::Select, Workload::Dml],
            supervisor: SupervisorConfig {
                stmt_deadline,
                ..Default::default()
            },
            ..cfg(dir.clone(), 1, 30)
        })
        .unwrap();
        campaign.run().unwrap();
        assert!(campaign.is_complete());
        let entries = Corpus::in_dir(&dir).load().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        entries
            .into_iter()
            .partition(|e| campaign.cells()[e.cell_id].workload == Workload::Dml)
    };

    let (dml, select) = hunt("mixed", None);
    assert!(!dml.is_empty() && !select.is_empty());
    for e in &dml {
        assert_eq!(e.report.oracle, OracleKind::Mutation);
        assert_eq!(e.report.minimized_sql, None, "DML has no reducer");
    }
    for e in &select {
        assert_ne!(e.report.oracle, OracleKind::Mutation);
        assert!(e.report.minimized_sql.is_some());
    }

    // A zero statement budget cancels every query, and no DML program.
    let (dml_under_budget, select_under_budget) = hunt("mixed-budget", Some(Duration::ZERO));
    assert!(select_under_budget.is_empty());
    let keys = |entries: &[CorpusEntry]| -> BTreeSet<String> {
        entries.iter().map(|e| e.class_key.clone()).collect()
    };
    assert_eq!(keys(&dml_under_budget), keys(&dml));
}
