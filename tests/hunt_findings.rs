//! What the `hunt` grid finds, pinned.
//!
//! The grid is the benchmark's `hunt` workload, rebuilt here from the public
//! `tqs-campaign` API: 4 shards × MySQL-like × {GroundTruth, ThreeWay} ×
//! {row, columnar, disk} × Single × Select, 24 queries per cell, the
//! minimizer on, campaign seed `0x5EED_CA3A`, and the shopping-order DSG with
//! 120 rows and 4 % key noise seeded from the run seed. It runs on seeds 42
//! and 7, each at 1, 2 and 4 workers, and each run must reproduce its line of
//! `tests/fixtures/hunt_findings.txt` exactly: queries, statements, raw
//! reports, classes, the fault kinds the classes implicate, an FNV-1a of the
//! sorted class keys and an FNV-1a of the sorted corpus lines (which carry
//! every class's report, minimized SQL and witness trace).
//!
//! A change that alters what the hunt finds on purpose re-records the
//! fixture — paste the line the failing assertion prints — and says why.

use std::collections::BTreeSet;
use std::path::PathBuf;
use tqs_campaign::{Campaign, CampaignConfig, EngineKind, OracleSpec, PlanMode, Workload};
use tqs_core::dsg::{DsgConfig, WideSource};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: the benchmark's sub-seed derivation.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(GOLDEN);
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `lines`, each followed by a newline.
fn fnv<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    lines
        .into_iter()
        .flat_map(|l| l.bytes().chain([b'\n']))
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

fn hunt_config(dir: PathBuf, seed: u64, workers: usize) -> CampaignConfig {
    CampaignConfig {
        dir,
        dsg: DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 120,
                seed: mix(seed, 1),
                ..Default::default()
            }),
            fd: Default::default(),
            noise: Some(NoiseConfig {
                epsilon: 0.04,
                seed: mix(seed, 2),
                max_injections: 32,
            }),
        },
        shards: 4,
        workers,
        profiles: vec![ProfileId::MysqlLike],
        oracles: vec![OracleSpec::GroundTruth, OracleSpec::ThreeWay],
        engines: EngineKind::ALL.to_vec(),
        plan_modes: vec![PlanMode::Single],
        workloads: vec![Workload::Select],
        queries_per_cell: 24,
        seed: 0x5EED_CA3A,
        minimize: true,
        max_cells_per_run: None,
        supervisor: Default::default(),
    }
}

/// One full hunt, summarized as its fixture line.
fn findings(seed: u64, workers: usize) -> String {
    let dir = std::env::temp_dir().join(format!(
        "tqs-hunt-findings-{}-{seed}-{workers}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut campaign = Campaign::new(hunt_config(dir.clone(), seed, workers)).unwrap();
    let stats = campaign.run().unwrap();
    assert!(campaign.is_complete() && campaign.quarantined().is_empty());
    let faults: BTreeSet<String> = campaign
        .triage()
        .classes()
        .iter()
        .flat_map(|c| c.representative.fired.iter().map(|f| format!("{f:?}")))
        .collect();
    let keys = campaign.class_keys();
    let corpus = std::fs::read_to_string(campaign.corpus().path()).unwrap();
    let mut lines: Vec<&str> = corpus.lines().collect();
    lines.sort_unstable();
    drop(campaign);
    std::fs::remove_dir_all(&dir).unwrap();
    format!(
        "seed={seed} workers={workers} queries={} statements={} raw_reports={} classes={} \
         class_keys_fnv={:016x} corpus_fnv={:016x} fault_kinds={}",
        stats.queries,
        stats.statements,
        stats.raw_reports,
        stats.bug_classes,
        fnv(keys.iter().map(String::as_str)),
        fnv(lines),
        faults.into_iter().collect::<Vec<_>>().join(","),
    )
}

/// The fixture line recorded for `(seed, workers)`.
fn pinned(seed: u64, workers: usize) -> String {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hunt_findings.txt");
    let text = std::fs::read_to_string(fixture).unwrap();
    let prefix = format!("seed={seed} workers={workers} ");
    text.lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no fixture line for seed {seed}, {workers} workers"))
        .to_string()
}

fn check(seed: u64) {
    for workers in [1, 2, 4] {
        assert_eq!(
            findings(seed, workers),
            pinned(seed, workers),
            "the hunt's findings moved (left: this build, right: the fixture)"
        );
    }
}

#[test]
fn seed_42_finds_what_the_fixture_pins_at_one_two_and_four_workers() {
    check(42);
}

#[test]
fn seed_7_finds_what_the_fixture_pins_at_one_two_and_four_workers() {
    check(7);
}
