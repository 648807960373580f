//! Acceptance tests for the corpus re-verification engine: a corpus hunted
//! on a faulty build re-verifies as 100% `StillFailing` on the same build
//! and 100% `Fixed` on the fault-free build, and compaction is idempotent.

use std::path::PathBuf;
use tqs_campaign::{
    BuildSpec, Campaign, CampaignConfig, Corpus, EngineKind, OracleSpec, PlanMode,
    ReverifyCampaign, ReverifyConfig, ReverifyStatus, Workload,
};
use tqs_core::dsg::{DsgConfig, WideSource};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tqs-reverify-rt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: PathBuf) -> CampaignConfig {
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
        shards: 2,
        workers: 2,
        profiles: vec![ProfileId::MysqlLike],
        oracles: vec![OracleSpec::GroundTruth],
        engines: vec![EngineKind::Row],
        plan_modes: vec![PlanMode::Single],
        workloads: vec![Workload::Select],
        queries_per_cell: 40,
        seed: 4242,
        minimize: true,
        max_cells_per_run: None,
        supervisor: Default::default(),
    }
}

fn reverify(dir: &std::path::Path, builds: Vec<BuildSpec>) -> ReverifyCampaign {
    ReverifyCampaign::load(ReverifyConfig {
        campaign: cfg(dir.to_path_buf()),
        builds,
        workers: 2,
    })
    .expect("load the corpus for re-verification")
}

#[test]
fn faulty_corpus_still_fails_on_the_same_build_and_fixes_on_pristine() {
    let dir = test_dir("verdicts");
    let mut campaign = Campaign::new(cfg(dir.clone())).unwrap();
    campaign.run().unwrap();
    let classes = campaign.class_keys().len();
    assert!(classes > 0, "seeded faults should surface");

    let rv = reverify(&dir, vec![BuildSpec::Faulty, BuildSpec::Pristine]);
    assert_eq!(rv.entries().len(), classes, "one corpus entry per class");
    let (report, stats) = rv.run();
    assert_eq!(stats.verdicts, classes * 2);

    // 100% StillFailing on the build that produced the corpus, 100% Fixed
    // on the fault-free build — no flaky, no stale.
    for v in &report.verdicts {
        match v.build {
            BuildSpec::Faulty => {
                assert_eq!(v.status, ReverifyStatus::StillFailing, "{v:?}");
                assert!(v.replay_reproduced && v.live_failing, "{v:?}");
            }
            BuildSpec::Pristine => {
                assert_eq!(v.status, ReverifyStatus::Fixed, "{v:?}");
                assert!(v.replay_reproduced && !v.live_failing, "{v:?}");
            }
        }
    }
    assert_eq!(report.count(ReverifyStatus::StillFailing), classes);
    assert_eq!(report.count(ReverifyStatus::Fixed), classes);
    assert_eq!(stats.flaky, 0);
    assert_eq!(stats.stale, 0);

    // Aggregated across builds every class is still open, so nothing is
    // garbage-collected even without keep_fixed.
    assert_eq!(report.surviving_classes(false), campaign.class_keys());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_is_idempotent_and_garbage_collects_fixed_classes() {
    let dir = test_dir("compact");
    let mut campaign = Campaign::new(cfg(dir.clone())).unwrap();
    campaign.run().unwrap();
    let classes = campaign.class_keys().len();
    assert!(classes > 0);
    let corpus = Corpus::in_dir(&dir);

    // Compact against the faulty-build report: every class survives, and a
    // second pass is a byte-identical no-op.
    let (report, _) = reverify(&dir, vec![BuildSpec::Faulty]).run();
    let first = corpus.compact(|k| report.retain_class(k, false)).unwrap();
    assert_eq!(first.kept, classes);
    assert_eq!(first.classes_dropped, 0);
    let bytes = std::fs::read(corpus.path()).unwrap();
    let second = corpus.compact(|k| report.retain_class(k, false)).unwrap();
    assert_eq!(second.kept, classes);
    assert_eq!((second.duplicates_dropped, second.classes_dropped), (0, 0));
    assert_eq!(
        std::fs::read(corpus.path()).unwrap(),
        bytes,
        "second compaction must rewrite the corpus byte-identically"
    );

    // The compacted corpus still resumes to the same class set.
    let resumed = Campaign::resume(cfg(dir.clone())).unwrap();
    assert_eq!(resumed.class_keys(), campaign.class_keys());

    // Against the pristine build everything is Fixed: keep_fixed preserves
    // the corpus, a plain compaction garbage-collects it completely.
    let (fixed_report, stats) = reverify(&dir, vec![BuildSpec::Pristine]).run();
    assert_eq!(stats.fixed, classes);
    let kept = corpus
        .compact(|k| fixed_report.retain_class(k, true))
        .unwrap();
    assert_eq!(kept.kept, classes);
    let gone = corpus
        .compact(|k| fixed_report.retain_class(k, false))
        .unwrap();
    assert_eq!(gone.kept, 0);
    assert_eq!(gone.classes_dropped, classes);
    assert!(corpus.load().unwrap().is_empty());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mixed_profile_cross_engine_corpora_re_verify_cleanly() {
    // Two grids over two profiles: the ground truth next to the cross-engine
    // differential oracle, and the shape of a standard hunt (`exp_fig10`'s
    // grid) — the ground truth next to the three-way panel, on the row and
    // the disk engine, one shard, reducer on as everywhere in this file.
    // Re-verification must route every entry back through its own cell's
    // oracle and build.
    let two_profiles = |tag: &str| CampaignConfig {
        profiles: vec![ProfileId::MysqlLike, ProfileId::TidbLike],
        ..cfg(test_dir(tag))
    };
    let cross_engine = CampaignConfig {
        oracles: vec![OracleSpec::GroundTruth, OracleSpec::CrossEngine],
        queries_per_cell: 25,
        ..two_profiles("mixed")
    };
    let standard = CampaignConfig {
        shards: 1,
        oracles: vec![OracleSpec::GroundTruth, OracleSpec::ThreeWay],
        engines: vec![EngineKind::Row, EngineKind::Disk],
        queries_per_cell: 20,
        ..two_profiles("standard")
    };
    for config in [cross_engine, standard] {
        let mut campaign = Campaign::new(config.clone()).unwrap();
        campaign.run().unwrap();
        let classes = campaign.class_keys().len();
        assert!(classes > 0);

        // A cold resume rebuilds the class set from the files alone.
        let resumed = Campaign::resume(config.clone()).unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.class_keys(), campaign.class_keys());

        let dir = config.dir.clone();
        let rv = ReverifyCampaign::load(ReverifyConfig {
            campaign: config,
            builds: vec![BuildSpec::Faulty, BuildSpec::Pristine],
            workers: 3,
        })
        .unwrap();
        let (report, stats) = rv.run();
        assert_eq!(stats.verdicts, classes * 2);
        assert_eq!(stats.flaky, 0, "{report:#?}");
        assert_eq!(stats.stale, 0, "{report:#?}");
        assert_eq!(
            report.count_on(BuildSpec::Faulty, ReverifyStatus::StillFailing),
            classes
        );
        assert_eq!(
            report.count_on(BuildSpec::Pristine, ReverifyStatus::Fixed),
            classes
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
