//! Baselines vs TQS on the same faulty engine and the same query budget:
//! TQS must find at least as many bugs and bug types, and its structural
//! diversity must dominate PQS (the Figure 8 shape).

use tqs_core::baselines::{run_baseline, Baseline, BaselineConfig};
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_core::tqs::{TqsConfig, TqsSession};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

fn dsg() -> DsgDatabase {
    DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 200,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: 3,
            max_injections: 24,
        }),
    })
}

#[test]
fn tqs_dominates_baselines_on_mysql_like() {
    let d = dsg();
    let budget = 150usize;
    let mut tqs = TqsSession::builder()
        .profile(ProfileId::MysqlLike)
        .dsg(d.clone())
        .config(TqsConfig {
            iterations: budget,
            ..Default::default()
        })
        .build()
        .unwrap();
    let tqs_stats = tqs.run();
    let base_cfg = BaselineConfig {
        iterations: budget,
        ..Default::default()
    };
    let pqs = run_baseline(Baseline::Pqs, ProfileId::MysqlLike, &d, &base_cfg);
    let tlp = run_baseline(Baseline::Tlp, ProfileId::MysqlLike, &d, &base_cfg);
    let norec = run_baseline(Baseline::NoRec, ProfileId::MysqlLike, &d, &base_cfg);

    assert!(
        tqs_stats.diversity > pqs.diversity,
        "TQS diversity {} must beat PQS {}",
        tqs_stats.diversity,
        pqs.diversity
    );
    assert!(
        tqs_stats.bug_type_count >= pqs.bug_type_count,
        "TQS types {} < PQS types {}",
        tqs_stats.bug_type_count,
        pqs.bug_type_count
    );
    assert!(
        tqs_stats.bug_type_count >= tlp.bug_type_count,
        "TQS types {} < TLP types {}",
        tqs_stats.bug_type_count,
        tlp.bug_type_count
    );
    assert!(tqs_stats.bug_count > 0);
    // Figure 8(e–h): more bugs too — comparable because every tool's bugs are
    // keyed by the one loop's rule.
    for baseline in [&pqs, &tlp, &norec] {
        assert!(
            tqs_stats.bug_count >= baseline.bug_count,
            "TQS bugs {} < {} bugs {}",
            tqs_stats.bug_count,
            baseline.tool,
            baseline.bug_count
        );
    }
}

#[test]
fn ground_truth_catches_more_than_differential_testing() {
    // The !GT ablation: differential testing misses bugs that corrupt every
    // plan the same way (e.g. the constant-cache fault).
    let d = dsg();
    let run = |use_gt: bool| {
        let mut session = TqsSession::builder()
            .profile(ProfileId::MysqlLike)
            .dsg(d.clone())
            .config(TqsConfig {
                iterations: 150,
                use_ground_truth: use_gt,
                ..Default::default()
            })
            .build()
            .unwrap();
        session.run()
    };
    let with_gt = run(true);
    let without_gt = run(false);
    assert!(
        with_gt.bug_type_count >= without_gt.bug_type_count,
        "GT types {} < differential types {}",
        with_gt.bug_type_count,
        without_gt.bug_type_count
    );
}
