//! Cross-crate integration: the full DSG pipeline feeding the orchestrator,
//! across wide-table sources and profiles.

use tqs_core::backend::{BuildSpec, EngineConnector, EngineKind};
use tqs_core::dsg::{DsgConfig, WideSource};
use tqs_core::tqs::{TqsConfig, TqsSession};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::{RandomFdConfig, ShoppingConfig, TpchLikeConfig};

fn cfg(iterations: usize) -> TqsConfig {
    TqsConfig {
        iterations,
        queries_per_hour: 20,
        ..Default::default()
    }
}

#[test]
fn tpch_like_source_end_to_end() {
    let dsg_cfg = DsgConfig {
        source: WideSource::TpchLike(TpchLikeConfig {
            n_rows: 200,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.03,
            seed: 21,
            max_injections: 16,
        }),
    };
    let mut session = TqsSession::builder()
        .profile(ProfileId::TidbLike)
        .dsg_config(&dsg_cfg)
        .config(cfg(80))
        .build()
        .unwrap();
    assert!(session.dsg.db.metas.len() >= 3);
    let stats = session.run();
    assert!(stats.queries_executed > 0);
    // the TiDB-like faults are merge-join faults; the merge-join hint set
    // must surface at least one of them over 80 iterations
    assert!(stats.bug_count > 0, "no TiDB-like bugs found");
}

#[test]
fn random_fd_source_end_to_end_pristine_is_sound() {
    let dsg_cfg = DsgConfig {
        source: WideSource::RandomFd(RandomFdConfig {
            n_groups: 3,
            n_rows: 150,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.05,
            seed: 5,
            max_injections: 12,
        }),
    };
    let mut session = TqsSession::builder()
        .connector(EngineConnector::open(
            EngineKind::Row,
            BuildSpec::Pristine,
            ProfileId::MariadbLike,
        ))
        .dsg_config(&dsg_cfg)
        .config(cfg(60))
        .build()
        .unwrap();
    let stats = session.run();
    assert_eq!(stats.bug_count, 0, "{:#?}", session.bugs.reports);
}

#[test]
fn all_profiles_find_bugs_in_their_faulty_builds() {
    let dsg_cfg = DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 220,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: 13,
            max_injections: 24,
        }),
    };
    for profile in ProfileId::ALL {
        let mut session = TqsSession::builder()
            .profile(profile)
            .dsg_config(&dsg_cfg)
            .config(cfg(150))
            .build()
            .unwrap();
        let stats = session.run();
        assert!(
            stats.bug_count > 0,
            "{profile:?}: no bugs found in the faulty build"
        );
        assert!(stats.diversity > 10, "{profile:?}: diversity too low");
    }
}
