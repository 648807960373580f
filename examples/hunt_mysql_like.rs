//! A longer bug hunt against every simulated DBMS profile, reporting the
//! per-profile bug counts and bug types — a miniature Table 4.
//!
//! Run with: `cargo run --release --example hunt_mysql_like`

use tqs_core::backend::{BuildSpec, EngineConnector, EngineKind};
use tqs_core::dsg::{DsgConfig, WideSource};
use tqs_core::tqs::{TqsConfig, TqsSession};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

fn main() {
    let iterations: usize = std::env::var("TQS_ITER")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    for profile in ProfileId::ALL {
        let dsg_cfg = DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 250,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: Some(NoiseConfig {
                epsilon: 0.04,
                seed: 11,
                max_injections: 32,
            }),
        };
        let mut session = TqsSession::builder()
            .connector(EngineConnector::open(
                EngineKind::Row,
                BuildSpec::Faulty,
                profile,
            ))
            .dsg_config(&dsg_cfg)
            .config(TqsConfig {
                iterations,
                ..Default::default()
            })
            .build()
            .expect("session build");
        let stats = session.run();
        println!(
            "{:<14} bugs={:<4} types={:<3} diversity={:<6} ({} queries)",
            stats.dbms,
            stats.bug_count,
            stats.bug_type_count,
            stats.diversity,
            stats.queries_generated
        );
        for ty in session.bugs.bug_types() {
            println!("    type: {ty}");
        }
    }
}
