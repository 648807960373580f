//! Quickstart: build a testing database from the shopping-order wide table,
//! point TQS at the (faulty) MySQL-like simulated DBMS, run a short testing
//! session and print every detected logic bug.
//!
//! Run with: `cargo run --example quickstart`

use tqs_core::backend::{BuildSpec, EngineConnector, EngineKind};
use tqs_core::dsg::{DsgConfig, WideSource};
use tqs_core::tqs::{TqsConfig, TqsSession};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

fn main() {
    let dsg_cfg = DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 200,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.03,
            seed: 7,
            max_injections: 24,
        }),
    };
    let mut session = TqsSession::builder()
        .connector(EngineConnector::open(
            EngineKind::Row,
            BuildSpec::Faulty,
            ProfileId::MysqlLike,
        ))
        .dsg_config(&dsg_cfg)
        .config(TqsConfig {
            iterations: 150,
            minimize: true,
            ..Default::default()
        })
        .build()
        .expect("the engine connector accepts any DSG catalog");

    println!("testing {}", session.dbms_name());
    println!("schema tables: {:?}", session.dsg.db.table_names());
    println!("injected noise records: {}", session.dsg.noise.len());

    let stats = session.run();
    println!(
        "\n{} queries generated, {} executed, {} skipped",
        stats.queries_generated, stats.queries_executed, stats.queries_skipped
    );
    println!(
        "query-graph diversity (isomorphic sets): {}",
        stats.diversity
    );
    println!(
        "bugs: {}  bug types: {}\n",
        stats.bug_count, stats.bug_type_count
    );

    for (i, bug) in session.bugs.reports.iter().enumerate() {
        println!(
            "--- bug #{} ({:?}, hint set `{}`) ---",
            i + 1,
            bug.oracle,
            bug.hint_label
        );
        println!("{}", bug.transformed_sql);
        println!(
            "expected {} rows, observed {} rows; root cause: {:?}",
            bug.expected_rows, bug.observed_rows, bug.fired
        );
        if let Some(min) = &bug.minimized_sql {
            println!("minimized: {min}");
        }
        println!();
    }
}
