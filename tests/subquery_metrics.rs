//! The WHERE phase's subquery work is on the books: `engine.subquery.*` and
//! `schema.groundtruth.subquery.*` count how often a subquery was really
//! evaluated and how often the per-statement memo answered instead. Over a
//! cross join a correlated `EXISTS` is evaluated once per distinct
//! correlation value — not once per row of the product.
//!
//! One test, so nothing else in this process sees the telemetry switch move.

use std::sync::Arc;
use tqs_campaign::EngineKind;
use tqs_core::backend::DbmsConnector;
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_engine::ProfileId;
use tqs_schema::GroundTruthEvaluator;
use tqs_sql::parser::parse_stmt;
use tqs_storage::widegen::ShoppingConfig;

/// `(evaluations, memo_hits)` under `prefix` since the last reset.
fn subquery_metrics(prefix: &str) -> (u64, u64) {
    let snapshot = tqs_telemetry::snapshot_metrics();
    let read = |name: &str| {
        snapshot
            .counters
            .get(&format!("{prefix}.subquery.{name}"))
            .copied()
            .unwrap_or(0)
    };
    (read("evaluations"), read("memo_hits"))
}

#[test]
fn a_correlated_exists_is_evaluated_once_per_distinct_binding() {
    let dsg = Arc::new(DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 240,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: None,
    }));
    let stmt = parse_stmt(
        "SELECT T1.orderId FROM T4 CROSS JOIN T1 WHERE EXISTS \
         (SELECT T2.goodsId FROM T2 WHERE T2.goodsId = T1.goodsId)",
    )
    .expect("statement parses");
    let truth = GroundTruthEvaluator::new(&dsg.db);
    let mut row = EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &dsg);
    let count = |conn: &mut dyn DbmsConnector, sql: &str| {
        conn.execute_sql(sql).expect("query runs").result.rows.len() as u64
    };
    let bindings = count(&mut row, "SELECT DISTINCT T1.goodsId FROM T1");
    let product = count(&mut row, "SELECT T1.orderId FROM T4 CROSS JOIN T1");
    assert!(
        1 < bindings && 10 * bindings < product,
        "{bindings} bindings in {product} rows: the data repeats no correlation value"
    );

    // Off: the statement runs, the books stay empty.
    tqs_telemetry::reset_metrics();
    row.execute(&stmt).expect("statement executes");
    truth.evaluate(&stmt).expect("ground truth");
    assert_eq!(subquery_metrics("engine"), (0, 0));
    assert_eq!(subquery_metrics("schema.groundtruth"), (0, 0));

    tqs_telemetry::set_enabled(true);
    for kind in EngineKind::ALL {
        let mut conn = kind.connect_pristine(ProfileId::MysqlLike, &dsg);
        tqs_telemetry::reset_metrics();
        conn.execute(&stmt).expect("statement executes");
        assert_eq!(
            subquery_metrics("engine"),
            (bindings, product - bindings),
            "{} engine: (evaluations, memo hits)",
            kind.label()
        );
    }

    // The ground truth filters the distinct witnesses of the product, not
    // its rows, with the same memo.
    tqs_telemetry::reset_metrics();
    truth.evaluate(&stmt).expect("ground truth");
    tqs_telemetry::set_enabled(false);
    let (evaluations, memo_hits) = subquery_metrics("schema.groundtruth");
    assert!(
        0 < evaluations && evaluations <= bindings,
        "{evaluations} ground-truth evaluations for {bindings} bindings"
    );
    assert!(memo_hits > 0);
}
