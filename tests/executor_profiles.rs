//! The three executors run one statement pipeline, so they book it alike:
//! on fault-free builds of every profile, the row, columnar and disk
//! executors report the same operator sequence with the same row counts in
//! their `QueryProfile`s, and the same `engine.<executor>.*` row counters.
//! Only the timings may differ.
//!
//! One test, so nothing else in this process sees the telemetry switch move.

use tqs_core::backend::{DbmsConnector, EngineKind};
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_engine::ProfileId;
use tqs_storage::widegen::ShoppingConfig;

/// A join, an outer join with a WHERE, GROUP BY, an IN-subquery, and a
/// hinted merge join after a CROSS JOIN.
const STATEMENTS: [&str; 5] = [
    "SELECT T1.goodsId, T2.goodsName FROM T1 INNER JOIN T2 ON T1.goodsId = T2.goodsId",
    "SELECT T1.orderId, T2.goodsName FROM T1 LEFT OUTER JOIN T2 ON T1.goodsId = T2.goodsId \
     WHERE T1.goodsId > 3",
    "SELECT T2.goodsName, COUNT(*) AS n FROM T1 INNER JOIN T2 ON T1.goodsId = T2.goodsId \
     GROUP BY T2.goodsName",
    "SELECT T1.orderId FROM T1 WHERE T1.goodsId IN (SELECT T2.goodsId FROM T2)",
    "SELECT /*+ MERGE_JOIN(T2) */ T1.orderId FROM T4 CROSS JOIN T1 \
     INNER JOIN T2 ON T1.goodsId = T2.goodsId",
];

/// The row counters every executor books under `engine.<executor>.`.
const COUNTERS: [&str; 6] = [
    "scan.rows_out",
    "join.rows_in",
    "join.rows_out",
    "filter.rows_in",
    "filter.rows_out",
    "statements",
];

/// `(op, rows_in, rows_out)` per operator of one statement.
type Ops = Vec<(String, u64, u64)>;

#[test]
fn every_executor_books_the_same_operators_and_row_counts() {
    let dsg = DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 120,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: None,
    });
    tqs_telemetry::set_enabled(true);
    let mut books: Vec<(Vec<Ops>, Vec<u64>)> = Vec::new();
    for kind in EngineKind::ALL {
        tqs_telemetry::reset_metrics();
        let mut profiles = Vec::new();
        for id in ProfileId::ALL {
            let mut conn = kind.connect_pristine(id, &dsg);
            for sql in STATEMENTS {
                conn.execute_sql(sql)
                    .unwrap_or_else(|e| panic!("{} {id:?}: {sql}: {e}", kind.label()));
                let profile = conn.query_profile().expect("telemetry is on");
                profiles.push(
                    profile
                        .ops
                        .iter()
                        .map(|op| (op.op.clone(), op.rows_in, op.rows_out))
                        .collect(),
                );
            }
        }
        let snapshot = tqs_telemetry::snapshot_metrics();
        let counters = COUNTERS
            .iter()
            .map(|name| {
                let key = format!("engine.{}.{name}", kind.label());
                snapshot.counters.get(&key).copied().unwrap_or(0)
            })
            .collect();
        books.push((profiles, counters));
    }
    tqs_telemetry::set_enabled(false);

    let (row_profiles, row_counters) = &books[0];
    let statements = (ProfileId::ALL.len() * STATEMENTS.len()) as u64;
    assert_eq!(
        row_counters[5], statements,
        "one `statements` per statement"
    );
    assert!(
        row_counters.iter().all(|&n| n > 0),
        "every counter is booked: {row_counters:?}"
    );
    for (kind, (profiles, counters)) in EngineKind::ALL.iter().zip(&books).skip(1) {
        for (i, (got, want)) in profiles.iter().zip(row_profiles).enumerate() {
            assert_eq!(
                got,
                want,
                "{} vs row on {:?}: {}",
                kind.label(),
                ProfileId::ALL[i / STATEMENTS.len()],
                STATEMENTS[i % STATEMENTS.len()]
            );
        }
        assert_eq!(counters, row_counters, "{} vs row counters", kind.label());
    }
}
