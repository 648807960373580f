//! A conjunction of two predicates whose subqueries each nest an
//! uncorrelated subquery returned no rows on every fault-free executor: the
//! subquery memo keys on AST node addresses, the engines evaluated each
//! subquery through a per-call clone, and the nested node of the second
//! conjunct's clone landed on the freed address the first one's had been
//! cached under. A false positive on a pristine build.

use std::sync::Arc;
use tqs_campaign::EngineKind;
use tqs_core::backend::DbmsConnector;
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_core::oracle::{Oracle, OracleVerdict, TqsOracle};
use tqs_engine::ProfileId;
use tqs_schema::GroundTruthEvaluator;
use tqs_sql::parser::parse_stmt;
use tqs_storage::widegen::ShoppingConfig;

const GOODS: &str = "T1.goodsId IN (SELECT T2.goodsId FROM T2 \
                     WHERE T2.goodsName IN (SELECT T3.goodsName FROM T3))";
const USERS: &str = "T1.userId IN (SELECT T4.userId FROM T4 \
                     WHERE T4.userName IN (SELECT T4.userName FROM T4))";

#[test]
fn a_conjunction_of_nested_subquery_predicates_keeps_its_rows_on_every_pristine_engine() {
    let dsg = Arc::new(DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 240,
            seed: 1,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: None,
    }));
    let select = |pred: &str| {
        parse_stmt(&format!("SELECT T1.orderId FROM T1 WHERE {pred}")).expect("statement parses")
    };
    let alone = [select(GOODS), select(USERS)];
    let both = [
        select(&format!("{GOODS} AND {USERS}")),
        select(&format!("{USERS} AND {GOODS}")),
    ];
    let truth = GroundTruthEvaluator::new(&dsg.db);
    let mut oracle = TqsOracle::new(&dsg);
    for kind in EngineKind::ALL {
        let mut conn = kind.connect_pristine(ProfileId::MysqlLike, &dsg);
        let rows = |conn: &mut dyn DbmsConnector, stmt| {
            conn.execute(stmt)
                .expect("statement executes")
                .result
                .rows
                .len()
        };
        let expected = rows(&mut conn, &alone[0]);
        assert!(
            expected > 0,
            "{}: the conjuncts select nothing",
            kind.label()
        );
        assert_eq!(rows(&mut conn, &alone[1]), expected);
        for stmt in &both {
            assert_eq!(
                truth
                    .evaluate(stmt)
                    .expect("ground truth")
                    .result
                    .rows
                    .len(),
                expected
            );
            assert_eq!(rows(&mut conn, stmt), expected, "{} engine", kind.label());
            assert!(
                matches!(oracle.check(stmt, &mut conn), OracleVerdict::Pass),
                "{} engine: a fault-free build was reported",
                kind.label()
            );
        }
    }
}
