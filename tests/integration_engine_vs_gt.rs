//! The central soundness property: for every generated query and every hint
//! set, a pristine engine's result matches the wide-table ground truth —
//! i.e. the DSG ground-truth machinery and the engine agree on SQL semantics.

use tqs_core::backend::{DbmsConnector, EngineKind};
use tqs_core::dsg::{
    DsgConfig, DsgDatabase, QueryGenConfig, QueryGenerator, UniformScorer, WideSource,
};
use tqs_core::hintgen::hint_sets_for;
use tqs_engine::ProfileId;
use tqs_schema::{GroundTruthEvaluator, NoiseConfig};
use tqs_sql::render::render_stmt;
use tqs_storage::widegen::ShoppingConfig;

#[test]
fn pristine_engines_match_ground_truth_on_many_generated_queries() {
    let dsg = DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 180,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.05,
            seed: 41,
            max_injections: 20,
        }),
    });
    let gt = GroundTruthEvaluator::new(&dsg.db);
    for profile in ProfileId::ALL {
        let mut conn = EngineKind::Row.connect_pristine(profile, &dsg);
        let mut gen = QueryGenerator::new(QueryGenConfig {
            seed: profile as u64 + 100,
            ..Default::default()
        });
        let mut checked = 0;
        for _ in 0..120 {
            let stmt = gen.generate(&dsg, None, &UniformScorer);
            let truth = match gt.evaluate(&stmt) {
                Ok(t) => t,
                Err(_) => continue,
            };
            for hs in hint_sets_for(profile, &stmt) {
                let out = match conn.execute_with_hints(&stmt, &hs) {
                    Ok(o) => o,
                    Err(_) => continue,
                };
                assert!(
                    truth.matches(&out.result),
                    "{profile:?} / hint `{}` diverged from ground truth on:\n{}\nGT ({} rows):\n{}\nengine ({} rows):\n{}",
                    hs.label,
                    render_stmt(&stmt),
                    truth.result.row_count(),
                    truth.result.pretty(),
                    out.result.row_count(),
                    out.result.pretty()
                );
                checked += 1;
            }
        }
        assert!(
            checked > 200,
            "{profile:?}: too few verified executions ({checked})"
        );
    }
}
