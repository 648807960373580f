//! A pristine engine's answer does not depend on the plan: under every hint
//! set `hint_sets_for` gives a statement, each pristine build (row, columnar,
//! disk) of each profile returns the same bag of rows as under the `default`
//! set. The differential oracle's panel memo rests on this contract — it asks
//! its pristine references once per statement and judges every hint set of
//! the build under test against that one answer.

use tqs_core::backend::{DbmsConnector, EngineKind};
use tqs_core::dsg::{DsgConfig, DsgDatabase, QueryGenerator, UniformScorer, WideSource};
use tqs_core::hintgen::hint_sets_for;
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_sql::ast::SelectStmt;
use tqs_sql::render::render_stmt;
use tqs_storage::widegen::ShoppingConfig;

const STATEMENTS: usize = 48;

#[test]
fn every_hint_set_gives_a_pristine_engine_the_default_answer() {
    let d = DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 120,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: 11,
            max_injections: 12,
        }),
    });
    let mut gen = QueryGenerator::new(Default::default());
    let stmts: Vec<SelectStmt> = (0..STATEMENTS)
        .map(|_| gen.generate(&d, None, &UniformScorer))
        .collect();
    assert!(
        stmts.iter().filter(|s| s.has_subquery()).count() >= 4,
        "too few statements with a subquery"
    );
    let mut judged = 0;
    for profile in ProfileId::ALL {
        for engine in EngineKind::ALL {
            let mut conn = engine.connect_pristine(profile, &d);
            for stmt in &stmts {
                let sets = hint_sets_for(profile, stmt);
                assert_eq!(sets[0].label, "default");
                let want = conn
                    .execute_with_hints(stmt, &sets[0])
                    .unwrap_or_else(|e| panic!("{engine:?} {profile:?} default: {e:?}"))
                    .result;
                for hs in &sets[1..] {
                    let got = conn
                        .execute_with_hints(stmt, hs)
                        .unwrap_or_else(|e| panic!("{engine:?} {profile:?} {}: {e:?}", hs.label));
                    assert!(
                        want.same_bag(&got.result),
                        "{engine:?} {profile:?} {}: {} rows, default {}: {}",
                        hs.label,
                        got.result.row_count(),
                        want.row_count(),
                        render_stmt(stmt)
                    );
                    judged += 1;
                }
            }
        }
    }
    assert!(
        judged >= 4 * 3 * STATEMENTS,
        "only {judged} hint sets judged"
    );
}
