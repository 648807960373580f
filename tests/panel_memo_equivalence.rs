//! The panel memo changes no finding: one long-lived three-way panel — one
//! `begin_unit` per statement, the reducer run once per report as the
//! campaign runs it per admitted class — gives the same verdicts, the same
//! report fields and the same minimized SQL as a panel built afresh for every
//! single check, on the faulty row, columnar and disk builds.

use tqs_core::backend::{DbmsConnector, EngineKind};
use tqs_core::bugs::minimize_with_oracle;
use tqs_core::dsg::{DsgConfig, DsgDatabase, QueryGenerator, UniformScorer, WideSource};
use tqs_core::oracle::{DifferentialOracle, Oracle, OracleVerdict};
use tqs_engine::{FaultKind, ProfileId};
use tqs_schema::NoiseConfig;
use tqs_sql::ast::SelectStmt;
use tqs_sql::render::render_stmt;
use tqs_storage::widegen::ShoppingConfig;

/// The oracle the memo must be indistinguishable from: a new panel per
/// check, so no answer outlives the check that asked for it.
struct FreshPanel<F: FnMut() -> DifferentialOracle>(F);

impl<F: FnMut() -> DifferentialOracle> Oracle for FreshPanel<F> {
    fn name(&self) -> &str {
        "fresh-panel"
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        (self.0)().check(stmt, conn)
    }
}

type ReportFields = (String, String, String, usize, usize, Vec<FaultKind>);

/// A verdict's reports field by field; `None` for a skip.
fn reports_of(v: &OracleVerdict) -> Option<Vec<ReportFields>> {
    match v {
        OracleVerdict::Skip => None,
        OracleVerdict::Pass => Some(Vec::new()),
        OracleVerdict::Bugs(r) => Some(
            r.iter()
                .map(|b| {
                    (
                        b.sql.clone(),
                        b.hint_label.clone(),
                        b.transformed_sql.clone(),
                        b.expected_rows,
                        b.observed_rows,
                        b.fired.clone(),
                    )
                })
                .collect(),
        ),
    }
}

#[test]
fn a_long_lived_panel_finds_and_minimizes_what_a_fresh_panel_per_check_does() {
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
    let profile = ProfileId::MysqlLike;
    let mut gen = QueryGenerator::new(Default::default());
    let stmts: Vec<SelectStmt> = (0..64)
        .map(|_| gen.generate(&d, None, &UniformScorer))
        .collect();
    let mut bug_stmts = 0;
    let mut minimizations = 0;
    for engine in EngineKind::ALL {
        let panel = || {
            DifferentialOracle::panel(
                EngineKind::ALL
                    .into_iter()
                    .filter(|e| *e != engine)
                    .map(|e| Box::new(e.connect_pristine(profile, &d)) as Box<dyn DbmsConnector>)
                    .collect(),
            )
        };
        let mut memo = panel();
        let mut fresh = FreshPanel(panel);
        let mut conn = engine.faulty(profile).loaded(&d);
        for stmt in &stmts {
            memo.begin_unit();
            let verdict = memo.check(stmt, &mut conn);
            let expected = fresh.check(stmt, &mut conn);
            assert_eq!(
                reports_of(&verdict),
                reports_of(&expected),
                "{engine:?}: {}",
                render_stmt(stmt)
            );
            let OracleVerdict::Bugs(reports) = verdict else {
                continue;
            };
            bug_stmts += 1;
            let want = render_stmt(&minimize_with_oracle(stmt, &mut fresh, &mut conn));
            for _ in &reports {
                let got = minimize_with_oracle(stmt, &mut memo, &mut conn);
                assert_eq!(render_stmt(&got), want, "{engine:?}");
                minimizations += 1;
            }
        }
    }
    assert!(
        bug_stmts > 0,
        "no faulty build ever diverged from its panel"
    );
    assert!(
        minimizations > bug_stmts,
        "no statement was minimized twice"
    );
}
