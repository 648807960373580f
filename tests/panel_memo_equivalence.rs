//! The panel memo changes no finding: one long-lived three-way panel — one
//! `begin_unit` per statement, the reducer run once per report as the
//! campaign runs it per admitted class — gives the same verdicts, the same
//! report fields and the same minimized SQL as two baselines, on the faulty
//! row, columnar and disk builds of two profiles: a panel built afresh for
//! every single check, and a panel that asks its references under every hint
//! set, as the oracle did before it asked once per statement.

use tqs_core::backend::{DbmsConnector, EngineKind};
use tqs_core::bugs::{make_report, minimize_with_oracle, OracleKind};
use tqs_core::dsg::{DsgConfig, DsgDatabase, QueryGenerator, UniformScorer, WideSource};
use tqs_core::hintgen::hint_sets_for;
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

/// The oracle before the once-per-statement memo: every reference executes
/// every hint set, the expected answer is `references[0]`'s (a two-reference
/// panel's vote always picks it), and a hint set any reference fails on is
/// skipped.
struct PerHintSetPanel(Vec<Box<dyn DbmsConnector>>);

impl Oracle for PerHintSetPanel {
    fn name(&self) -> &str {
        "per-hint-set-panel"
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        let info = conn.info();
        let mut executed = false;
        let mut reports = Vec::new();
        'hint_sets: for hs in hint_sets_for(info.dialect, stmt) {
            let Ok(out) = conn.execute_with_hints(stmt, &hs) else {
                continue;
            };
            let mut refs = Vec::with_capacity(self.0.len());
            for r in &mut self.0 {
                match r.execute_with_hints(stmt, &hs) {
                    Ok(answer) => refs.push(answer),
                    Err(_) => continue 'hint_sets,
                }
            }
            executed = true;
            if !refs[0].result.same_bag(&out.result) {
                let mut fired = out.fired.clone();
                fired.extend(refs.iter().flat_map(|r| r.fired.iter().copied()));
                reports.push(make_report(
                    &info.name,
                    OracleKind::CrossEngine,
                    stmt,
                    &hs,
                    &refs[0].result,
                    &out.result,
                    fired,
                ));
            }
        }
        match (executed, reports.is_empty()) {
            (false, _) => OracleVerdict::Skip,
            (true, true) => OracleVerdict::Pass,
            (true, false) => OracleVerdict::Bugs(reports),
        }
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
    let mut gen = QueryGenerator::new(Default::default());
    let stmts: Vec<SelectStmt> = (0..64)
        .map(|_| gen.generate(&d, None, &UniformScorer))
        .collect();
    let mut bug_stmts = 0;
    let mut minimizations = 0;
    for profile in [ProfileId::MysqlLike, ProfileId::MariadbLike] {
        for engine in EngineKind::ALL {
            let references = || -> Vec<Box<dyn DbmsConnector>> {
                EngineKind::ALL
                    .into_iter()
                    .filter(|e| *e != engine)
                    .map(|e| Box::new(e.connect_pristine(profile, &d)) as Box<dyn DbmsConnector>)
                    .collect()
            };
            let mut memo = DifferentialOracle::panel(references());
            let mut fresh = FreshPanel(|| DifferentialOracle::panel(references()));
            let mut per_hint_set = PerHintSetPanel(references());
            let mut conn = engine.faulty(profile).loaded(&d);
            for stmt in &stmts {
                memo.begin_unit();
                let verdict = memo.check(stmt, &mut conn);
                let got = reports_of(&verdict);
                let sql = render_stmt(stmt);
                assert_eq!(
                    got,
                    reports_of(&fresh.check(stmt, &mut conn)),
                    "{profile:?} {engine:?} vs a fresh panel: {sql}"
                );
                assert_eq!(
                    got,
                    reports_of(&per_hint_set.check(stmt, &mut conn)),
                    "{profile:?} {engine:?} vs a per-hint-set panel: {sql}"
                );
                let OracleVerdict::Bugs(reports) = verdict else {
                    continue;
                };
                bug_stmts += 1;
                let want = render_stmt(&minimize_with_oracle(stmt, &mut fresh, &mut conn));
                assert_eq!(
                    render_stmt(&minimize_with_oracle(stmt, &mut per_hint_set, &mut conn)),
                    want,
                    "{profile:?} {engine:?} minimized by a per-hint-set panel"
                );
                for _ in &reports {
                    let got = minimize_with_oracle(stmt, &mut memo, &mut conn);
                    assert_eq!(render_stmt(&got), want, "{profile:?} {engine:?}");
                    minimizations += 1;
                }
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
