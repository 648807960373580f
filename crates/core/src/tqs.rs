//! The TQS orchestrator (Algorithm 1).
//!
//! Ties everything together: DSG builds the database and generates queries by
//! (adaptive) random walk, KQE scores and records query graphs, HintGen
//! produces transformed queries, the backend behind a
//! [`DbmsConnector`](crate::backend::DbmsConnector) executes them, and each
//! statement is judged by a pluggable [`Oracle`] — the ground-truth
//! [`TqsOracle`] by default, [`PlanDiffOracle`] for the `!GT` ablation, or
//! any custom implementation supplied through the builder.

use crate::backend::{BuildSpec, ConnectorError, DbmsConnector, EngineConnector, EngineKind};
use crate::bugs::{minimize_with_oracle, BugLog};
use crate::dsg::{DsgConfig, DsgDatabase, QueryGenConfig, QueryGenerator, UniformScorer};
use crate::kqe::{Kqe, KqeConfig, KqeScorer};
use crate::oracle::{Oracle, OracleVerdict, PlanDiffOracle, TqsOracle};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use tqs_engine::ProfileId;
use tqs_graph::plangraph::{graph_fingerprint, query_graph_with_subqueries};
use tqs_sql::ast::{Expr, FromClause, SelectItem, SelectStmt};
use tqs_sql::render::render_stmt;

/// Orchestrator configuration, including the ablation switches of Table 5.
#[derive(Debug, Clone)]
pub struct TqsConfig {
    pub iterations: usize,
    /// Knowledge-guided exploration (off = `TQS!KQE`).
    pub use_kqe: bool,
    /// Ground-truth verification (off = `TQS!GT`, i.e. differential testing).
    pub use_ground_truth: bool,
    /// Reduce the statement behind each newly logged bug class, once, and
    /// store the result on the logged report.
    pub minimize: bool,
    pub query_gen: QueryGenConfig,
    pub kqe: KqeConfig,
    /// How many generated queries correspond to one "hour" when reporting
    /// timelines (the paper's x-axis is wall-clock hours; ours is a query
    /// budget).
    pub queries_per_hour: usize,
}

impl Default for TqsConfig {
    fn default() -> Self {
        TqsConfig {
            iterations: 300,
            use_kqe: true,
            use_ground_truth: true,
            minimize: false,
            query_gen: QueryGenConfig::default(),
            kqe: KqeConfig::default(),
            queries_per_hour: 25,
        }
    }
}

/// A point on a per-"hour" timeline.
#[derive(Debug, Clone, Copy)]
pub struct TimelinePoint {
    pub hour: usize,
    pub value: usize,
}

/// Statistics of one run.
#[derive(Debug, Clone)]
pub struct RunStats {
    pub dbms: String,
    pub tool: String,
    pub queries_generated: usize,
    pub queries_executed: usize,
    pub queries_skipped: usize,
    pub diversity: usize,
    pub bug_count: usize,
    pub bug_type_count: usize,
    pub diversity_timeline: Vec<TimelinePoint>,
    pub bug_timeline: Vec<TimelinePoint>,
    pub bug_type_timeline: Vec<TimelinePoint>,
}

/// Where Algorithm 1 draws its next statement from (line 4). A source owns
/// its random stream, so a seed yields the same statements whichever entry
/// point — a [`TqsSession`] or a [baseline](crate::baselines) runner — drives
/// it.
pub enum StatementSource {
    /// The adaptive random walk, weighted by the run's own explored-graph
    /// index (KQE, Equation 3).
    KqeWalk(QueryGenerator),
    /// The same walk with uniform weights: `TQS!KQE`, TLP and NoRec.
    UniformWalk(QueryGenerator),
    /// PQS pivot-style point queries, which is why its structural diversity
    /// stays low.
    Pivot(StdRng),
}

impl StatementSource {
    fn next(&mut self, dsg: &DsgDatabase, kqe: &Kqe) -> SelectStmt {
        match self {
            StatementSource::KqeWalk(g) => g.generate(dsg, None, &KqeScorer { kqe }),
            StatementSource::UniformWalk(g) => g.generate(dsg, None, &UniformScorer),
            StatementSource::Pivot(rng) => pivot_query(dsg, rng),
        }
    }
}

/// PQS pivot query: select a pivot row from the base table and build a query
/// that must return it.
fn pivot_query(dsg: &DsgDatabase, rng: &mut StdRng) -> SelectStmt {
    let base = dsg
        .db
        .metas
        .iter()
        .find(|m| m.is_base)
        .map(|m| m.name.clone())
        .unwrap_or_else(|| dsg.db.metas[0].name.clone());
    let table = dsg.db.catalog.table(&base).expect("base table");
    let row = rng.gen_range(0..table.row_count().max(1));
    let meta = dsg.db.meta(&base).unwrap();
    let mut stmt = SelectStmt::new(FromClause::single(base.clone()));
    stmt.items = meta
        .columns
        .iter()
        .take(2)
        .map(|c| SelectItem::column(&base, c))
        .collect();
    // pivot predicate: equality on every non-null key column of the pivot row
    let mut preds = Vec::new();
    for c in &meta.implicit_pk {
        if let Some(v) = table.cell(row, c) {
            if !v.is_null() {
                preds.push(Expr::eq(Expr::col(&base, c), Expr::lit(v.clone())));
            }
        }
    }
    stmt.where_clause = Expr::conjunction(preds);
    stmt
}

/// Algorithm 1, once: generate → record in `GI` → transform, execute and
/// verify (the oracle) → log. The state is borrowed from whoever owns it — a
/// [`TqsSession`] lends its fields, the baseline runners lend locals — so
/// every tool is measured by the same loop: one diversity index, one timeline
/// construction, one bug-keying rule.
pub(crate) struct Driver<'a> {
    pub dsg: &'a DsgDatabase,
    pub conn: &'a mut dyn DbmsConnector,
    pub oracle: &'a mut dyn Oracle,
    pub source: &'a mut StatementSource,
    pub kqe: &'a mut Kqe,
    pub bugs: &'a mut BugLog,
    /// Reduce each newly logged class's statement ([`TqsConfig::minimize`]).
    pub minimize: bool,
}

impl Driver<'_> {
    pub(crate) fn run(self, iterations: usize, queries_per_hour: usize) -> RunStats {
        let mut stats = RunStats {
            dbms: self.conn.info().name,
            tool: self.oracle.name().to_string(),
            queries_generated: 0,
            queries_executed: 0,
            queries_skipped: 0,
            diversity: 0,
            bug_count: 0,
            bug_type_count: 0,
            diversity_timeline: Vec::new(),
            bug_timeline: Vec::new(),
            bug_type_timeline: Vec::new(),
        };
        for i in 0..iterations {
            let stmt = self.source.next(self.dsg, self.kqe);
            stats.queries_generated += 1;
            // record in GI (the diversity metric is tracked for every source)
            let qg = query_graph_with_subqueries(&stmt, &self.dsg.schema_desc);
            self.kqe.record(&qg);
            self.oracle.begin_unit();
            match self.oracle.check(&stmt, self.conn) {
                OracleVerdict::Skip => stats.queries_skipped += 1,
                OracleVerdict::Pass => stats.queries_executed += 1,
                OracleVerdict::Bugs(reports) => {
                    stats.queries_executed += 1;
                    // Every report is keyed on the statement's query-graph
                    // fingerprint before entering the log, so the log
                    // deduplicates at bug-class granularity (see
                    // [`crate::bugs::BugReport::class_key`]).
                    let fp = graph_fingerprint(&qg);
                    let mut minimized: Option<String> = None;
                    for r in reports {
                        if !self.bugs.push(r.keyed_on_graph(fp)) || !self.minimize {
                            continue;
                        }
                        let sql = minimized.get_or_insert_with(|| {
                            render_stmt(&minimize_with_oracle(&stmt, self.oracle, self.conn))
                        });
                        if let Some(logged) = self.bugs.reports.last_mut() {
                            logged.minimized_sql = Some(sql.clone());
                        }
                    }
                }
            }
            if (i + 1) % queries_per_hour == 0 || i + 1 == iterations {
                let hour = (i + 1).div_ceil(queries_per_hour);
                let point = |value| TimelinePoint { hour, value };
                stats.diversity_timeline.push(point(self.kqe.diversity()));
                stats.bug_timeline.push(point(self.bugs.bug_count()));
                stats
                    .bug_type_timeline
                    .push(point(self.bugs.bug_type_count()));
            }
        }
        stats.diversity = self.kqe.diversity();
        stats.bug_count = self.bugs.bug_count();
        stats.bug_type_count = self.bugs.bug_type_count();
        stats
    }
}

/// One TQS testing session against one DBMS backend.
///
/// Built with [`TqsSession::builder`]; the backend is anything implementing
/// [`DbmsConnector`] — the in-process simulated engine by default.
pub struct TqsSession {
    /// Shared with the default oracle (which verifies against its ground
    /// truth) instead of duplicated into it.
    pub dsg: Arc<DsgDatabase>,
    pub connector: Box<dyn DbmsConnector>,
    /// The verdict procedure. [`TqsOracle`] (ground truth) by default,
    /// [`PlanDiffOracle`] when `use_ground_truth` is off, or anything the
    /// builder's [`oracle`](TqsSessionBuilder::oracle) supplied.
    pub oracle: Box<dyn Oracle>,
    pub kqe: Kqe,
    /// The KQE-weighted walk, or the uniform walk when `use_kqe` is off
    /// (chosen when the session is built).
    pub source: StatementSource,
    pub cfg: TqsConfig,
    pub bugs: BugLog,
    dbms_name: String,
    dialect: ProfileId,
}

/// Builder for [`TqsSession`].
///
/// ```
/// use tqs_core::backend::{BuildSpec, EngineConnector, EngineKind};
/// use tqs_core::dsg::{DsgConfig, WideSource};
/// use tqs_core::tqs::{TqsConfig, TqsSession};
/// use tqs_engine::ProfileId;
/// use tqs_storage::widegen::ShoppingConfig;
///
/// let dsg_cfg = DsgConfig {
///     source: WideSource::Shopping(ShoppingConfig { n_rows: 100, ..Default::default() }),
///     ..Default::default()
/// };
/// let mut session = TqsSession::builder()
///     .connector(EngineConnector::open(EngineKind::Row, BuildSpec::Faulty, ProfileId::MysqlLike))
///     .dsg_config(&dsg_cfg)
///     .config(TqsConfig { iterations: 25, ..Default::default() })
///     .build()
///     .unwrap();
/// let stats = session.run();
/// assert!(stats.queries_generated >= 25);
/// ```
#[derive(Default)]
pub struct TqsSessionBuilder {
    profile: Option<ProfileId>,
    connector: Option<Box<dyn DbmsConnector>>,
    oracle: Option<Box<dyn Oracle>>,
    dsg: Option<DsgDatabase>,
    dsg_cfg: Option<DsgConfig>,
    cfg: TqsConfig,
}

impl TqsSessionBuilder {
    /// Target the faulty engine build of `profile` (ignored when an explicit
    /// [`connector`](Self::connector) is supplied).
    pub fn profile(mut self, profile: ProfileId) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Drive this backend instead of the default engine connector.
    pub fn connector(mut self, connector: impl DbmsConnector + 'static) -> Self {
        self.connector = Some(Box::new(connector));
        self
    }

    /// Judge every statement with this oracle instead of the default
    /// (ground-truth [`TqsOracle`], or [`PlanDiffOracle`] when
    /// `use_ground_truth` is off). This is how a session runs cross-engine
    /// differential testing: pass a
    /// [`DifferentialOracle`](crate::oracle::DifferentialOracle) owning the
    /// second engine build.
    pub fn oracle(mut self, oracle: impl Oracle + 'static) -> Self {
        self.oracle = Some(Box::new(oracle));
        self
    }

    /// Use an already-built DSG database (shared across sessions).
    pub fn dsg(mut self, dsg: DsgDatabase) -> Self {
        self.dsg = Some(dsg);
        self
    }

    /// Build the DSG database from this configuration at
    /// [`build`](Self::build) time.
    pub fn dsg_config(mut self, cfg: &DsgConfig) -> Self {
        self.dsg_cfg = Some(cfg.clone());
        self
    }

    pub fn config(mut self, cfg: TqsConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Assemble the session: build (or take) the DSG database, construct the
    /// connector if none was given, and load the catalog into it.
    pub fn build(self) -> Result<TqsSession, ConnectorError> {
        let dsg = Arc::new(match self.dsg {
            Some(d) => d,
            None => DsgDatabase::build(&self.dsg_cfg.unwrap_or_default()),
        });
        let mut connector = match self.connector {
            Some(c) => c,
            None => Box::new(EngineConnector::open(
                EngineKind::Row,
                BuildSpec::Faulty,
                self.profile.unwrap_or(ProfileId::MysqlLike),
            )),
        };
        connector.load_catalog(&dsg.db.catalog)?;
        let info = connector.info();
        let oracle: Box<dyn Oracle> = match self.oracle {
            Some(o) => o,
            None if self.cfg.use_ground_truth => Box::new(TqsOracle::shared(Arc::clone(&dsg))),
            None => Box::new(PlanDiffOracle::shared(Arc::clone(&dsg))),
        };
        let kqe = Kqe::new(dsg.schema_desc.clone(), self.cfg.kqe.clone());
        let generator = QueryGenerator::new(self.cfg.query_gen.clone());
        let source = if self.cfg.use_kqe {
            StatementSource::KqeWalk(generator)
        } else {
            StatementSource::UniformWalk(generator)
        };
        Ok(TqsSession {
            dsg,
            connector,
            oracle,
            kqe,
            source,
            cfg: self.cfg,
            bugs: BugLog::new(),
            dbms_name: info.name,
            dialect: info.dialect,
        })
    }
}

impl TqsSession {
    pub fn builder() -> TqsSessionBuilder {
        TqsSessionBuilder::default()
    }

    /// Name of the backend build under test.
    pub fn dbms_name(&self) -> &str {
        &self.dbms_name
    }

    /// Hint dialect of the backend build under test (cached at build time).
    pub fn dialect(&self) -> ProfileId {
        self.dialect
    }

    /// Run Algorithm 1 for the configured number of iterations.
    pub fn run(&mut self) -> RunStats {
        Driver {
            dsg: &self.dsg,
            conn: self.connector.as_mut(),
            oracle: self.oracle.as_mut(),
            source: &mut self.source,
            kqe: &mut self.kqe,
            bugs: &mut self.bugs,
            minimize: self.cfg.minimize,
        }
        .run(self.cfg.iterations, self.cfg.queries_per_hour)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsg::WideSource;
    use tqs_schema::NoiseConfig;
    use tqs_storage::widegen::ShoppingConfig;

    fn dsg_cfg(noise: bool) -> DsgConfig {
        DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 120,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: if noise {
                Some(NoiseConfig {
                    epsilon: 0.04,
                    seed: 9,
                    max_injections: 16,
                })
            } else {
                None
            },
        }
    }

    fn pristine(profile: ProfileId) -> EngineConnector {
        EngineConnector::open(EngineKind::Row, BuildSpec::Pristine, profile)
    }

    fn small_cfg() -> TqsConfig {
        TqsConfig {
            iterations: 40,
            queries_per_hour: 10,
            ..Default::default()
        }
    }

    #[test]
    fn pristine_engine_yields_no_bugs() {
        // Soundness: with no faults enabled, ground-truth verification must
        // never flag a bug — i.e. the GT evaluator and the engine agree.
        for profile in ProfileId::ALL {
            let mut session = TqsSession::builder()
                .connector(pristine(profile))
                .dsg_config(&dsg_cfg(true))
                .config(small_cfg())
                .build()
                .unwrap();
            let stats = session.run();
            assert_eq!(
                stats.bug_count, 0,
                "false positives on pristine {profile:?}: {:#?}",
                session.bugs.reports
            );
            assert!(stats.queries_executed > stats.queries_skipped);
        }
    }

    #[test]
    fn faulty_mysql_like_build_is_caught() {
        let mut session = TqsSession::builder()
            .profile(ProfileId::MysqlLike)
            .dsg_config(&dsg_cfg(true))
            .config(TqsConfig {
                iterations: 120,
                ..small_cfg()
            })
            .build()
            .unwrap();
        let stats = session.run();
        assert!(stats.bug_count > 0, "no bugs found on a faulty build");
        assert!(stats.bug_type_count >= 1);
        // every report carries a reproducer
        for r in &session.bugs.reports {
            assert!(r.transformed_sql.contains("SELECT"));
        }
    }

    #[test]
    fn minimized_representatives_still_fail() {
        let mut session = TqsSession::builder()
            .profile(ProfileId::MysqlLike)
            .dsg_config(&dsg_cfg(true))
            .config(TqsConfig {
                iterations: 60,
                minimize: true,
                ..small_cfg()
            })
            .build()
            .unwrap();
        session.run();
        assert!(!session.bugs.reports.is_empty());
        for r in &session.bugs.reports {
            let sql = r
                .minimized_sql
                .as_deref()
                .expect("every logged class is reduced");
            let stmt = tqs_sql::parser::parse_stmt(sql).unwrap();
            assert!(matches!(
                session.oracle.check(&stmt, session.connector.as_mut()),
                OracleVerdict::Bugs(_)
            ));
        }
    }

    #[test]
    fn timelines_are_monotone() {
        let mut session = TqsSession::builder()
            .profile(ProfileId::TidbLike)
            .dsg_config(&dsg_cfg(true))
            .config(TqsConfig {
                iterations: 60,
                ..small_cfg()
            })
            .build()
            .unwrap();
        let stats = session.run();
        for w in stats.diversity_timeline.windows(2) {
            assert!(w[0].value <= w[1].value);
        }
        for w in stats.bug_timeline.windows(2) {
            assert!(w[0].value <= w[1].value);
        }
        assert_eq!(stats.diversity, session.kqe.diversity());
    }

    #[test]
    fn kqe_improves_structure_diversity() {
        let dsg = DsgDatabase::build(&dsg_cfg(false));
        let run = |use_kqe: bool| {
            let mut session = TqsSession::builder()
                .connector(pristine(ProfileId::MysqlLike))
                .dsg(dsg.clone())
                .config(TqsConfig {
                    iterations: 150,
                    use_kqe,
                    query_gen: QueryGenConfig {
                        seed: 3,
                        ..Default::default()
                    },
                    ..small_cfg()
                })
                .build()
                .unwrap();
            session.run().diversity
        };
        let with_kqe = run(true);
        let without = run(false);
        assert!(
            with_kqe as f64 >= without as f64 * 0.9,
            "KQE diversity {with_kqe} should not collapse below uniform {without}"
        );
    }

    #[test]
    fn the_session_tool_label_comes_from_the_oracle() {
        let run = |use_gt: bool| {
            let mut session = TqsSession::builder()
                .connector(pristine(ProfileId::MysqlLike))
                .dsg_config(&dsg_cfg(false))
                .config(TqsConfig {
                    iterations: 5,
                    use_ground_truth: use_gt,
                    ..small_cfg()
                })
                .build()
                .unwrap();
            session.run().tool
        };
        assert_eq!(run(true), "TQS");
        assert_eq!(run(false), "TQS!GT");
    }

    #[test]
    fn a_custom_oracle_drives_the_session() {
        struct CountingOracle(usize);
        impl crate::oracle::Oracle for CountingOracle {
            fn name(&self) -> &str {
                "counting"
            }
            fn check(
                &mut self,
                _stmt: &tqs_sql::ast::SelectStmt,
                _conn: &mut dyn crate::backend::DbmsConnector,
            ) -> OracleVerdict {
                self.0 += 1;
                OracleVerdict::Pass
            }
        }
        let mut session = TqsSession::builder()
            .connector(pristine(ProfileId::MysqlLike))
            .dsg_config(&dsg_cfg(false))
            .config(TqsConfig {
                iterations: 12,
                ..small_cfg()
            })
            .oracle(CountingOracle(0))
            .build()
            .unwrap();
        let stats = session.run();
        assert_eq!(stats.tool, "counting");
        assert_eq!(stats.queries_executed, 12);
        assert_eq!(stats.queries_skipped, 0);
    }

    #[test]
    fn builder_defaults_to_the_faulty_mysql_like_engine() {
        let session = TqsSession::builder()
            .dsg_config(&dsg_cfg(false))
            .config(small_cfg())
            .build()
            .unwrap();
        assert_eq!(session.dbms_name(), "MySQL-like");
        assert_eq!(session.connector.info().dialect, ProfileId::MysqlLike);
    }

    #[test]
    fn session_and_baseline_entry_points_report_the_same_run() {
        // Same (source, oracle, seed) through both doors of the one loop: a
        // Figure 8 comparison is only meaningful if both sides count alike.
        use crate::baselines::{run_oracle_on, BaselineConfig};
        let dsg = DsgDatabase::build(&dsg_cfg(true));
        let (iterations, queries_per_hour, seed) = (80, 10, 17);
        let mut session = TqsSession::builder()
            .profile(ProfileId::TidbLike)
            .dsg(dsg.clone())
            .config(TqsConfig {
                iterations,
                queries_per_hour,
                use_kqe: false,
                query_gen: QueryGenConfig {
                    seed,
                    subquery_probability: 0.15,
                    ..Default::default()
                },
                ..Default::default()
            })
            .build()
            .unwrap();
        let via_session = session.run();
        let via_baseline = run_oracle_on(
            &mut TqsOracle::new(&dsg),
            None,
            &mut EngineKind::Row.faulty(ProfileId::TidbLike).loaded(&dsg),
            &dsg,
            &BaselineConfig {
                iterations,
                queries_per_hour,
                seed,
            },
        );
        assert!(via_session.bug_count > 0, "the comparison needs bugs");
        let counts = |s: &RunStats| (s.bug_count, s.bug_type_count, s.diversity);
        assert_eq!(counts(&via_session), counts(&via_baseline));
        let timelines = |s: &RunStats| -> Vec<(usize, usize)> {
            [&s.diversity_timeline, &s.bug_timeline, &s.bug_type_timeline]
                .into_iter()
                .flatten()
                .map(|p| (p.hour, p.value))
                .collect()
        };
        assert_eq!(timelines(&via_session), timelines(&via_baseline));
    }

    #[test]
    fn a_pre_stamped_report_keeps_its_plan_fingerprint() {
        // Two plans of one statement failing are two (structure, plan)
        // classes, as in the campaign — not one class per statement.
        struct TwoPlansFail;
        impl Oracle for TwoPlansFail {
            fn name(&self) -> &str {
                "two-plans"
            }
            fn check(&mut self, _: &SelectStmt, _: &mut dyn DbmsConnector) -> OracleVerdict {
                let report = |plan_fp| {
                    crate::bugs::BugReport {
                        dbms: "stub".into(),
                        oracle: crate::bugs::OracleKind::PlanSpace,
                        sql: String::new(),
                        transformed_sql: String::new(),
                        hint_label: "plan".into(),
                        expected_rows: 1,
                        observed_rows: 0,
                        fired: Vec::new(),
                        minimized_sql: None,
                        fingerprint: None,
                        keys: Default::default(),
                    }
                    .with_fingerprint(plan_fp)
                };
                OracleVerdict::Bugs(vec![report(0xA), report(0xB)])
            }
        }
        let mut session = TqsSession::builder()
            .connector(pristine(ProfileId::MysqlLike))
            .dsg_config(&dsg_cfg(false))
            .config(TqsConfig {
                iterations: 1,
                ..small_cfg()
            })
            .oracle(TwoPlansFail)
            .build()
            .unwrap();
        assert_eq!(session.run().bug_count, 2);
        // Both carry the same graph fingerprint folded in: it cancels out.
        let stamped: Vec<u64> = session
            .bugs
            .reports
            .iter()
            .map(|r| r.fingerprint.unwrap())
            .collect();
        assert_eq!(stamped[0] ^ stamped[1], 0xA ^ 0xB);
        assert_ne!(stamped, [0xA, 0xB], "the graph fingerprint was folded in");
    }
}
