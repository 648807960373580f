//! Baseline testing approaches (§5.2): PQS, TLP and NoRec, adapted to
//! multi-table queries the way the paper adapts SQLancer — queries and data
//! are random, no ground truth, no knowledge-guided exploration.
//!
//! The checking logic itself lives in [`crate::oracle`] ([`PqsOracle`],
//! [`TlpOracle`], [`NorecOracle`]) and the loop is the session's
//! (Algorithm 1 in [`crate::tqs`]); this module only picks each baseline's
//! [`StatementSource`] (PQS restricts itself to pivot-style point queries)
//! and oracle. All three baselines talk to the DBMS exclusively through
//! [`DbmsConnector`], so they run unchanged against any backend.

use crate::backend::{BuildSpec, DbmsConnector, EngineConnector, EngineKind};
use crate::bugs::BugLog;
use crate::dsg::{DsgDatabase, QueryGenConfig, QueryGenerator};
use crate::kqe::{Kqe, KqeConfig};
use crate::oracle::{NorecOracle, Oracle, PqsOracle, TlpOracle};
use crate::tqs::{Driver, RunStats, StatementSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tqs_engine::ProfileId;

/// Which baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    Pqs,
    Tlp,
    NoRec,
}

impl Baseline {
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Pqs => "PQS",
            Baseline::Tlp => "TLP",
            Baseline::NoRec => "NoRec",
        }
    }

    /// The [`Oracle`] implementing this baseline's check.
    pub fn oracle(self, dsg: &DsgDatabase) -> Box<dyn Oracle> {
        match self {
            Baseline::Pqs => Box::new(PqsOracle::new(dsg)),
            Baseline::Tlp => Box::new(TlpOracle),
            Baseline::NoRec => Box::new(NorecOracle),
        }
    }
}

/// Configuration shared by the baseline runners.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    pub iterations: usize,
    /// Queries per timeline "hour", as in [`crate::tqs::TqsConfig`].
    pub queries_per_hour: usize,
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            iterations: 300,
            queries_per_hour: 25,
            seed: 31,
        }
    }
}

/// Run a baseline against the faulty engine build of `profile` and collect
/// the same metrics as the TQS session (diversity = distinct isomorphic sets
/// of the generated query graphs; bugs = oracle violations, de-duplicated).
pub fn run_baseline(
    baseline: Baseline,
    profile: ProfileId,
    dsg: &DsgDatabase,
    cfg: &BaselineConfig,
) -> RunStats {
    let mut conn = EngineConnector::open(EngineKind::Row, BuildSpec::Faulty, profile).loaded(dsg);
    run_baseline_on(baseline, &mut conn, dsg, cfg)
}

/// Same as [`run_baseline`] but against an explicit connector (lets tests use
/// pristine builds, recording proxies, or entirely different backends). The
/// connector must already have the DSG catalog loaded — see
/// [`EngineConnector::loaded`] / [`DbmsConnector::load_catalog`].
pub(crate) fn run_baseline_on(
    baseline: Baseline,
    conn: &mut dyn DbmsConnector,
    dsg: &DsgDatabase,
    cfg: &BaselineConfig,
) -> RunStats {
    let mut oracle = baseline.oracle(dsg);
    run_oracle_on(oracle.as_mut(), Some(baseline), conn, dsg, cfg)
}

/// Drive *any* oracle through Algorithm 1 on a baseline's footing: no KQE
/// guidance, structural diversity tracked, bugs de-duplicated by the
/// session's keying rule. `baseline` only selects the statement source (PQS
/// uses pivot queries); pass `None` for the uniform random walk — this is how
/// a custom oracle (e.g. a cross-engine
/// [`crate::oracle::DifferentialOracle`]) is benchmarked on the same footing
/// as the shipped ones.
pub fn run_oracle_on(
    oracle: &mut dyn Oracle,
    baseline: Option<Baseline>,
    conn: &mut dyn DbmsConnector,
    dsg: &DsgDatabase,
    cfg: &BaselineConfig,
) -> RunStats {
    let mut source = match baseline {
        Some(Baseline::Pqs) => StatementSource::Pivot(StdRng::seed_from_u64(cfg.seed)),
        _ => StatementSource::UniformWalk(QueryGenerator::new(QueryGenConfig {
            seed: cfg.seed,
            // baselines do not bias towards joins as aggressively
            subquery_probability: 0.15,
        })),
    };
    Driver {
        dsg,
        conn,
        oracle,
        source: &mut source,
        kqe: &mut Kqe::new(dsg.schema_desc.clone(), KqeConfig::default()),
        bugs: &mut BugLog::new(),
        minimize: false,
    }
    .run(cfg.iterations, cfg.queries_per_hour)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RecordingConnector;
    use crate::dsg::{DsgConfig, WideSource};
    use tqs_schema::NoiseConfig;
    use tqs_storage::widegen::ShoppingConfig;

    fn dsg() -> DsgDatabase {
        DsgDatabase::build(&DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 100,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: Some(NoiseConfig {
                epsilon: 0.03,
                seed: 4,
                max_injections: 10,
            }),
        })
    }

    fn cfg() -> BaselineConfig {
        BaselineConfig {
            iterations: 30,
            queries_per_hour: 10,
            seed: 7,
        }
    }

    #[test]
    fn baselines_produce_no_false_positives_on_pristine_engines() {
        let d = dsg();
        for b in [Baseline::Pqs, Baseline::Tlp, Baseline::NoRec] {
            let mut conn = EngineKind::Row.connect_pristine(ProfileId::MysqlLike, &d);
            let stats = run_baseline_on(b, &mut conn, &d, &cfg());
            assert_eq!(stats.bug_count, 0, "{b:?} reported false positives");
            assert_eq!(stats.queries_generated, 30);
            assert!(!stats.diversity_timeline.is_empty());
        }
    }

    #[test]
    fn norec_catches_plan_dependent_faults() {
        let d = dsg();
        let stats = run_baseline(
            Baseline::NoRec,
            ProfileId::XdbLike,
            &d,
            &BaselineConfig {
                iterations: 120,
                ..cfg()
            },
        );
        // NoRec compares an optimized vs de-optimized execution, so it can
        // catch some plan-dependent faults, but it has no ground truth.
        assert!(stats.bug_count <= 120);
    }

    #[test]
    fn pqs_diversity_is_low() {
        let d = dsg();
        let pqs = run_baseline(Baseline::Pqs, ProfileId::MysqlLike, &d, &cfg());
        // pivot queries all share one single-table structure
        assert!(pqs.diversity <= 3, "got {}", pqs.diversity);
        assert_eq!(pqs.tool, "PQS");
    }

    #[test]
    fn baselines_run_through_a_recording_proxy() {
        let d = dsg();
        let mut conn = RecordingConnector::new(EngineConnector::open(
            EngineKind::Row,
            BuildSpec::Pristine,
            ProfileId::TidbLike,
        ));
        conn.load_catalog(&d.db.catalog).unwrap();
        let stats = run_baseline_on(Baseline::NoRec, &mut conn, &d, &cfg());
        assert_eq!(stats.dbms, "TiDB-like");
        // one load + at least two statements per executed query
        assert!(
            conn.trace().len() > stats.queries_executed,
            "{}",
            conn.trace().len()
        );
    }

    #[test]
    fn baseline_names() {
        assert_eq!(Baseline::Pqs.name(), "PQS");
        assert_eq!(Baseline::Tlp.name(), "TLP");
        assert_eq!(Baseline::NoRec.name(), "NoRec");
        let d = dsg();
        for b in [Baseline::Pqs, Baseline::Tlp, Baseline::NoRec] {
            assert_eq!(b.oracle(&d).name(), b.name());
        }
    }

    #[test]
    fn any_oracle_runs_through_the_metric_loop() {
        // The runner is oracle-agnostic: the full TQS oracle benchmarks on
        // the same footing as the baselines.
        let d = dsg();
        let mut oracle = crate::oracle::TqsOracle::new(&d);
        let mut conn = EngineKind::Row.faulty(ProfileId::MysqlLike).loaded(&d);
        let stats = run_oracle_on(
            &mut oracle,
            None,
            &mut conn,
            &d,
            &BaselineConfig {
                iterations: 60,
                ..cfg()
            },
        );
        assert_eq!(stats.tool, "TQS");
        assert!(stats.bug_count > 0, "TQS through the runner found nothing");
    }
}
