//! # tqs-core
//!
//! The TQS framework (Transformed Query Synthesis) — detection of logic bugs
//! in join optimization, reproduced from the SIGMOD 2023 paper:
//!
//! * [`backend`] — the [`backend::DbmsConnector`] boundary between the
//!   harness and the DBMS it drives, with the in-process engine connector
//!   (row, columnar or disk executor), a recording proxy and a
//!   replay-from-log backend.
//! * [`oracle`] — the pluggable [`oracle::Oracle`] layer: ground truth,
//!   plan-differential, the PQS/TLP/NoRec baselines and cross-engine
//!   differential testing as uniform, composable checkers.
//! * [`conformance`] — the behavioral contract every connector must pass.
//! * [`dsg`] — Data-guided Schema and query Generation: the data pipeline
//!   (wide table → FDs → 3NF schema → noise → bitmap machinery) and the
//!   random-walk join query generator.
//! * [`kqe`] — Knowledge-guided Query space Exploration: the graph index over
//!   explored query graphs and the coverage-based adaptive walk weighting.
//! * [`hintgen`] — hint-set generation (transformed queries per DBMS profile).
//! * [`tqs`] — the orchestrator: the one Algorithm 1 loop, its statement
//!   sources and the Table 5 ablation switches, built through
//!   [`tqs::TqsSession::builder`].
//! * [`bugs`] — bug reports, the deduplicating bug log and the test-case
//!   minimizer.
//! * [`baselines`] — PQS / TLP / NoRec adapted to multi-table queries, run
//!   through the same loop.
//!
//! ## Quick start
//!
//! ```
//! use tqs_core::backend::{BuildSpec, EngineConnector, EngineKind};
//! use tqs_core::dsg::{DsgConfig, WideSource};
//! use tqs_core::tqs::{TqsConfig, TqsSession};
//! use tqs_engine::ProfileId;
//! use tqs_storage::widegen::ShoppingConfig;
//!
//! let dsg_cfg = DsgConfig {
//!     source: WideSource::Shopping(ShoppingConfig { n_rows: 100, ..Default::default() }),
//!     ..Default::default()
//! };
//! let mut session = TqsSession::builder()
//!     .connector(EngineConnector::open(EngineKind::Row, BuildSpec::Faulty, ProfileId::MysqlLike))
//!     .dsg_config(&dsg_cfg)
//!     .config(TqsConfig { iterations: 25, ..Default::default() })
//!     .build()
//!     .expect("catalog loads into the engine connector");
//! let stats = session.run();
//! assert!(stats.queries_generated >= 25);
//! ```
//!
//! Any backend goes where `EngineConnector` stands: implement
//! [`backend::DbmsConnector`] (see the README's "Writing a new connector"),
//! validate it with [`conformance::assert_connector_conformance`], and every
//! entry point — the orchestrator, the three baselines, the campaign fleet
//! of `tqs-campaign` and the bug minimizer — drives it unchanged.

pub mod backend;
pub mod baselines;
pub mod bugs;
pub mod conformance;
pub mod dsg;
pub mod hintgen;
pub mod kqe;
pub mod mutation;
pub mod oracle;
pub mod tqs;

pub use backend::{
    ConnectorError, ConnectorInfo, DbmsConnector, EngineConnector, RecordingConnector,
    ReplayConnector, SqlOutcome, TraceEvent,
};
pub use baselines::{run_baseline, run_baseline_on, run_oracle_on, Baseline, BaselineConfig};
pub use bugs::{minimize_query, minimize_with_oracle, BugLog, BugReport, OracleKind};
pub use conformance::{assert_connector_conformance, assert_dml_conformance};
pub use dsg::{DsgConfig, DsgDatabase, QueryGenConfig, QueryGenerator, UniformScorer, WideSource};
pub use hintgen::hint_sets_for;
pub use kqe::{Kqe, KqeConfig, KqeScorer};
pub use mutation::{DmlGenConfig, DmlGenerator, DmlOracle, MutationGroundTruth, DML_VERIFY_LABEL};
pub use oracle::{
    DifferentialOracle, NorecOracle, Oracle, OracleVerdict, PlanDiffOracle, PlanSpaceOracle,
    PqsOracle, TlpOracle, TqsOracle, PLAN_BASELINE_LABEL,
};
pub use tqs::{RunStats, StatementSource, TimelinePoint, TqsConfig, TqsSession, TqsSessionBuilder};
