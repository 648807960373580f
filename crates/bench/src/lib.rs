//! Shared helpers for the `exp_*` binaries, one per table or figure of the
//! paper's evaluation (Tables 3–5, Figures 8–10). They print; timing with
//! warm-up, repetitions and paired seeds is `tqs_benchmark/`'s job.

use tqs_core::backend::{BuildSpec, EngineConnector, EngineKind};
use tqs_core::dsg::{DsgConfig, DsgDatabase, WideSource};
use tqs_core::tqs::{TqsConfig, TqsSession};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;

/// The standard testing database used across experiments: the shopping-order
/// wide table (the paper's running example) with 2–5% key noise.
pub fn standard_dsg(n_rows: usize, seed: u64) -> DsgConfig {
    DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows,
            seed,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: seed ^ 0xABCD,
            max_injections: 32,
        }),
    }
}

/// Build a TQS session against the *faulty* build of `profile`.
pub fn standard_session(profile: ProfileId, iterations: usize, seed: u64) -> TqsSession {
    TqsSession::builder()
        .connector(EngineConnector::open(
            EngineKind::Row,
            BuildSpec::Faulty,
            profile,
        ))
        .dsg(DsgDatabase::build(&standard_dsg(250, seed)))
        .config(TqsConfig {
            iterations,
            queries_per_hour: iterations.div_ceil(24),
            ..Default::default()
        })
        .build()
        .expect("engine connector accepts the standard catalog")
}

/// Iteration budget: `TQS_ITER` env var or the default.
pub fn budget(default: usize) -> usize {
    std::env::var("TQS_ITER")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_session_builds_for_every_profile() {
        for p in ProfileId::ALL {
            let s = standard_session(p, 5, 1);
            assert_eq!(s.connector.info().name, p.name());
        }
        assert_eq!(budget(42), 42);
    }
}
