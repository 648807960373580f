//! Cross-engine differential testing: hunt for logic bugs in the faulty
//! row-engine build by comparing every transformed query against the
//! *columnar* engine — no ground-truth machinery involved. The two engines
//! carry disjoint fault complements, so a pristine columnar build acts as a
//! reference; any divergence implicates the row engine's Table 4 faults, and
//! the oracle-driven minimizer shrinks a reproducer without knowing which
//! oracle produced it.
//!
//! Run with: `cargo run --example cross_engine_diff`

use tqs_core::backend::{BuildSpec, EngineConnector, EngineKind};
use tqs_core::bugs::minimize_with_oracle;
use tqs_core::dsg::{DsgConfig, DsgDatabase, QueryGenerator, UniformScorer, WideSource};
use tqs_core::oracle::{DifferentialOracle, Oracle, OracleVerdict};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_sql::render::render_stmt;
use tqs_storage::widegen::ShoppingConfig;

fn main() {
    let dsg = DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 200,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.03,
            seed: 7,
            max_injections: 24,
        }),
    });

    // The build under test: the faulty row engine.
    let mut conn = EngineConnector::open(EngineKind::Row, BuildSpec::Faulty, ProfileId::MysqlLike)
        .loaded(&dsg);
    // The reference: a pristine columnar build of the same dialect, loaded
    // with the same catalog, owned by the oracle.
    let mut oracle = DifferentialOracle::new(
        EngineConnector::open(
            EngineKind::Columnar,
            BuildSpec::Pristine,
            ProfileId::MysqlLike,
        )
        .loaded(&dsg),
    );
    println!("oracle: {}", oracle.name());

    let mut generator = QueryGenerator::new(Default::default());
    let mut found = 0;
    for i in 0..400 {
        let stmt = generator.generate(&dsg, None, &UniformScorer);
        let OracleVerdict::Bugs(reports) = oracle.check(&stmt, &mut conn) else {
            continue;
        };
        found += reports.len();
        let bug = &reports[0];
        println!(
            "\nquery #{i}: {} divergence(s), hint set `{}`, root cause {:?}",
            reports.len(),
            bug.hint_label,
            bug.fired
        );
        println!("  {}", render_stmt(&stmt));
        let minimized = minimize_with_oracle(&stmt, &mut oracle, &mut conn);
        println!("  minimized: {}", render_stmt(&minimized));
        if found >= 5 {
            break;
        }
    }
    println!("\n{found} cross-engine divergences found");
}
