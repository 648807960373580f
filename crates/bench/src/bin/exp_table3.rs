//! Table 3: the tested DBMS inventory (here: the four simulated profiles and
//! their metadata), plus the registered test oracles reported through the
//! `Oracle` trait.

use tqs_bench::standard_dsg;
use tqs_core::backend::{BuildSpec, EngineConnector, EngineKind};
use tqs_core::dsg::DsgDatabase;
use tqs_core::oracle::{
    DifferentialOracle, NorecOracle, Oracle, PlanDiffOracle, PqsOracle, TlpOracle, TqsOracle,
};
use tqs_engine::{DbmsProfile, ProfileId};

fn main() {
    println!("Table 3 — tested (simulated) DBMS profiles");
    println!(
        "{:<14} {:<16} {:>10} {:>14} {:>12} {:>8} {:>14}",
        "DBMS", "Version", "DB-Engines", "StackOverflow", "GitHub stars", "LOC", "First release"
    );
    for id in ProfileId::ALL {
        let p = DbmsProfile::build(id);
        println!(
            "{:<14} {:<16} {:>10} {:>14} {:>12} {:>8} {:>14}",
            p.info.name,
            p.info.version,
            p.info
                .db_engines_rank
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".into()),
            p.info
                .stack_overflow_rank
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".into()),
            p.info.github_stars.unwrap_or("-"),
            p.info.loc,
            p.info.first_release
        );
    }

    // The oracle inventory, each named through the `Oracle` trait.
    let dsg = DsgDatabase::build(&standard_dsg(40, 3));
    let oracles: Vec<Box<dyn Oracle>> = vec![
        Box::new(TqsOracle::new(&dsg)),
        Box::new(PlanDiffOracle::new(&dsg)),
        Box::new(PqsOracle::new(&dsg)),
        Box::new(TlpOracle),
        Box::new(NorecOracle),
        Box::new(DifferentialOracle::new(
            EngineConnector::open(
                EngineKind::Columnar,
                BuildSpec::Pristine,
                ProfileId::MysqlLike,
            )
            .loaded(&dsg),
        )),
    ];
    let names: Vec<&str> = oracles.iter().map(|o| o.name()).collect();
    println!("\nregistered oracles: {}", names.join(", "));
}
