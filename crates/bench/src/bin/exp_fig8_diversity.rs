//! Figure 8(a–d): query-graph diversity (distinct isomorphic sets) over the
//! testing budget, TQS vs the SQLancer baselines, per DBMS.

use tqs_bench::{budget, standard_dsg, standard_session};
use tqs_core::baselines::{run_baseline, Baseline, BaselineConfig};
use tqs_core::dsg::DsgDatabase;
use tqs_engine::ProfileId;

fn main() {
    let iterations = budget(400);
    // the paper pairs each DBMS with the baselines SQLancer supports there
    let pairs = [
        (ProfileId::MysqlLike, vec![Baseline::Pqs, Baseline::Tlp]),
        (ProfileId::MariadbLike, vec![Baseline::NoRec]),
        (ProfileId::TidbLike, vec![Baseline::Tlp]),
        (ProfileId::XdbLike, vec![Baseline::Pqs, Baseline::Tlp]),
    ];
    for (profile, baselines) in pairs {
        println!("== Figure 8 diversity — {} ==", profile.name());
        let mut session = standard_session(profile, iterations, 88);
        let tqs = session.run();
        print_series("TQS", &tqs.diversity_timeline);
        let dsg = DsgDatabase::build(&standard_dsg(250, 88));
        for b in baselines {
            let stats = run_baseline(
                b,
                profile,
                &dsg,
                &BaselineConfig {
                    iterations,
                    queries_per_hour: iterations.div_ceil(24),
                    ..Default::default()
                },
            );
            print_series(b.name(), &stats.diversity_timeline);
        }
        println!();
    }
}

fn print_series(label: &str, series: &[tqs_core::tqs::TimelinePoint]) {
    let pts: Vec<String> = series
        .iter()
        .map(|p| format!("{}:{}", p.hour, p.value))
        .collect();
    println!("{:<6} {}", label, pts.join(" "));
}
