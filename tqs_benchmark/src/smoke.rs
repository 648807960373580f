//! Smoke test: every workload at toy size, both ways, in seconds — and the
//! names the binary emits are the names `BENCHMARK.json` declares.

use crate::spec::{MetricSpec, RunConfig, Sizes, END_TO_END, PER_LAYER, WORKLOADS};
use tqs_telemetry::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(json: &Json, list: &str) -> Vec<(String, String, String)> {
    json.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{list}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn owned(spec: &[MetricSpec]) -> Vec<(String, String, String)> {
    spec.iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect()
}

#[test]
fn names_match_benchmark_json() {
    let json = benchmark_json();
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
    for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
        let word = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(
            word(name, "_.-") && name.len() <= 64,
            "metric name `{name}`"
        );
        assert!(word(unit, "_/%.-") && unit.len() <= 16, "unit `{unit}`");
        assert!(["lower", "higher"].contains(better), "better `{better}`");
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    names.extend(WORKLOADS);
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
}

#[test]
fn every_workload_runs_at_toy_size() {
    // Under the target directory, like a real run; the disk engine's page
    // stores follow through TMPDIR (no other test of this binary reads it).
    let work_dir = crate::work_dir().join(format!("smoke-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).unwrap();
    std::env::set_var("TMPDIR", &work_dir);
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = crate::run_workload(&RunConfig {
                workload: workload.to_string(),
                seed: 7,
                seconds: 1.0,
                trace,
                reps: Some(1),
                sizes: Sizes::TOY,
                work_dir: work_dir.clone(),
            });
            assert!(
                outcome.correct(),
                "{workload} trace={trace}: {:?} ({} of {} failed)",
                outcome.failures,
                outcome.failed,
                outcome.attempted
            );
            assert!(outcome.attempted >= 1);
            let spec: &[MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
            let emitted: Vec<MetricSpec> = outcome.metrics.iter().map(|(m, _)| *m).collect();
            assert_eq!(emitted, spec, "{workload} trace={trace}");
            assert!(outcome.metrics.iter().all(|(_, v)| v.is_finite()));
            if !trace {
                // End-to-end metrics are never 0.
                assert!(outcome.metrics.iter().all(|(_, v)| *v > 0.0), "{workload}");
                continue;
            }
            // The time budget sums: every span's self time, the driver's own
            // included, adds up to the traced wall.
            let get = |name: &str| {
                outcome
                    .metrics
                    .iter()
                    .find(|(m, _)| m.0 == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            assert!(get("driver.traced_wall_s") > 0.0);
            assert!(get("driver.other_s") <= get("driver.traced_wall_s"));
            let table =
                std::fs::read_to_string(work_dir.join(format!("layers-{workload}-7.txt"))).unwrap();
            let sum: f64 = table
                .lines()
                .last()
                .and_then(|l| l.split_whitespace().last())
                .and_then(|s| s.parse().ok())
                .expect("the table ends with the sum of self times");
            assert!(
                (sum - get("driver.traced_wall_s")).abs() < 1e-4,
                "{workload}: self times sum to {sum}, traced wall is {}",
                get("driver.traced_wall_s")
            );
            assert!(work_dir.join(format!("trace-{workload}-7.json")).exists());
        }
    }
    std::fs::remove_dir_all(&work_dir).unwrap();
}
