//! What a run hands back, and the small statistics it is built from.

use crate::spec::MetricSpec;
use std::collections::BTreeMap;
use tqs_telemetry::Json;

/// Result of one `--workload` run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the run's spec list, in spec order.
    pub metrics: Vec<(MetricSpec, f64)>,
    /// Checks that did not hold; the run is correct when there are none.
    pub failures: Vec<String>,
    /// What ran, for a reader of stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The one JSON object the driver reads from the last line of stdout.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::count(self.attempted as usize),
            ),
            ("failed".to_string(), Json::count(self.failed as usize)),
            (
                "metrics".to_string(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|((name, unit, _), value)| {
                            (
                                name.to_string(),
                                Json::Obj(vec![
                                    ("value".to_string(), Json::Num(*value)),
                                    ("unit".to_string(), Json::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Values by metric name while a run is assembled; `finish` lays them out in
/// spec order so every run reports exactly the spec's names (a layer the
/// workload never entered reads 0).
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn finish(self, spec: &[MetricSpec]) -> Vec<(MetricSpec, f64)> {
        for name in self.0.keys() {
            assert!(
                spec.iter().any(|(n, _, _)| n == name),
                "metric `{name}` is not in the spec"
            );
        }
        spec.iter().map(|m| (*m, self.get(m.0))).collect()
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Linear-interpolated quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(min(v), 1.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
