//! Per-query operator profiles: row counts and timings per physical
//! operator, collected by the engines while telemetry is enabled and
//! surfaced through `DbmsConnector::query_profile` next to EXPLAIN.
//!
//! EXPLAIN answers "what plan would run"; the profile answers "what did the
//! last execution actually do" — rows in/out and nanoseconds per join,
//! filter and group operator, the introspection the paper's plan-level
//! divergence attribution leans on.

use crate::json::Json;

/// One operator's contribution to a statement execution, in pipeline order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator label, e.g. `scan`, `join.hash`, `filter`, `group`.
    pub op: String,
    /// Rows entering the operator (left + right for joins).
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Wall-clock nanoseconds spent in the operator.
    pub ns: u64,
}

/// Operator-level profile of one executed statement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryProfile {
    pub ops: Vec<OpProfile>,
}

impl QueryProfile {
    pub fn new() -> QueryProfile {
        QueryProfile::default()
    }

    pub fn push(&mut self, op: impl Into<String>, rows_in: u64, rows_out: u64, ns: u64) {
        self.ops.push(OpProfile {
            op: op.into(),
            rows_in,
            rows_out,
            ns,
        });
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.ops
                .iter()
                .map(|o| {
                    Json::Obj(vec![
                        ("op".to_string(), Json::str(o.op.clone())),
                        ("rows_in".to_string(), Json::count(o.rows_in as usize)),
                        ("rows_out".to_string(), Json::count(o.rows_out as usize)),
                        ("ns".to_string(), Json::count(o.ns as usize)),
                    ])
                })
                .collect(),
        )
    }

    /// EXPLAIN ANALYZE-style rendering, one operator per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.ops {
            out.push_str(&format!(
                "{:<12} rows_in={:<8} rows_out={:<8} ns={}\n",
                o.op, o.rows_in, o.rows_out, o.ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_accumulates_and_serializes() {
        let mut p = QueryProfile::new();
        p.push("scan", 0, 240, 1_000);
        p.push("join.hash", 480, 300, 25_000);
        p.push("project", 300, 300, 2_000);
        let j = Json::parse(&p.to_json().to_string()).unwrap();
        let arr = j.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("op").and_then(Json::as_str), Some("join.hash"));
        assert_eq!(arr[1].get("rows_in").and_then(Json::as_usize), Some(480));
        assert!(p.render().contains("join.hash"));
    }
}
