//! Observability experiment: what does full telemetry cost, and what does
//! it see? Runs the `tqs_bench::WORKLOADS` statement mix twice — telemetry off,
//! then on (spans + metrics + per-query profiles) — over the row and
//! columnar engines, reports the overhead per workload and overall, dumps
//! the metrics snapshot into `BENCH_obs.json`, and exports a Chrome-trace
//! JSON of the instrumented pass (open it in Perfetto / `chrome://tracing`).
//!
//! Exits non-zero if the overall overhead exceeds the gate — the hot path
//! stays allocation-free and near-zero-cost when telemetry is disabled, and
//! cheap enough to leave on when it isn't.
//!
//! Environment knobs:
//!
//! * `TQS_OBS_ITERS` — iterations per workload per pass (default 120)
//! * `TQS_OBS_MAX_OVERHEAD_PCT` — overhead gate in percent (default 5.0)
//! * `TQS_OBS_OUT` — output JSON path (default `BENCH_obs.json`)
//! * `TQS_OBS_TRACE` — Chrome-trace output path (default
//!   `BENCH_obs_trace.json`; empty string disables the export)

use std::time::Instant;
use tqs_bench::{env_usize, standard_dsg, WORKLOADS};
use tqs_campaign::Json;
use tqs_core::dsg::DsgDatabase;
use tqs_engine::{ColumnarDatabase, Database, DbmsProfile, Engine, ProfileId};

/// One timed pass over every workload; returns (total seconds, per-workload
/// seconds in `WORKLOADS` order).
fn pass(row_db: &mut Database, col_db: &mut ColumnarDatabase, iters: usize) -> (f64, Vec<f64>) {
    let mut per_workload = Vec::with_capacity(WORKLOADS.len());
    let mut total = 0f64;
    for (name, sql) in WORKLOADS {
        let started = Instant::now();
        for _ in 0..iters {
            row_db
                .execute_sql(sql)
                .unwrap_or_else(|e| panic!("row workload failed: {name}: {e}"));
            col_db
                .execute_sql(sql)
                .unwrap_or_else(|e| panic!("columnar workload failed: {name}: {e}"));
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        per_workload.push(secs);
        total += secs;
    }
    (total, per_workload)
}

fn overhead_pct(off_secs: f64, on_secs: f64) -> f64 {
    (on_secs / off_secs.max(1e-9) - 1.0) * 100.0
}

fn main() {
    let iters = env_usize("TQS_OBS_ITERS", 120);
    let max_overhead: f64 = std::env::var("TQS_OBS_MAX_OVERHEAD_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let out_path = std::env::var("TQS_OBS_OUT").unwrap_or_else(|_| "BENCH_obs.json".to_string());
    let trace_path =
        std::env::var("TQS_OBS_TRACE").unwrap_or_else(|_| "BENCH_obs_trace.json".to_string());

    let shards = DsgDatabase::build_sharded(&standard_dsg(240, 77), 2);
    let catalog = shards[0].db.catalog.clone();
    let mut row_db = Database::new(catalog.clone(), DbmsProfile::build(ProfileId::MysqlLike));
    let mut col_db = ColumnarDatabase::new(catalog, DbmsProfile::columnar(ProfileId::MysqlLike));

    println!(
        "Telemetry overhead — {iters} iterations per workload per pass, \
         gate {max_overhead:.1}%\n"
    );

    // Warm both paths (page in the data, settle the allocator) before
    // anything is timed.
    tqs_telemetry::set_enabled(false);
    pass(&mut row_db, &mut col_db, iters.div_ceil(10));

    let (off_total, off_per) = pass(&mut row_db, &mut col_db, iters);

    tqs_telemetry::set_enabled(true);
    tqs_telemetry::reset_metrics();
    let (on_total, on_per) = pass(&mut row_db, &mut col_db, iters);
    let snapshot = tqs_telemetry::snapshot_metrics();
    let events = tqs_telemetry::take_events();
    tqs_telemetry::set_enabled(false);

    let mut members = Vec::new();
    println!(
        "{:<18} {:>14} {:>14} {:>10}",
        "workload", "off stmts/sec", "on stmts/sec", "overhead"
    );
    // Each iteration executes the statement on both engines.
    let stmts = (iters * 2) as f64;
    for (i, (name, _)) in WORKLOADS.iter().enumerate() {
        let (off, on) = (stmts / off_per[i], stmts / on_per[i]);
        let pct = overhead_pct(off_per[i], on_per[i]);
        println!("{name:<18} {off:>14.1} {on:>14.1} {pct:>9.2}%");
        members.push((format!("{name}_off_per_sec"), Json::Num(off)));
        members.push((format!("{name}_on_per_sec"), Json::Num(on)));
        members.push((format!("{name}_overhead_pct"), Json::Num(pct)));
    }
    let total_stmts = stmts * WORKLOADS.len() as f64;
    let overall = overhead_pct(off_total, on_total);
    println!(
        "{:<18} {:>14.1} {:>14.1} {:>9.2}%",
        "OVERALL",
        total_stmts / off_total,
        total_stmts / on_total,
        overall
    );
    members.push((
        "overall_off_per_sec".to_string(),
        Json::Num(total_stmts / off_total),
    ));
    members.push((
        "overall_on_per_sec".to_string(),
        Json::Num(total_stmts / on_total),
    ));
    members.push(("overall_overhead_pct".to_string(), Json::Num(overall)));
    members.push(("max_overhead_pct".to_string(), Json::Num(max_overhead)));
    members.push(("iters".to_string(), Json::count(iters)));
    members.push(("trace_events".to_string(), Json::count(events.len())));
    members.push((
        "trace_events_dropped".to_string(),
        Json::count(tqs_telemetry::dropped_events()),
    ));
    members.push(("metrics".to_string(), snapshot.to_json()));

    let body = Json::Obj(members).to_string();
    std::fs::write(&out_path, format!("{body}\n")).expect("write benchmark artifact");
    println!("\nwrote {out_path} ({} metrics counters)", {
        let mut n = 0;
        if let Some(Json::Obj(counters)) = snapshot.to_json().get("counters").cloned() {
            n = counters.len();
        }
        n
    });

    if !trace_path.is_empty() {
        let trace = tqs_telemetry::trace::render_chrome_trace(&events);
        std::fs::write(&trace_path, trace).expect("write trace artifact");
        println!(
            "wrote {trace_path} ({} events — open in Perfetto or chrome://tracing)",
            events.len()
        );
    }

    if overall > max_overhead {
        eprintln!("FAIL: telemetry overhead {overall:.2}% exceeds the {max_overhead:.1}% gate");
        std::process::exit(1);
    }
    println!("overhead gate passed: {overall:.2}% <= {max_overhead:.1}%");
}
