//! The `hunt` workload: the product as users run it.
//!
//! End to end it is `Campaign::new(cfg)?.run()` on faulty builds, a fresh
//! directory per repetition. The traced run cannot see inside `run`, so it
//! drives a single-threaded replica of the campaign's cell loop built only
//! from public pieces, with a span around each call into a layer, and
//! cross-checks the replica's counts against the real run of the same
//! configuration.

use crate::conn::{ConnStats, Layer, Metered};
use crate::pools;
use crate::pristine::{engine_values, registry_values, with_registry, write_trace_artifacts};
use crate::report::{self, Outcome, Values};
use crate::spec::{self, RunConfig, END_TO_END, PER_LAYER};
use crate::trace::{layer_times, Tracer};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tqs_campaign::{
    BugTriage, Campaign, CampaignCell, CampaignConfig, CampaignStats, CellRecord, Checkpoint,
    CheckpointHeader, Corpus, CorpusEntry, EngineKind, OracleSpec, PlanMode, StoredStatement,
    Workload,
};
use tqs_core::backend::{DbmsConnector, RecordingConnector, TraceEvent};
use tqs_core::bugs::minimize_with_oracle;
use tqs_core::dsg::{DsgDatabase, QueryGenConfig, QueryGenerator};
use tqs_core::kqe::{Kqe, KqeConfig, KqeScorer};
use tqs_core::oracle::{DifferentialOracle, Oracle, OracleVerdict, TqsOracle};
use tqs_engine::{FaultKind, ProfileId};
use tqs_graph::plangraph::{graph_fingerprint, query_graph_with_subqueries};
use tqs_graph::{embed_graph, GraphIndex};
use tqs_sql::ast::SelectStmt;
use tqs_sql::render::render_stmt;

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A campaign directory nobody has used yet, under the run's work directory.
fn fresh_dir(cfg: &RunConfig, tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = cfg
        .work_dir
        .join(format!("hunt-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The hunt grid: shards x MysqlLike x {GroundTruth, ThreeWay} x {Row,
/// Columnar, Disk} x Single x Select, minimizer on, default supervisor.
fn campaign_config(cfg: &RunConfig, dir: PathBuf) -> CampaignConfig {
    CampaignConfig {
        dir,
        dsg: pools::dsg_config(cfg.sizes.hunt_rows, cfg.seed),
        shards: cfg.sizes.hunt_shards,
        workers: spec::HUNT_WORKERS,
        profiles: vec![ProfileId::MysqlLike],
        oracles: vec![OracleSpec::GroundTruth, OracleSpec::ThreeWay],
        engines: EngineKind::ALL.to_vec(),
        plan_modes: vec![PlanMode::Single],
        workloads: vec![Workload::Select],
        queries_per_cell: cfg.sizes.hunt_queries_per_cell,
        seed: spec::SHAPE_SEED_HUNT,
        minimize: true,
        max_cells_per_run: None,
        supervisor: Default::default(),
    }
}

/// One real campaign, start to finish.
struct RealRun {
    setup_s: f64,
    wall_s: f64,
    stats: CampaignStats,
    cells: Vec<CellRecord>,
    class_keys: BTreeSet<String>,
    fault_kinds: BTreeSet<FaultKind>,
    corpus_bytes: u64,
}

fn real_run(cfg: &RunConfig, failures: &mut Vec<String>) -> io::Result<RealRun> {
    let dir = fresh_dir(cfg, "run");
    let t0 = Instant::now();
    let mut campaign = Campaign::new(campaign_config(cfg, dir.clone()))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let stats = campaign.run()?;
    let wall_s = t0.elapsed().as_secs_f64();

    if !campaign.is_complete() || !campaign.quarantined().is_empty() || stats.panics_caught > 0 {
        failures.push(format!(
            "campaign did not drain cleanly: {}/{} cells, {} quarantined, {} panics",
            stats.cells_done,
            stats.cells_total,
            campaign.quarantined().len(),
            stats.panics_caught
        ));
    }
    let mut cells = Checkpoint::in_dir(&dir).load()?.cells;
    cells.sort_by_key(|c| c.cell_id);
    let class_keys = campaign.class_keys();
    // The persisted corpus must reload to the class set held in memory.
    let reloaded: BTreeSet<String> = Corpus::in_dir(&dir)
        .load()?
        .into_iter()
        .map(|e| e.class_key)
        .collect();
    if reloaded != class_keys {
        failures.push(format!(
            "corpus reloads {} classes, triage holds {}",
            reloaded.len(),
            class_keys.len()
        ));
    }
    let fault_kinds = campaign
        .triage()
        .classes()
        .iter()
        .flat_map(|c| c.representative.fired.iter().copied())
        .collect();
    let corpus_bytes = std::fs::metadata(campaign.corpus().path())
        .map(|m| m.len())
        .unwrap_or(0);
    drop(campaign);
    std::fs::remove_dir_all(&dir)?;
    Ok(RealRun {
        setup_s,
        wall_s,
        stats,
        cells,
        class_keys,
        fault_kinds,
        corpus_bytes,
    })
}

/// Checks on one real run, and between it and the first one.
fn verify_run(cfg: &RunConfig, run: &RealRun, first: &RealRun, failures: &mut Vec<String>) {
    if run.fault_kinds.len() < cfg.sizes.hunt_min_fault_kinds {
        failures.push(format!(
            "hunt found {} distinct seeded fault kinds, fewer than {}",
            run.fault_kinds.len(),
            cfg.sizes.hunt_min_fault_kinds
        ));
    }
    let counts = |r: &RealRun| {
        (
            r.stats.queries,
            r.stats.raw_reports,
            r.stats.bug_classes,
            r.fault_kinds.len(),
        )
    };
    if counts(run) != counts(first) || run.class_keys != first.class_keys {
        failures.push(format!(
            "repetitions disagree: (queries, raw reports, classes, fault kinds) {:?} vs {:?}",
            counts(run),
            counts(first)
        ));
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let result = if cfg.trace {
        run_traced(cfg)
    } else {
        run_end_to_end(cfg)
    };
    result.unwrap_or_else(|e| Outcome {
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        failures: vec![format!("hunt: io error: {e}")],
        notes: Vec::new(),
    })
}

/// Tracing off: one warm-up campaign, then campaigns until `--seconds` is
/// used up. Every campaign's `Campaign::new` is a set-up sample.
fn run_end_to_end(cfg: &RunConfig) -> io::Result<Outcome> {
    let mut failures = Vec::new();
    let warm_up = real_run(cfg, &mut failures)?;
    let mut setup_s = vec![warm_up.setup_s];
    let mut runs = Vec::new();
    let started = Instant::now();
    let mut slowest = warm_up.setup_s + warm_up.wall_s;
    while cfg.fits(runs.len(), started.elapsed().as_secs_f64(), slowest) {
        let run = real_run(cfg, &mut failures)?;
        slowest = slowest.max(run.setup_s + run.wall_s);
        setup_s.push(run.setup_s);
        runs.push(run);
    }
    while setup_s.len() < cfg.sizes.setup_repeats {
        let dir = fresh_dir(cfg, "setup");
        let t0 = Instant::now();
        let campaign = Campaign::new(campaign_config(cfg, dir.clone()))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(campaign);
        std::fs::remove_dir_all(&dir)?;
    }
    verify_run(cfg, &warm_up, &warm_up, &mut failures);
    for run in &runs {
        verify_run(cfg, run, &warm_up, &mut failures);
    }

    // The best wall over the repetitions, and per cell the best elapsed
    // time: interference from the rest of the box only ever adds.
    let best = runs
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one timed campaign");
    let cell_ms: Vec<u64> = (0..best.cells.len())
        .map(|i| {
            runs.iter()
                .map(|r| r.cells[i].elapsed_ms)
                .min()
                .expect("at least one timed campaign")
        })
        .collect();
    let per_query_ms: Vec<f64> = cell_ms
        .iter()
        .zip(&best.cells)
        .filter(|(_, c)| c.queries > 0)
        .map(|(ms, c)| *ms as f64 / c.queries as f64)
        .collect();

    let mut v = Values::default();
    v.set("setup_s", report::median(&setup_s));
    v.set("queries_per_s", best.stats.queries as f64 / best.wall_s);
    v.set(
        "statements_per_s",
        best.stats.statements as f64 / best.wall_s,
    );
    v.set("check_ms_p50", report::quantile(&per_query_ms, 0.5));

    let generated = (best.stats.cells_total * cfg.sizes.hunt_queries_per_cell) as u64;
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let statements: Vec<usize> = runs.iter().map(|r| r.stats.statements).collect();
    let notes = vec![format!(
        "hunt: {} campaigns of {} cells x {} queries, wall min/median/max {:.3}/{:.3}/{:.3} s; \
         {} queries, statements {:?}, {} raw reports, {} classes, {} fault kinds, corpus {:.2} MB; \
         best ms per cell {:?}",
        runs.len(),
        best.stats.cells_total,
        cfg.sizes.hunt_queries_per_cell,
        report::min(walls.iter().copied()),
        report::median(&walls),
        report::quantile(&walls, 1.0),
        best.stats.queries,
        statements,
        best.stats.raw_reports,
        best.stats.bug_classes,
        best.fault_kinds.len(),
        best.corpus_bytes as f64 / 1e6,
        cell_ms
    )];
    Ok(Outcome {
        attempted: generated * runs.len() as u64,
        // A generated statement the oracle could not exercise is a skip.
        failed: runs
            .iter()
            .map(|r| generated - r.stats.queries as u64)
            .sum(),
        metrics: v.finish(&END_TO_END),
        failures,
        notes,
    })
}

/// What a replica pass counted.
#[derive(Debug, Default, Clone, PartialEq)]
struct ReplicaCounts {
    generated: usize,
    queries: usize,
    statements: usize,
    raw_reports: usize,
    pass: usize,
    skip: usize,
    bugs: usize,
    admitted: usize,
    duplicates: usize,
    bug_classes: usize,
    isomorphic_sets: usize,
    minimizer_calls: usize,
    minimizer_checks: usize,
    original_chars: usize,
    minimized_chars: usize,
    corpus_bytes: u64,
    corpus_entries_loaded: usize,
    /// Decorator totals per engine under test, and of all panel references.
    engines: [ConnStats; 3],
    reference: ConnStats,
}

impl ReplicaCounts {
    /// The counts alone (they repeat exactly), times zeroed.
    fn exact(&self) -> ReplicaCounts {
        let counts = |c: &ConnStats| ConnStats {
            exec_ns: 0,
            dml_exec_ns: 0,
            load_ns: 0,
            ..*c
        };
        ReplicaCounts {
            engines: [
                counts(&self.engines[0]),
                counts(&self.engines[1]),
                counts(&self.engines[2]),
            ],
            reference: counts(&self.reference),
            ..self.clone()
        }
    }
}

fn count_statements(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Statement { .. }))
        .count()
}

/// The oracle handed to the minimizer: counts its checks and keeps them
/// apart from the hunting checks in the trace.
struct MinimizerOracle<'a> {
    inner: &'a mut dyn Oracle,
    checks: &'a mut usize,
    tracer: &'a Tracer,
}

impl Oracle for MinimizerOracle<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn check(&mut self, stmt: &SelectStmt, conn: &mut dyn DbmsConnector) -> OracleVerdict {
        *self.checks += 1;
        let _span = self.tracer.span("core.minimizer.check");
        self.inner.check(stmt, conn)
    }
}

/// The verdict procedure of a hunt cell, as `Campaign::run` builds it: the
/// ground-truth oracle, or a three-way panel of pristine builds of the two
/// other engines.
fn build_oracle(
    cell: &CampaignCell,
    shard: &Arc<DsgDatabase>,
    tracer: &Tracer,
    references: &mut Vec<crate::conn::StatsHandle>,
) -> Box<dyn Oracle> {
    match cell.oracle {
        OracleSpec::GroundTruth => Box::new(TqsOracle::shared(Arc::clone(shard))),
        OracleSpec::ThreeWay => {
            let panel: Vec<Box<dyn DbmsConnector>> = EngineKind::ALL
                .into_iter()
                .filter(|e| *e != cell.engine)
                .map(|e| {
                    let conn = Metered::new(
                        e.connect_pristine(cell.profile, shard),
                        Layer::REFERENCE,
                        tracer.clone(),
                    );
                    references.push(conn.stats_handle());
                    Box::new(conn) as Box<dyn DbmsConnector>
                })
                .collect();
            Box::new(DifferentialOracle::panel(panel))
        }
        OracleSpec::CrossEngine => unreachable!("the hunt grid has no cross-engine cells"),
    }
}

/// Single-threaded replica of the campaign's select-cell loop, cells in id
/// order, spans around every layer call.
fn replica(campaign: &Campaign, dir: &Path, tracer: &Tracer) -> io::Result<ReplicaCounts> {
    let ccfg = campaign.config();
    std::fs::create_dir_all(dir)?;
    let corpus = Corpus::in_dir(dir);
    let checkpoint = Checkpoint::in_dir(dir);
    checkpoint.create(&CheckpointHeader {
        seed: ccfg.seed,
        dsg_digest: 0,
        shards: ccfg.shards,
        cells: campaign.cells_total(),
        queries_per_cell: ccfg.queries_per_cell,
        profiles: ccfg.profiles.iter().map(|p| p.name().to_string()).collect(),
        oracles: ccfg.oracles.iter().map(|o| o.label().to_string()).collect(),
        engines: ccfg.engines.iter().map(|e| e.label().to_string()).collect(),
        plan_modes: ccfg
            .plan_modes
            .iter()
            .map(|m| m.label().to_string())
            .collect(),
        workloads: ccfg
            .workloads
            .iter()
            .map(|w| w.label().to_string())
            .collect(),
    })?;

    let mut n = ReplicaCounts::default();
    let mut triage = BugTriage::new();
    let mut diversity = GraphIndex::new();
    let mut query_id = 0u32;
    let _root = tracer.span("driver");
    for cell in campaign.cells() {
        assert!(
            cell.plan_mode == PlanMode::Single && cell.workload == Workload::Select,
            "the replica covers the hunt grid only"
        );
        let started = Instant::now();
        let shard = &campaign.shards()[cell.shard];
        let mut references = Vec::new();
        let (mut conn, stats, mut oracle) = {
            let _span = tracer.span("pager.load");
            let metered = Metered::new(
                cell.engine.faulty(cell.profile),
                Layer::of(cell.engine),
                tracer.clone(),
            );
            let stats = metered.stats_handle();
            let mut conn = RecordingConnector::new(metered);
            conn.load_catalog(&shard.db.catalog)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let oracle = build_oracle(cell, shard, tracer, &mut references);
            (conn, stats, oracle)
        };
        let mut kqe = Kqe::new(shard.schema_desc.clone(), KqeConfig::default());
        let mut generator = QueryGenerator::new(QueryGenConfig {
            seed: ccfg.seed ^ ((cell.id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..Default::default()
        });
        let mut record = CellRecord {
            cell_id: cell.id,
            queries: 0,
            raw_reports: 0,
            new_classes: 0,
            elapsed_ms: 0,
            timeout: false,
        };
        for _ in 0..ccfg.queries_per_cell {
            query_id += 1;
            tracer.set_query(query_id);
            n.generated += 1;
            let stmt = {
                let _span = tracer.span("core.dsg.generate");
                generator.generate(shard, None, &KqeScorer { kqe: &kqe })
            };
            let qg = {
                let _span = tracer.span("graph.kqe");
                let qg = query_graph_with_subqueries(&stmt, &shard.schema_desc);
                kqe.record(&qg);
                diversity.insert(&qg, embed_graph(&qg, 2));
                n.isomorphic_sets = diversity.isomorphic_set_count();
                qg
            };
            {
                let _span = tracer.span("core.recorder");
                n.statements += count_statements(&conn.take_trace());
            }
            let verdict = {
                let _span = tracer.span("core.oracle.check");
                oracle.check(&stmt, &mut conn)
            };
            let reports = match verdict {
                OracleVerdict::Skip => {
                    n.skip += 1;
                    continue;
                }
                OracleVerdict::Pass => {
                    n.pass += 1;
                    record.queries += 1;
                    continue;
                }
                OracleVerdict::Bugs(reports) => {
                    n.bugs += 1;
                    record.queries += 1;
                    reports
                }
            };
            record.raw_reports += reports.len();
            let fp = graph_fingerprint(&qg);
            let mut witness: Option<Vec<StoredStatement>> = None;
            for report in reports {
                let (mut report, admitted) = {
                    let _span = tracer.span("campaign.triage");
                    let combined = report.fingerprint.map(|pf| pf ^ fp).unwrap_or(fp);
                    let report = report.with_fingerprint(combined);
                    let admitted = triage.admit(report.clone(), cell.id);
                    (report, admitted)
                };
                let Some(class_idx) = admitted else {
                    n.duplicates += 1;
                    continue;
                };
                n.admitted += 1;
                record.new_classes += 1;
                let witness = {
                    let _span = tracer.span("core.recorder");
                    witness.get_or_insert_with(|| {
                        conn.trace()
                            .iter()
                            .filter_map(StoredStatement::from_event)
                            .collect()
                    })
                };
                {
                    let _span = tracer.span("core.minimizer");
                    n.minimizer_calls += 1;
                    let mut counting = MinimizerOracle {
                        inner: oracle.as_mut(),
                        checks: &mut n.minimizer_checks,
                        tracer,
                    };
                    let minimized =
                        render_stmt(&minimize_with_oracle(&stmt, &mut counting, &mut conn));
                    n.original_chars += report.sql.len();
                    n.minimized_chars += minimized.len();
                    triage.set_minimized(class_idx, minimized.clone());
                    report.minimized_sql = Some(minimized);
                }
                let entry = CorpusEntry {
                    cell_id: cell.id,
                    class_key: report.class_key().to_string(),
                    connector: conn.info(),
                    report,
                    trace: witness.clone(),
                };
                let _span = tracer.span("campaign.corpus.append");
                corpus.append(&entry)?;
            }
        }
        {
            let _span = tracer.span("core.recorder");
            n.statements += count_statements(&conn.take_trace());
        }
        n.queries += record.queries;
        n.raw_reports += record.raw_reports;
        record.elapsed_ms = started.elapsed().as_millis() as u64;
        {
            let _span = tracer.span("campaign.checkpoint.append");
            checkpoint.append_cell(&record)?;
        }
        let engine = EngineKind::ALL
            .iter()
            .position(|e| *e == cell.engine)
            .expect("engine kind is one of ALL");
        n.engines[engine].add(&stats.borrow());
        for r in &references {
            n.reference.add(&r.borrow());
        }
    }
    {
        // The resume path: what a restarted campaign reads back.
        let _span = tracer.span("campaign.corpus.load");
        n.corpus_entries_loaded = corpus.load()?.len();
    }
    n.bug_classes = triage.class_count();
    n.corpus_bytes = std::fs::metadata(corpus.path())
        .map(|m| m.len())
        .unwrap_or(0);
    Ok(n)
}

/// Tracing on: one real campaign for the reference counts and the fleet
/// figures, then the replica untraced and traced.
fn run_traced(cfg: &RunConfig) -> io::Result<Outcome> {
    let tracer = Tracer::new();
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let mut v = Values::default();

    let real = real_run(cfg, &mut failures)?;
    verify_run(cfg, &real, &real, &mut failures);

    // A second campaign object supplies the replica's cells and shards.
    let host_dir = fresh_dir(cfg, "host");
    let t0 = Instant::now();
    let host = Campaign::new(campaign_config(cfg, host_dir.clone()))?;
    v.set("core.dsg.build_s", t0.elapsed().as_secs_f64());

    let quiet_dir = fresh_dir(cfg, "replica");
    let t0 = Instant::now();
    let quiet = replica(&host, &quiet_dir, &tracer)?;
    let quiet_wall = t0.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&quiet_dir)?;

    // The traced pass also switches the program's own telemetry registry on,
    // for the pager counters; its cost is part of the reported overhead.
    let traced_dir = fresh_dir(cfg, "replica");
    tracer.start();
    let traced = with_registry(|| replica(&host, &traced_dir, &tracer));
    let spans = tracer.finish();
    let traced = traced?;
    std::fs::remove_dir_all(&traced_dir)?;
    drop(host);
    std::fs::remove_dir_all(&host_dir)?;

    // Cross-check, on counts that do not depend on how classes are keyed.
    for (label, counts) in [("untraced", &quiet), ("traced", &traced)] {
        let got = (counts.queries, counts.statements, counts.raw_reports);
        let want = (
            real.stats.queries,
            real.stats.statements,
            real.stats.raw_reports,
        );
        if got != want {
            failures.push(format!(
                "{label} replica (queries, statements, raw reports) {got:?} differ from \
                 Campaign::run {want:?}"
            ));
        }
        if counts.corpus_entries_loaded != counts.admitted {
            failures.push(format!(
                "{label} replica appended {} corpus entries but loads {}",
                counts.admitted, counts.corpus_entries_loaded
            ));
        }
    }
    if quiet.exact() != traced.exact() {
        failures.push("the two replica passes disagree on an exact count".to_string());
    }

    let times = layer_times(&spans, None);
    let layer = |name: &str| times.get(name).copied().unwrap_or_default();
    let traced_wall: f64 = times.values().map(|t| t.self_s).sum();
    let (hunt_check, min_check) = (layer("core.oracle.check"), layer("core.minimizer.check"));
    v.set("pager.load_s", layer("pager.load").total_s);
    v.set("core.dsg.generate_s", layer("core.dsg.generate").total_s);
    v.set("core.dsg.generated", traced.generated as f64);
    v.set("graph.kqe_s", layer("graph.kqe").total_s);
    v.set("graph.isomorphic_sets", traced.isomorphic_sets as f64);
    v.set(
        "core.oracle.check_s",
        hunt_check.total_s + min_check.total_s,
    );
    v.set("core.oracle.self_s", hunt_check.self_s + min_check.self_s);
    v.set("core.oracle.pass", traced.pass as f64);
    v.set("core.oracle.skip", traced.skip as f64);
    v.set("core.oracle.bugs", traced.bugs as f64);
    v.set("core.oracle.reports", traced.raw_reports as f64);
    for (kind, stats) in EngineKind::ALL.iter().zip(&traced.engines) {
        engine_values(&mut v, *kind, stats);
    }
    v.set(
        "engine.reference.exec_s",
        traced.reference.exec_ns as f64 / 1e9,
    );
    v.add("engine.load_s", traced.reference.load_ns as f64 / 1e9);
    registry_values(&mut v, 0);
    v.set("core.recorder_s", layer("core.recorder").total_s);
    v.set("core.minimizer_s", layer("core.minimizer").total_s);
    v.set("core.minimizer.calls", traced.minimizer_calls as f64);
    v.set(
        "core.minimizer.oracle_checks",
        traced.minimizer_checks as f64,
    );
    if traced.original_chars > 0 {
        v.set(
            "core.minimizer.shrink_ratio",
            traced.minimized_chars as f64 / traced.original_chars as f64,
        );
    }
    v.set("campaign.triage_s", layer("campaign.triage").total_s);
    v.set("campaign.triage.admitted", traced.admitted as f64);
    v.set("campaign.triage.duplicates", traced.duplicates as f64);
    v.set(
        "campaign.corpus.append_s",
        layer("campaign.corpus.append").total_s,
    );
    v.set("campaign.corpus.bytes", traced.corpus_bytes as f64);
    v.set(
        "campaign.corpus.load_s",
        layer("campaign.corpus.load").total_s,
    );
    v.set(
        "campaign.checkpoint.append_s",
        layer("campaign.checkpoint.append").total_s,
    );

    let cell_ms: Vec<f64> = real.cells.iter().map(|c| c.elapsed_ms as f64).collect();
    v.set("campaign.wall_s", real.wall_s);
    v.set(
        "campaign.fleet_efficiency",
        cell_ms.iter().sum::<f64>() / (spec::HUNT_WORKERS as f64 * real.wall_s * 1e3),
    );
    v.set("campaign.cell_ms_p50", report::quantile(&cell_ms, 0.5));
    v.set("campaign.cell_ms_max", report::quantile(&cell_ms, 1.0));
    v.set("campaign.bug_classes", real.stats.bug_classes as f64);
    v.set("campaign.replica_bug_classes", traced.bug_classes as f64);
    v.set("campaign.fault_kinds_found", real.fault_kinds.len() as f64);
    v.set("campaign.corpus_mb", real.corpus_bytes as f64 / 1e6);

    v.set("driver.traced_wall_s", layer("driver").total_s);
    v.set("driver.other_s", layer("driver").self_s);
    v.set(
        "driver.other_pct",
        100.0 * layer("driver").self_s / traced_wall,
    );
    v.set(
        "driver.trace_overhead_pct",
        100.0 * (traced_wall - quiet_wall) / quiet_wall,
    );
    let per_query_ms: Vec<f64> = real
        .cells
        .iter()
        .filter(|c| c.queries > 0)
        .map(|c| c.elapsed_ms as f64 / c.queries as f64)
        .collect();
    v.set("driver.check_ms_p90", report::quantile(&per_query_ms, 0.9));
    v.set("driver.check_ms_p99", report::quantile(&per_query_ms, 0.99));
    v.set("driver.check_samples", per_query_ms.len() as f64);
    v.set("driver.peak_rss_mb", report::peak_rss_mb());

    // Where a cell's wall clock goes: what the minimizer's subtree holds.
    let under = layer_times(&spans, Some("core.minimizer"));
    let under_engine: f64 = under
        .iter()
        .filter(|(name, _)| name.starts_with("engine."))
        .map(|(_, t)| t.self_s)
        .sum();
    let engine_total: f64 = times
        .iter()
        .filter(|(name, _)| name.starts_with("engine."))
        .map(|(_, t)| t.self_s)
        .sum();
    write_trace_artifacts(cfg, &spans, &mut notes, &mut failures);
    notes.push(format!(
        "hunt: Campaign::run {:.3} s with {} workers; replica {:.3} s untraced, {:.3} s traced. \
         Minimizer subtree {:.3} s of the traced wall ({:.3} s of it in the engines, {:.3} s judging); \
         hunting: engines {:.3} s, oracle self {:.3} s. Classes: campaign {} / replica {}",
        real.wall_s,
        spec::HUNT_WORKERS,
        quiet_wall,
        traced_wall,
        layer("core.minimizer").total_s,
        under_engine,
        min_check.self_s,
        engine_total - under_engine,
        hunt_check.self_s,
        real.stats.bug_classes,
        traced.bug_classes
    ));
    let generated = (real.stats.cells_total * cfg.sizes.hunt_queries_per_cell) as u64;
    Ok(Outcome {
        attempted: generated,
        failed: generated - real.stats.queries as u64,
        metrics: v.finish(&PER_LAYER),
        failures,
        notes,
    })
}
