//! The three workloads on pristine builds: `plan_space`, `select_cross` and
//! `dml_txn`. One driver serves all three — an operation is one oracle call
//! (`check` on a statement, `check_program` on a DML program) against one
//! decorated engine connector — and the same loop runs untraced for the
//! end-to-end metrics and traced for the per-layer ones.

use crate::conn::{ConnStats, Layer, Metered, StatsHandle};
use crate::pools::{self, mix, DmlPool, SelectPool};
use crate::report::{self, Outcome, Values};
use crate::spec::{self, RunConfig, END_TO_END, PER_LAYER};
use crate::trace::{self, layer_times, Span, Tracer};
use std::sync::Arc;
use std::time::Instant;
use tqs_campaign::EngineKind;
use tqs_core::backend::{DbmsConnector, EngineConnector};
use tqs_core::dsg::DsgDatabase;
use tqs_core::hintgen::hint_sets_for;
use tqs_core::mutation::DmlOracle;
use tqs_core::oracle::{Oracle, OracleVerdict, PlanSpaceOracle, TqsOracle, PLAN_BASELINE_LABEL};
use tqs_engine::{FaultSet, ProfileId};
use tqs_optimizer::PlanSpace;
use tqs_schema::{GroundTruth, GroundTruthEvaluator};
use tqs_sql::ast::{DmlStmt, SelectStmt};
use tqs_sql::hints::HintSet;
use tqs_storage::ResultSet;

const PROFILE: ProfileId = ProfileId::MysqlLike;
const MAX_TRACED_PAIRS: usize = 4;

/// What one engine pass of a repetition runs.
enum Items {
    /// Statements through a select oracle (`TqsOracle` / `PlanSpaceOracle`).
    Select(Arc<Vec<SelectStmt>>, Box<dyn Oracle>),
    /// Programs through the mutation oracle.
    Dml(Vec<Vec<DmlStmt>>, DmlOracle),
}

impl Items {
    fn len(&self) -> usize {
        match self {
            Items::Select(stmts, _) => stmts.len(),
            Items::Dml(programs, _) => programs.len(),
        }
    }
}

/// One engine of a workload: its decorated connector and what runs on it.
struct EnginePass {
    kind: EngineKind,
    conn: Metered<EngineConnector>,
    stats: StatsHandle,
    items: Items,
}

/// Everything set-up builds; the first timed operation starts from here.
struct Fixture {
    dsg: Arc<DsgDatabase>,
    passes: Vec<EnginePass>,
    /// FNV digest over every pool of the fixture.
    digest: u64,
    /// Statements drawn / dropped as unsupported while filling the pools.
    drawn: usize,
    unsupported: usize,
}

impl Fixture {
    fn ops(&self) -> usize {
        self.passes.iter().map(|p| p.items.len()).sum()
    }
}

fn connect(kind: EngineKind, dsg: &Arc<DsgDatabase>, tracer: &Tracer) -> Metered<EngineConnector> {
    Metered::new(
        kind.connect_pristine(PROFILE, dsg),
        Layer::of(kind),
        tracer.clone(),
    )
}

/// Set-up: DSG build, connector and catalog load (disk store creation
/// included), pool generation with the ground-truth gate.
fn setup(cfg: &RunConfig, tracer: &Tracer) -> Fixture {
    let sizes = &cfg.sizes;
    let (rows, shards) = match cfg.workload.as_str() {
        spec::PLAN_SPACE => (sizes.plan_rows, 1),
        spec::SELECT_CROSS => (sizes.small_rows, sizes.cross_shards),
        _ => (sizes.small_rows, sizes.dml_shards),
    };
    let dsg = {
        let _span = tracer.span("core.dsg.build");
        DsgDatabase::build_sharded(&pools::dsg_config(rows, cfg.seed), shards).swap_remove(0)
    };
    let engines: &[EngineKind] = if cfg.workload == spec::DML_TXN {
        &[EngineKind::Disk, EngineKind::Row]
    } else {
        &EngineKind::ALL
    };
    let conns: Vec<Metered<EngineConnector>> = {
        let _span = tracer.span("pager.load");
        engines.iter().map(|k| connect(*k, &dsg, tracer)).collect()
    };
    let mut fx = Fixture {
        dsg: Arc::clone(&dsg),
        passes: Vec::new(),
        digest: pools::FNV_OFFSET,
        drawn: 0,
        unsupported: 0,
    };
    let select = match cfg.workload.as_str() {
        spec::PLAN_SPACE => Some(pools::select_pool(
            &dsg,
            spec::SHAPE_SEED_PLAN,
            sizes.plan_pool,
            false,
            f64::INFINITY,
            tracer,
        )),
        spec::SELECT_CROSS => Some(pools::select_pool(
            &dsg,
            spec::SHAPE_SEED_CROSS,
            sizes.cross_pool,
            true,
            spec::CROSS_PEAK_CAP,
            tracer,
        )),
        _ => None,
    };
    let shared = select.map(
        |SelectPool {
             stmts,
             digest,
             drawn,
             unsupported,
         }| {
            fx.digest = pools::fnv1a(fx.digest, &digest.to_le_bytes());
            fx.drawn = drawn;
            fx.unsupported = unsupported;
            Arc::new(stmts)
        },
    );
    for (kind, conn) in engines.iter().zip(conns) {
        let items = match &shared {
            Some(stmts) => {
                let oracle: Box<dyn Oracle> = if cfg.workload == spec::PLAN_SPACE {
                    Box::new(PlanSpaceOracle::shared(Arc::clone(&dsg)))
                } else {
                    Box::new(TqsOracle::shared(Arc::clone(&dsg)))
                };
                Items::Select(Arc::clone(stmts), oracle)
            }
            None => {
                let (salt, size) = match kind {
                    EngineKind::Disk => (3, sizes.dml_programs_disk),
                    _ => (4, sizes.dml_programs_row),
                };
                let DmlPool { programs, digest } =
                    pools::dml_pool(&dsg, mix(cfg.seed, salt), size, tracer);
                fx.digest = pools::fnv1a(fx.digest, &digest.to_le_bytes());
                fx.drawn += size;
                Items::Dml(programs, DmlOracle::from_dsg(&dsg))
            }
        };
        fx.passes.push(EnginePass {
            kind: *kind,
            stats: conn.stats_handle(),
            conn,
            items,
        });
    }
    fx
}

/// One repetition: every operation of every engine pass, once.
#[derive(Debug, Default)]
struct Rep {
    wall_s: f64,
    /// Latency of each operation, in fixture order.
    latency_s: Vec<f64>,
    pass: u64,
    skip: u64,
    bugs: u64,
    reports: u64,
    /// What each engine's connector did during this repetition.
    conn: Vec<ConnStats>,
    plans: usize,
}

impl Rep {
    /// Operations that did not end in `Pass` — on a pristine build each one
    /// is a failure.
    fn failed(&self) -> u64 {
        self.skip + self.bugs
    }

    /// The exact counts of the repetition: must not change between
    /// repetitions of the same fixture.
    fn counts(&self) -> (u64, u64, u64, u64, usize, Vec<[u64; 4]>) {
        (
            self.pass,
            self.skip,
            self.bugs,
            self.reports,
            self.plans,
            self.conn
                .iter()
                .map(|c| [c.statements, c.rows_out, c.errors, c.dml_statements])
                .collect(),
        )
    }
}

fn run_rep(fx: &mut Fixture, tracer: &Tracer) -> Rep {
    let mut rep = Rep {
        latency_s: Vec::with_capacity(fx.ops()),
        ..Default::default()
    };
    let _root = tracer.span("driver");
    let started = Instant::now();
    let mut op = 0u32;
    for pass in &mut fx.passes {
        let before = *pass.stats.borrow();
        let plans_before = match &pass.items {
            Items::Select(_, oracle) => oracle.plans_enumerated(),
            Items::Dml(..) => 0,
        };
        for i in 0..pass.items.len() {
            op += 1;
            tracer.set_query(op);
            let t0 = Instant::now();
            let verdict = match &mut pass.items {
                Items::Select(stmts, oracle) => {
                    let _span = tracer.span("core.oracle.check");
                    oracle.check(&stmts[i], &mut pass.conn)
                }
                Items::Dml(programs, oracle) => {
                    let _span = tracer.span("core.mutation.check");
                    oracle.check_program(&programs[i], &mut pass.conn)
                }
            };
            rep.latency_s.push(t0.elapsed().as_secs_f64());
            match verdict {
                OracleVerdict::Pass => rep.pass += 1,
                OracleVerdict::Skip => rep.skip += 1,
                OracleVerdict::Bugs(found) => {
                    rep.bugs += 1;
                    rep.reports += found.len() as u64;
                }
            }
        }
        rep.conn.push(pass.stats.borrow().since(&before));
        if let Items::Select(_, oracle) = &pass.items {
            rep.plans += oracle.plans_enumerated() - plans_before;
        }
    }
    rep.wall_s = started.elapsed().as_secs_f64();
    rep
}

/// Checks shared by both run modes: a pristine build passes everything, the
/// exact counts repeat, and engines that ran the same pool returned the same
/// number of rows.
fn verify(fx: &Fixture, reps: &[&Rep], digests: &[u64], failures: &mut Vec<String>) {
    if digests.iter().any(|d| *d != digests[0]) {
        failures.push(format!("pool digest differs between set-ups: {digests:x?}"));
    }
    for (i, rep) in reps.iter().enumerate() {
        if rep.failed() > 0 {
            failures.push(format!(
                "repetition {i}: {} skips, {} bug verdicts ({} reports) on pristine builds",
                rep.skip, rep.bugs, rep.reports
            ));
        }
        if rep.counts() != reps[0].counts() {
            failures.push(format!(
                "repetition {i} counts {:?} differ from repetition 0 {:?}",
                rep.counts(),
                reps[0].counts()
            ));
        }
    }
    let same_pool = fx
        .passes
        .iter()
        .all(|p| matches!(p.items, Items::Select(..)));
    if same_pool {
        let rows: Vec<u64> = reps[0].conn.iter().map(|c| c.rows_out).collect();
        if rows.iter().any(|r| *r != rows[0]) {
            failures.push(format!("engines returned different row totals: {rows:?}"));
        }
    }
}

fn describe(fx: &Fixture, rep: &Rep) -> String {
    let per_engine: Vec<String> = fx
        .passes
        .iter()
        .zip(&rep.conn)
        .map(|(p, c)| {
            format!(
                "{}: {} ops, {} statements, {} dml, {} rows",
                p.kind.label(),
                p.items.len(),
                c.statements,
                c.dml_statements,
                c.rows_out
            )
        })
        .collect();
    format!(
        "pool digest {:016x} ({} drawn, {} unsupported); {}",
        fx.digest,
        fx.drawn,
        fx.unsupported,
        per_engine.join("; ")
    )
}

pub fn run(cfg: &RunConfig) -> Outcome {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_end_to_end(cfg)
    }
}

/// Tracing off: set-up several times, one warm-up repetition, then timed
/// repetitions until `--seconds` is used up.
fn run_end_to_end(cfg: &RunConfig) -> Outcome {
    let tracer = Tracer::new();
    let mut failures = Vec::new();
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut fixture = None;
    for _ in 0..cfg.sizes.setup_repeats.max(1) {
        drop(fixture.take()); // one disk store at a time
        let t0 = Instant::now();
        let fx = setup(cfg, &tracer);
        setup_s.push(t0.elapsed().as_secs_f64());
        digests.push(fx.digest);
        fixture = Some(fx);
    }
    let mut fx = fixture.expect("at least one set-up");

    let warm_up = run_rep(&mut fx, &tracer);
    let mut reps = Vec::new();
    let started = Instant::now();
    let mut slowest = warm_up.wall_s;
    while cfg.fits(reps.len(), started.elapsed().as_secs_f64(), slowest) {
        let rep = run_rep(&mut fx, &tracer);
        slowest = slowest.max(rep.wall_s);
        reps.push(rep);
    }
    let all: Vec<&Rep> = std::iter::once(&warm_up).chain(&reps).collect();
    verify(&fx, &all, &digests, &mut failures);

    // An operation's latency is its best over the repetitions: whatever
    // else ran on the box can only add to a measurement, never shorten it.
    let ops = fx.ops();
    let best: Vec<f64> = (0..ops)
        .map(|i| report::min(reps.iter().map(|r| r.latency_s[i])))
        .collect();
    let busy_s: f64 = best.iter().sum();
    let statements: u64 = reps[0]
        .conn
        .iter()
        .map(|c| c.statements + c.dml_statements)
        .sum();
    let best_ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();

    let mut v = Values::default();
    v.set("setup_s", report::median(&setup_s));
    v.set("queries_per_s", ops as f64 / busy_s);
    v.set("statements_per_s", statements as f64 / busy_s);
    v.set("check_ms_p50", report::quantile(&best_ms, 0.5));

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let notes = vec![format!(
        "{}: {} repetitions of {ops} operations, wall min/median/max {:.3}/{:.3}/{:.3} s, \
         best-latency sum {busy_s:.3} s; {}",
        cfg.workload,
        reps.len(),
        report::min(walls.iter().copied()),
        report::median(&walls),
        report::quantile(&walls, 1.0),
        describe(&fx, &reps[0])
    )];
    Outcome {
        attempted: (ops * reps.len()) as u64,
        failed: reps.iter().map(Rep::failed).sum(),
        metrics: v.finish(&END_TO_END),
        failures,
        notes,
    }
}

/// The oracle's own work, one public function at a time, on the workload's
/// statement list: ground truth, hint generation, plan enumeration, and the
/// judge over the results a pristine row engine returns.
#[derive(Debug, Default)]
struct LayerPass {
    gt_s: f64,
    gt_rows: u64,
    hintgen_s: f64,
    hint_sets: u64,
    enumerate_s: f64,
    plans: u64,
    judge_s: f64,
    rows_compared: u64,
}

impl LayerPass {
    fn judge(&mut self, truth: &GroundTruth, observed: &ResultSet) {
        let t0 = Instant::now();
        let ok = std::hint::black_box(truth.matches(observed));
        self.judge_s += t0.elapsed().as_secs_f64();
        self.rows_compared += (truth.result.row_count() + observed.row_count()) as u64;
        debug_assert!(ok, "a pristine engine matches the ground truth");
    }

    fn total_s(&self) -> f64 {
        self.gt_s + self.hintgen_s + self.enumerate_s + self.judge_s
    }
}

fn layer_pass(fx: &Fixture, plan_space: bool) -> LayerPass {
    let mut lp = LayerPass::default();
    let Some(stmts) = fx.passes.iter().find_map(|p| match &p.items {
        Items::Select(stmts, _) => Some(Arc::clone(stmts)),
        Items::Dml(..) => None,
    }) else {
        return lp;
    };
    let gt = GroundTruthEvaluator::new(&fx.dsg.db);
    let mut conn = EngineKind::Row.connect_pristine(PROFILE, &fx.dsg);
    for stmt in stmts.iter() {
        let t0 = Instant::now();
        let truth = gt.evaluate(stmt);
        lp.gt_s += t0.elapsed().as_secs_f64();
        let Ok(truth) = truth else { continue };
        lp.gt_rows += truth.result.row_count() as u64;
        if plan_space {
            let t0 = Instant::now();
            let space = PlanSpace::enumerate(stmt, &fx.dsg.db.catalog, &FaultSet::none());
            lp.enumerate_s += t0.elapsed().as_secs_f64();
            lp.plans += space.plans.len() as u64;
            if let Ok(out) = conn.execute_with_hints(stmt, &HintSet::new(PLAN_BASELINE_LABEL)) {
                lp.judge(&truth, &out.result);
            }
            for plan in &space.plans {
                if let Ok(out) = conn.execute_with_hints(&space.stmt, &plan.hints) {
                    lp.judge(&truth, &out.result);
                }
            }
        } else {
            let t0 = Instant::now();
            let hint_sets = hint_sets_for(PROFILE, stmt);
            lp.hintgen_s += t0.elapsed().as_secs_f64();
            lp.hint_sets += hint_sets.len() as u64;
            for hs in &hint_sets {
                if let Ok(out) = conn.execute_with_hints(stmt, hs) {
                    lp.judge(&truth, &out.result);
                }
            }
        }
    }
    lp
}

/// What one engine's decorator counted, under `engine.<label>.*`.
pub fn engine_values(v: &mut Values, kind: EngineKind, c: &ConnStats) {
    let engine = kind.label();
    v.add(&format!("engine.{engine}.exec_s"), c.exec_ns as f64 / 1e9);
    v.add(&format!("engine.{engine}.statements"), c.statements as f64);
    v.add(&format!("engine.{engine}.rows_out"), c.rows_out as f64);
    v.add(&format!("engine.{engine}.errors"), c.errors as f64);
    v.add(
        &format!("engine.{engine}.dml_exec_s"),
        c.dml_exec_ns as f64 / 1e9,
    );
    v.add(
        &format!("engine.{engine}.dml_statements"),
        c.dml_statements as f64,
    );
    v.add("engine.load_s", c.load_ns as f64 / 1e9);
}

/// Pager and optimizer counters of the program's own telemetry registry.
pub fn registry_values(v: &mut Values, disk_dml_statements: u64) {
    let snap = tqs_telemetry::snapshot_metrics();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "pager.pool.hits",
        "pager.pool.misses",
        "pager.pool.evictions",
        "pager.wal.fsyncs",
        "pager.wal.appends",
        "pager.wal.append_bytes",
        "optimizer.enumerate.memo_hits",
        "optimizer.enumerate.memo_misses",
    ] {
        v.set(name, count(name));
    }
    let (hits, misses) = (count("pager.pool.hits"), count("pager.pool.misses"));
    if hits + misses > 0.0 {
        v.set("pager.pool.hit_ratio", hits / (hits + misses));
    }
    if disk_dml_statements > 0 {
        v.set(
            "pager.wal_bytes_per_dml_stmt",
            count("pager.wal.append_bytes") / disk_dml_statements as f64,
        );
    }
}

/// Run `body` with the program's telemetry on and a clean registry; the
/// events it buffered are dropped afterwards.
pub fn with_registry<T>(body: impl FnOnce() -> T) -> T {
    tqs_telemetry::reset_metrics();
    tqs_telemetry::set_enabled(true);
    let out = body();
    tqs_telemetry::set_enabled(false);
    drop(tqs_telemetry::take_events());
    out
}

/// Write the Chrome trace and the per-layer table of a traced repetition.
pub fn write_trace_artifacts(
    cfg: &RunConfig,
    spans: &[Span],
    notes: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    let stem = format!("{}-{}", cfg.workload, cfg.seed);
    let trace_path = cfg.work_dir.join(format!("trace-{stem}.json"));
    let table_path = cfg.work_dir.join(format!("layers-{stem}.txt"));
    let table = trace::layer_table(spans);
    let written = std::fs::write(&trace_path, trace::chrome_trace(spans).to_string())
        .and_then(|_| std::fs::write(&table_path, &table));
    match written {
        Ok(()) => notes.push(format!(
            "{}: {} spans in {}, layer table in {}\n{table}",
            cfg.workload,
            spans.len(),
            trace_path.display(),
            table_path.display()
        )),
        Err(e) => failures.push(format!("cannot write trace artifacts: {e}")),
    }
}

/// Tracing on: one set-up and one warm-up, then untraced and traced
/// repetitions in turn, one repetition with the program's telemetry registry
/// on for the pager and optimizer counters, and the layer pass.
fn run_traced(cfg: &RunConfig) -> Outcome {
    let tracer = Tracer::new();
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    let mut v = Values::default();

    tracer.start();
    let mut fx = {
        let _root = tracer.span("driver");
        setup(cfg, &tracer)
    };
    let setup_times = layer_times(&tracer.finish(), None);
    let total = |name: &str| setup_times.get(name).map(|t| t.total_s).unwrap_or(0.0);
    v.set("core.dsg.build_s", total("core.dsg.build"));
    v.set("pager.load_s", total("pager.load"));
    v.set("core.dsg.generate_s", total("core.dsg.generate"));
    v.set("core.dsg.generated", fx.drawn as f64);
    v.set("schema.groundtruth.unsupported", fx.unsupported as f64);

    let warm_up = run_rep(&mut fx, &tracer);
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Vec<Span>)> = Vec::new();
    let started = Instant::now();
    // A few pairs are enough to tell the tracing overhead from the noise of
    // the box; the registry repetition and the layer pass take about one
    // repetition each and must fit in the budget too.
    while traced.is_empty()
        || (cfg.reps.is_none()
            && traced.len() < MAX_TRACED_PAIRS
            && started.elapsed().as_secs_f64() + 4.0 * warm_up.wall_s <= cfg.seconds)
    {
        let u = run_rep(&mut fx, &tracer);
        tracer.start();
        let t = run_rep(&mut fx, &tracer);
        let spans = tracer.finish();
        untraced.push(u);
        traced.push((t, spans));
    }
    let registry_rep = with_registry(|| run_rep(&mut fx, &tracer));
    let all: Vec<&Rep> = [&warm_up, &registry_rep]
        .into_iter()
        .chain(&untraced)
        .chain(traced.iter().map(|(rep, _)| rep))
        .collect();
    verify(&fx, &all, &[fx.digest], &mut failures);

    let (rep, spans) = traced
        .iter()
        .min_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s))
        .expect("at least one traced repetition");
    let quiet = untraced
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one untraced repetition");

    let times = layer_times(spans, None);
    let layer = |name: &str| times.get(name).copied().unwrap_or_default();
    let traced_wall: f64 = times.values().map(|t| t.self_s).sum();
    let check = layer("core.oracle.check");
    let mutation = layer("core.mutation.check");
    v.set("core.oracle.check_s", check.total_s + mutation.total_s);
    v.set("core.oracle.self_s", check.self_s);
    v.set("core.mutation.self_s", mutation.self_s);
    v.set("core.oracle.pass", rep.pass as f64);
    v.set("core.oracle.skip", rep.skip as f64);
    v.set("core.oracle.bugs", rep.bugs as f64);
    v.set("core.oracle.reports", rep.reports as f64);
    for (pass, stats) in fx.passes.iter().zip(&rep.conn) {
        engine_values(&mut v, pass.kind, stats);
    }
    // Only the disk engine writes a WAL.
    let disk_dml: u64 = fx
        .passes
        .iter()
        .zip(&registry_rep.conn)
        .filter(|(p, _)| p.kind == EngineKind::Disk)
        .map(|(_, c)| c.dml_statements)
        .sum();
    registry_values(&mut v, disk_dml);

    let lp = layer_pass(&fx, cfg.workload == spec::PLAN_SPACE);
    v.set("schema.groundtruth.evaluate_s", lp.gt_s);
    v.set("schema.groundtruth.rows", lp.gt_rows as f64);
    v.set("core.hintgen_s", lp.hintgen_s);
    v.set("core.hintgen.hint_sets", lp.hint_sets as f64);
    v.set("optimizer.enumerate_s", lp.enumerate_s);
    v.set("optimizer.plans", lp.plans as f64);
    v.set("storage.judge_s", lp.judge_s);
    v.set("storage.judge.rows_compared", lp.rows_compared as f64);
    if check.self_s > 0.0 {
        // Every engine pass repeats the oracle's own work on the same pool.
        let engines = fx.passes.len() as f64;
        v.set(
            "core.oracle.explained_ratio",
            engines * lp.total_s() / check.self_s,
        );
    }

    let rows: u64 = quiet.conn.iter().map(|c| c.rows_out).sum();
    let quiet_ms: Vec<f64> = quiet.latency_s.iter().map(|s| s * 1e3).collect();
    v.set("driver.rows_per_s", rows as f64 / quiet.wall_s);
    v.set("driver.plans_per_s", quiet.plans as f64 / quiet.wall_s);
    v.set("driver.check_ms_p90", report::quantile(&quiet_ms, 0.9));
    v.set("driver.check_ms_p99", report::quantile(&quiet_ms, 0.99));
    v.set("driver.peak_rss_mb", report::peak_rss_mb());
    v.set("driver.check_samples", quiet_ms.len() as f64);
    v.set("driver.traced_wall_s", layer("driver").total_s);
    v.set("driver.other_s", layer("driver").self_s);
    v.set(
        "driver.other_pct",
        100.0 * layer("driver").self_s / traced_wall,
    );
    v.set(
        "driver.trace_overhead_pct",
        100.0 * (rep.wall_s - quiet.wall_s) / quiet.wall_s,
    );

    write_trace_artifacts(cfg, spans, &mut notes, &mut failures);
    notes.push(format!(
        "{}: {} untraced/traced pairs, best walls {:.3}/{:.3} s; {}",
        cfg.workload,
        traced.len(),
        quiet.wall_s,
        rep.wall_s,
        describe(&fx, rep)
    ));
    Outcome {
        attempted: (fx.ops() * all.len()) as u64,
        failed: all.iter().map(|r| r.failed()).sum(),
        metrics: v.finish(&PER_LAYER),
        failures,
        notes,
    }
}
