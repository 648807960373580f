//! Names, units and sizes of the benchmark — the part `BENCHMARK.json`
//! mirrors. The smoke test asserts that the two agree.

/// Workload names (normative).
pub const HUNT: &str = "hunt";
pub const PLAN_SPACE: &str = "plan_space";
pub const SELECT_CROSS: &str = "select_cross";
pub const DML_TXN: &str = "dml_txn";
pub const WORKLOADS: [&str; 4] = [HUNT, PLAN_SPACE, SELECT_CROSS, DML_TXN];

/// One metric of `BENCHMARK.json`: name, unit, `better`.
pub type MetricSpec = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [MetricSpec; 4] = [
    ("setup_s", "s", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("statements_per_s", "1/s", "higher"),
    ("check_ms_p50", "ms", "lower"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [MetricSpec; 83] = [
    // set-up
    ("core.dsg.build_s", "s", "lower"),
    ("pager.load_s", "s", "lower"),
    // statement generation
    ("core.dsg.generate_s", "s", "lower"),
    ("core.dsg.generated", "count", "higher"),
    ("graph.kqe_s", "s", "lower"),
    ("graph.isomorphic_sets", "count", "higher"),
    // oracle
    ("core.oracle.check_s", "s", "lower"),
    ("core.oracle.self_s", "s", "lower"),
    ("core.oracle.pass", "count", "higher"),
    ("core.oracle.skip", "count", "lower"),
    ("core.oracle.bugs", "count", "higher"),
    ("core.oracle.reports", "count", "higher"),
    ("core.mutation.self_s", "s", "lower"),
    // layer pass: the oracle's own work, one public function at a time
    ("schema.groundtruth.evaluate_s", "s", "lower"),
    ("schema.groundtruth.rows", "count", "higher"),
    ("schema.groundtruth.unsupported", "count", "lower"),
    ("core.hintgen_s", "s", "lower"),
    ("core.hintgen.hint_sets", "count", "higher"),
    ("optimizer.enumerate_s", "s", "lower"),
    ("optimizer.plans", "count", "higher"),
    ("optimizer.enumerate.memo_hits", "count", "higher"),
    ("optimizer.enumerate.memo_misses", "count", "lower"),
    ("storage.judge_s", "s", "lower"),
    ("storage.judge.rows_compared", "count", "lower"),
    ("core.oracle.explained_ratio", "ratio", "higher"),
    // engines (connector decorator)
    ("engine.row.exec_s", "s", "lower"),
    ("engine.row.statements", "count", "higher"),
    ("engine.row.rows_out", "count", "higher"),
    ("engine.row.errors", "count", "lower"),
    ("engine.row.dml_exec_s", "s", "lower"),
    ("engine.row.dml_statements", "count", "higher"),
    ("engine.columnar.exec_s", "s", "lower"),
    ("engine.columnar.statements", "count", "higher"),
    ("engine.columnar.rows_out", "count", "higher"),
    ("engine.columnar.errors", "count", "lower"),
    ("engine.columnar.dml_exec_s", "s", "lower"),
    ("engine.columnar.dml_statements", "count", "higher"),
    ("engine.disk.exec_s", "s", "lower"),
    ("engine.disk.statements", "count", "higher"),
    ("engine.disk.rows_out", "count", "higher"),
    ("engine.disk.errors", "count", "lower"),
    ("engine.disk.dml_exec_s", "s", "lower"),
    ("engine.disk.dml_statements", "count", "higher"),
    ("engine.reference.exec_s", "s", "lower"),
    ("engine.load_s", "s", "lower"),
    // pager (the program's own telemetry registry)
    ("pager.pool.hits", "count", "higher"),
    ("pager.pool.misses", "count", "lower"),
    ("pager.pool.evictions", "count", "lower"),
    ("pager.pool.hit_ratio", "ratio", "higher"),
    ("pager.wal.fsyncs", "count", "lower"),
    ("pager.wal.appends", "count", "lower"),
    ("pager.wal.append_bytes", "B", "lower"),
    ("pager.wal_bytes_per_dml_stmt", "B", "lower"),
    // hunt: recorder, minimizer, triage, persistence
    ("core.recorder_s", "s", "lower"),
    ("core.minimizer_s", "s", "lower"),
    ("core.minimizer.calls", "count", "higher"),
    ("core.minimizer.oracle_checks", "count", "lower"),
    ("core.minimizer.shrink_ratio", "ratio", "lower"),
    ("campaign.triage_s", "s", "lower"),
    ("campaign.triage.admitted", "count", "higher"),
    ("campaign.triage.duplicates", "count", "higher"),
    ("campaign.corpus.append_s", "s", "lower"),
    ("campaign.corpus.bytes", "B", "lower"),
    ("campaign.corpus.load_s", "s", "lower"),
    ("campaign.checkpoint.append_s", "s", "lower"),
    // hunt: the fleet, from the untraced `Campaign::run`
    ("campaign.wall_s", "s", "lower"),
    ("campaign.fleet_efficiency", "ratio", "higher"),
    ("campaign.cell_ms_p50", "ms", "lower"),
    ("campaign.cell_ms_max", "ms", "lower"),
    ("campaign.bug_classes", "count", "higher"),
    ("campaign.replica_bug_classes", "count", "higher"),
    ("campaign.fault_kinds_found", "count", "higher"),
    ("campaign.corpus_mb", "MB", "lower"),
    // what the pristine workloads return and enumerate per second
    ("driver.rows_per_s", "1/s", "higher"),
    ("driver.plans_per_s", "1/s", "higher"),
    ("driver.check_ms_p90", "ms", "lower"),
    ("driver.check_ms_p99", "ms", "lower"),
    ("driver.check_samples", "count", "higher"),
    ("driver.peak_rss_mb", "MB", "lower"),
    // the driver itself
    ("driver.traced_wall_s", "s", "lower"),
    ("driver.other_s", "s", "lower"),
    ("driver.other_pct", "%", "lower"),
    ("driver.trace_overhead_pct", "%", "lower"),
];

/// Upper bound on a `select_cross` statement's estimated peak intermediate
/// size (product of the cross-joined tables' row counts). Keeps the 3- and
/// 4-way cross products over T1 (tens of thousands of rows, up to seconds per
/// statement) out of the pool.
pub const CROSS_PEAK_CAP: f64 = 4_000.0;

pub const HUNT_WORKERS: usize = 2;

/// Statement shapes (join graph, join types, projection and filter
/// skeleton) come from generator streams seeded with these constants, not
/// from `--seed`: shape decides a statement's cost over three orders of
/// magnitude, and redrawing the shapes per seed moves every throughput metric
/// by a factor of two to four between seeds. `--seed` decides the data (wide
/// table, noise, shards), every literal drawn from it, and the DML programs.
pub const SHAPE_SEED_CROSS: u64 = 0x5EED_C805;
pub const SHAPE_SEED_PLAN: u64 = 0x5EED_91A5;
pub const SHAPE_SEED_HUNT: u64 = 0x5EED_CA3A;

/// Timed repetitions per run: as many as fit in `--seconds`, within these.
pub const MIN_REPS: usize = 2;
pub const MAX_REPS: usize = 32;

/// The sizes one run uses: the calibrated ones, or toy ones for the smoke
/// test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Wide-table rows of the small DSG (`select_cross`, `dml_txn`).
    pub small_rows: usize,
    /// Row-range shards the small DSG is split into; the workload uses
    /// shard 0.
    pub cross_shards: usize,
    pub dml_shards: usize,
    /// Wide-table rows of the `plan_space` DSG (one shard).
    pub plan_rows: usize,
    pub plan_pool: usize,
    pub cross_pool: usize,
    pub dml_programs_disk: usize,
    pub dml_programs_row: usize,
    pub hunt_rows: usize,
    pub hunt_shards: usize,
    pub hunt_queries_per_cell: usize,
    /// A hunt that finds fewer distinct seeded fault kinds than this is not
    /// a hunt.
    pub hunt_min_fault_kinds: usize,
    /// How often set-up is repeated in a run; `setup_s` is the median.
    pub setup_repeats: usize,
}

impl Sizes {
    /// Calibrated on the 2-core box so that one repetition takes 0.4-3 s and
    /// a 20 s run holds 6 to 32 of them (see the README, "Workloads").
    pub const FULL: Sizes = Sizes {
        // `select_cross` uses the small DSG whole: T1 = 240 rows (about 8
        // leaf pages) and every dimension table complete, so the cross
        // products have the same size under every seed. `dml_txn` uses shard
        // 0 of 4: T1 = 60 rows, two leaf pages. Both fit the 24-frame pool.
        small_rows: 240,
        cross_shards: 1,
        dml_shards: 4,
        // T1 = 1000 rows, about 32 leaf pages: larger than the 24-frame
        // buffer pool, so disk scans miss and evict.
        plan_rows: 1000,
        plan_pool: 48,
        cross_pool: 24,
        // A disk program is fsync-bound and fsync latency drifts on the box;
        // 25 CPU-bound row programs per disk program keep the drift out of
        // the throughput metrics.
        dml_programs_disk: 24,
        dml_programs_row: 600,
        // 4 shards (T1 = 30 rows each) x MysqlLike x {GroundTruth, ThreeWay}
        // x {Row, Columnar, Disk} x Single x Select = 24 cells.
        hunt_rows: 120,
        hunt_shards: 4,
        hunt_queries_per_cell: 24,
        // Observed over seeds: 13-16.
        hunt_min_fault_kinds: 8,
        setup_repeats: 15,
    };

    /// Few statements, one set-up: every code path in seconds.
    pub const TOY: Sizes = Sizes {
        small_rows: 120,
        cross_shards: 2,
        dml_shards: 2,
        plan_rows: 120,
        plan_pool: 6,
        cross_pool: 6,
        dml_programs_disk: 3,
        dml_programs_row: 6,
        hunt_rows: 120,
        hunt_shards: 1,
        hunt_queries_per_cell: 8,
        hunt_min_fault_kinds: 1,
        setup_repeats: 1,
    };
}

/// One `--workload` run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// How long the timed repetitions may take together.
    pub seconds: f64,
    pub trace: bool,
    /// Fixed repetition count; `None` fits as many as `seconds` allows.
    pub reps: Option<usize>,
    pub sizes: Sizes,
    /// Where campaign directories, disk stores and trace artifacts go.
    pub work_dir: std::path::PathBuf,
}

impl RunConfig {
    /// Does another timed repetition fit, given the slowest one so far?
    pub fn fits(&self, done: usize, elapsed_s: f64, slowest_s: f64) -> bool {
        match self.reps {
            Some(n) => done < n,
            None => done < MIN_REPS || (done < MAX_REPS && elapsed_s + slowest_s <= self.seconds),
        }
    }
}
