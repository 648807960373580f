//! DSG — Data-guided Schema and query Generation.
//!
//! Builds the testing database (wide table → FDs → 3NF schema → noise →
//! bitmap/RowID machinery) and generates join queries by random walks over
//! the schema graph (§3.3). The walk's edge weighting is pluggable so that
//! KQE can bias it towards unexplored query structures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tqs_graph::plangraph::SchemaDesc;
use tqs_graph::LabeledGraph;
use tqs_schema::{
    inject_noise, normalize, FdDiscoveryConfig, FdSet, NoiseConfig, NoiseRecord, NormalizedDb,
    SchemaGraph,
};
use tqs_sql::ast::*;
use tqs_sql::value::Value;
use tqs_storage::widegen::{
    random_fd_table, shopping_orders, tpch_like, RandomFdConfig, ShoppingConfig, TpchLikeConfig,
};
use tqs_storage::{WideTable, WideTableShard};

/// Which wide-table source to use (substitutes for the paper's UCI / TPC-H
/// datasets).
#[derive(Debug, Clone)]
pub enum WideSource {
    Shopping(ShoppingConfig),
    TpchLike(TpchLikeConfig),
    RandomFd(RandomFdConfig),
}

impl Default for WideSource {
    fn default() -> Self {
        WideSource::Shopping(ShoppingConfig::default())
    }
}

impl WideSource {
    /// Generate the wide table this source describes. Exposed so that a
    /// sharded campaign can generate `T_w` exactly once, share it behind an
    /// `Arc`, and build per-shard databases from row-range views of it.
    pub fn generate(&self) -> WideTable {
        match self {
            WideSource::Shopping(c) => shopping_orders(c),
            WideSource::TpchLike(c) => tpch_like(c),
            WideSource::RandomFd(c) => random_fd_table(c),
        }
    }
}

/// DSG data-layer configuration.
#[derive(Debug, Clone, Default)]
pub struct DsgConfig {
    pub source: WideSource,
    pub fd: FdDiscoveryConfig,
    /// `None` disables noise injection (the `TQS!Noise` ablation).
    pub noise: Option<NoiseConfig>,
}

/// The fully-built DSG database: normalized schema + graph views + sampled
/// literal pools for filter generation.
#[derive(Debug, Clone)]
pub struct DsgDatabase {
    pub db: NormalizedDb,
    pub schema_graph: SchemaGraph,
    pub schema_desc: SchemaDesc,
    pub noise: Vec<NoiseRecord>,
    /// Sample values per (table, column), used to generate selective filters.
    pub value_pool: Vec<(String, String, Vec<Value>)>,
}

impl DsgDatabase {
    /// Run the full DSG data pipeline.
    pub fn build(cfg: &DsgConfig) -> DsgDatabase {
        let wide = cfg.source.generate();
        let fds = FdSet::discover(&wide, &cfg.fd);
        DsgDatabase::from_wide_with_fds(wide, &fds, cfg.noise.as_ref())
    }

    /// Build the database from an already-generated wide table and an
    /// already-discovered FD set.
    ///
    /// This is the shard entry point: FDs discovered on the *full* wide
    /// table hold on every row subset, so normalizing each shard with the
    /// shared FD set yields the same schema (tables, columns, join edges) on
    /// every shard — queries, ground truth and plan-graph fingerprints stay
    /// comparable across the whole fleet while each worker only materializes
    /// its own partition.
    pub(crate) fn from_wide_with_fds(
        wide: WideTable,
        fds: &FdSet,
        noise_cfg: Option<&NoiseConfig>,
    ) -> DsgDatabase {
        let mut db = normalize(wide, fds);
        let noise = match noise_cfg {
            Some(nc) => inject_noise(&mut db, nc),
            None => Vec::new(),
        };
        let schema_graph = SchemaGraph::build(&db);
        let schema_desc = SchemaDesc {
            tables: schema_graph.tables.clone(),
            columns: schema_graph
                .columns
                .iter()
                .map(|c| {
                    (
                        c.table.clone(),
                        c.column.clone(),
                        c.ty.graph_label().to_string(),
                        c.is_key,
                    )
                })
                .collect(),
            join_edges: schema_graph
                .join_edges
                .iter()
                .map(|e| {
                    (
                        e.left_table.clone(),
                        e.right_table.clone(),
                        e.column.clone(),
                    )
                })
                .collect(),
        };
        let value_pool = build_value_pool(&db);
        DsgDatabase {
            db,
            schema_graph,
            schema_desc,
            noise,
            value_pool,
        }
    }

    /// Build `count` row-range shard databases. The wide table is generated
    /// once and shared behind an `Arc`; FDs are discovered once on the full
    /// table; each shard materializes only its own row partition and runs
    /// the rest of the pipeline (normalization, noise, value pools) on it.
    /// With `count == 1` this is the unsharded database in a vector.
    pub fn build_sharded(cfg: &DsgConfig, count: usize) -> Vec<std::sync::Arc<DsgDatabase>> {
        let wide = std::sync::Arc::new(cfg.source.generate());
        let fds = FdSet::discover(&wide, &cfg.fd);
        WideTableShard::split(wide, count)
            .into_iter()
            .map(|shard| {
                // Per-shard noise seed (shard 0 keeps the configured seed,
                // so a 1-shard build is *exactly* `DsgDatabase::build`): the
                // same injection pattern on every shard would make shard 0's
                // bugs predict every other shard's, which defeats
                // partitioned exploration.
                let noise = cfg.noise.clone().map(|mut nc| {
                    nc.seed ^= (shard.spec().index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
                    nc
                });
                std::sync::Arc::new(DsgDatabase::from_wide_with_fds(
                    shard.materialize(),
                    &fds,
                    noise.as_ref(),
                ))
            })
            .collect()
    }

    pub(crate) fn sample_values(&self, table: &str, column: &str) -> &[Value] {
        self.value_pool
            .iter()
            .find(|(t, c, _)| t.eq_ignore_ascii_case(table) && c.eq_ignore_ascii_case(column))
            .map(|(_, _, v)| v.as_slice())
            .unwrap_or(&[])
    }
}

fn build_value_pool(db: &NormalizedDb) -> Vec<(String, String, Vec<Value>)> {
    let mut out = Vec::new();
    for m in &db.metas {
        let t = match db.catalog.table(&m.name) {
            Some(t) => t,
            None => continue,
        };
        for col in &m.columns {
            let idx = match t.column_index(col) {
                Some(i) => i,
                None => continue,
            };
            let mut vals = Vec::new();
            let step = (t.row_count() / 8).max(1);
            for r in (0..t.row_count()).step_by(step) {
                let v = t.rows[r].get(idx).clone();
                if !v.is_null() && !vals.contains(&v) {
                    vals.push(v);
                }
            }
            out.push((m.name.clone(), col.clone(), vals));
        }
    }
    out
}

/// A pluggable scorer used by the random walk when ranking candidate next
/// edges. [`UniformScorer`] gives the plain DSG walk; KQE provides a
/// coverage-based scorer.
pub trait WalkScorer {
    /// Weight of extending the current query graph to `candidate` (larger =
    /// more attractive). Must be positive.
    fn weight(&self, candidate: &LabeledGraph) -> f64;
}

/// The plain random walk: every extension is equally likely.
pub struct UniformScorer;

impl WalkScorer for UniformScorer {
    fn weight(&self, _candidate: &LabeledGraph) -> f64 {
        1.0
    }
}

/// Query generation parameters.
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Maximum number of joined tables (`l`, the maximum walk length).
    pub max_tables: usize,
    pub filter_probability: f64,
    pub subquery_probability: f64,
    pub aggregate_probability: f64,
    pub distinct_probability: f64,
    pub seed: u64,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            max_tables: 4,
            filter_probability: 0.6,
            subquery_probability: 0.25,
            aggregate_probability: 0.15,
            distinct_probability: 0.2,
            seed: 23,
        }
    }
}

/// The random-walk join query generator.
pub struct QueryGenerator {
    pub cfg: QueryGenConfig,
    rng: StdRng,
}

impl QueryGenerator {
    pub fn new(cfg: QueryGenConfig) -> Self {
        let seed = cfg.seed;
        QueryGenerator {
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generate one join query by walking the schema graph from `start`
    /// (random table when `None`), scoring candidate extensions with
    /// `scorer`, and then attaching filters / projections / subqueries /
    /// aggregates.
    pub fn generate(
        &mut self,
        dsg: &DsgDatabase,
        start: Option<&str>,
        scorer: &dyn WalkScorer,
    ) -> SelectStmt {
        let tables = &dsg.schema_desc.tables;
        let start = match start {
            Some(s) => s.to_string(),
            None => tables[self.rng.gen_range(0..tables.len())].clone(),
        };
        let target_tables = self.rng.gen_range(1..=self.cfg.max_tables.max(1));

        // Walk: collect (table, join_type, via_table, via_column).
        let mut included: Vec<String> = vec![start.clone()];
        // Tables whose columns remain in scope for later join conditions —
        // the right side of a semi/anti join only filters and must not be
        // referenced afterwards.
        let mut anchors: Vec<String> = vec![start.clone()];
        let mut joins: Vec<Join> = Vec::new();
        let mut from = FromClause::single(start.clone());
        while included.len() < target_tables {
            // candidate edges from any anchor table to a new table
            let mut candidates: Vec<(String, String, String, JoinType)> = Vec::new(); // (from, to, col, jt)
            for t in &anchors {
                for (n, col) in dsg.schema_desc.neighbors(t) {
                    if included.iter().any(|i| i.eq_ignore_ascii_case(&n)) {
                        continue;
                    }
                    for jt in self.join_type_choices(joins.is_empty()) {
                        candidates.push((t.clone(), n.clone(), col.clone(), jt));
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            // score each candidate by building the extended query graph
            let mut weights = Vec::with_capacity(candidates.len());
            let current_graph = self.partial_graph(&from, &joins, dsg);
            let current_weight = scorer.weight(&current_graph).max(1e-6);
            let mut best = 0.0f64;
            for (via, to, col, jt) in &candidates {
                let mut trial_joins = joins.clone();
                trial_joins.push(Join {
                    join_type: *jt,
                    table: TableRef::new(to.clone()),
                    on: Some(Expr::eq(Expr::col(via, col), Expr::col(to, col))),
                });
                let g = self.partial_graph(&from, &trial_joins, dsg);
                let w = scorer.weight(&g).max(1e-6);
                best = best.max(w);
                weights.push(w);
            }
            // Termination rule (Algorithm 2 lines 9-10): stop extending when
            // every candidate is clearly less attractive than the current
            // graph. The 0.5 factor keeps walks from collapsing to two-table
            // queries once the index fills up — novelty should steer *which*
            // join is added, not stop exploration of deeper joins altogether.
            if best < current_weight * 0.5 && included.len() > 1 {
                break;
            }
            let idx = alias_sample(&weights, &mut self.rng);
            let (via, to, col, jt) = candidates[idx].clone();
            joins.push(Join {
                join_type: jt,
                table: TableRef::new(to.clone()),
                on: if jt == JoinType::Cross {
                    None
                } else {
                    Some(Expr::eq(Expr::col(&via, &col), Expr::col(&to, &col)))
                },
            });
            if !matches!(jt, JoinType::Semi | JoinType::Anti) {
                anchors.push(to.clone());
            }
            included.push(to);
        }
        from.joins = joins;

        // visible tables (semi/anti right sides only filter)
        let mut visible: Vec<String> = vec![from.base.table.clone()];
        for j in &from.joins {
            if !matches!(j.join_type, JoinType::Semi | JoinType::Anti) {
                visible.push(j.table.table.clone());
            }
        }

        let mut stmt = SelectStmt::new(from);
        stmt.distinct = self.rng.gen_bool(self.cfg.distinct_probability);

        // Projections: 1-3 columns from visible tables.
        let n_proj = self.rng.gen_range(1..=3usize);
        let mut items = Vec::new();
        for _ in 0..n_proj {
            if let Some((t, c)) = self.random_column(dsg, &visible) {
                items.push(SelectItem::column(&t, &c));
            }
        }
        if items.is_empty() {
            items.push(SelectItem::column(
                &visible[0],
                &dsg.schema_desc.columns_of(&visible[0])[0].1,
            ));
        }
        stmt.items = items;

        // Aggregates: rewrite into GROUP BY col, COUNT(*). Skipped when a
        // cross join is present — its ground truth is verified in subset
        // mode, which cannot check aggregate values.
        let has_cross = stmt
            .from
            .joins
            .iter()
            .any(|j| j.join_type == JoinType::Cross);
        if self.rng.gen_bool(self.cfg.aggregate_probability) && !stmt.distinct && !has_cross {
            if let Some((t, c)) = self.random_column(dsg, &visible) {
                stmt.items = vec![
                    SelectItem::column(&t, &c),
                    SelectItem::Aggregate {
                        func: AggFunc::CountStar,
                        arg: None,
                        alias: Some("cnt".into()),
                    },
                ];
                stmt.group_by = vec![Expr::col(&t, &c)];
            }
        }

        // Filters.
        let mut predicates: Vec<Expr> = Vec::new();
        if self.rng.gen_bool(self.cfg.filter_probability) {
            if let Some(p) = self.random_filter(dsg, &visible) {
                predicates.push(p);
            }
        }
        // Subquery filter: col IN / NOT IN (SELECT pk FROM dim WHERE ...).
        if self.rng.gen_bool(self.cfg.subquery_probability) {
            if let Some(p) = self.random_subquery_filter(dsg, &visible) {
                predicates.push(p);
            }
        }
        stmt.where_clause = Expr::conjunction(predicates);
        stmt
    }

    fn join_type_choices(&mut self, first_join: bool) -> Vec<JoinType> {
        // weighted pick of a couple of join types per candidate edge so the
        // candidate list stays small. Right/full outer joins only make sense
        // as the first join step (the ground-truth bitmap fold of Table 2 is
        // defined per pair, see GroundTruthEvaluator), so later steps draw
        // from the remaining types.
        let all: &[(JoinType, u32)] = if first_join {
            &[
                (JoinType::Inner, 32),
                (JoinType::LeftOuter, 16),
                (JoinType::RightOuter, 10),
                (JoinType::FullOuter, 6),
                (JoinType::Semi, 12),
                (JoinType::Anti, 12),
                (JoinType::Cross, 6),
            ]
        } else {
            &[
                (JoinType::Inner, 40),
                (JoinType::LeftOuter, 20),
                (JoinType::Semi, 14),
                (JoinType::Anti, 14),
                (JoinType::Cross, 6),
            ]
        };
        let mut out = Vec::new();
        for _ in 0..2 {
            let total: u32 = all.iter().map(|(_, w)| w).sum();
            let mut pick = self.rng.gen_range(0..total);
            for (jt, w) in all.iter().copied() {
                if pick < w {
                    if !out.contains(&jt) {
                        out.push(jt);
                    }
                    break;
                }
                pick -= w;
            }
        }
        out
    }

    fn partial_graph(&self, from: &FromClause, joins: &[Join], dsg: &DsgDatabase) -> LabeledGraph {
        let mut f = from.clone();
        f.joins = joins.to_vec();
        let stmt = SelectStmt::new(f);
        tqs_graph::plangraph::query_graph(&stmt, &dsg.schema_desc)
    }

    fn random_column(&mut self, dsg: &DsgDatabase, visible: &[String]) -> Option<(String, String)> {
        let t = &visible[self.rng.gen_range(0..visible.len())];
        let cols = dsg.schema_desc.columns_of(t);
        if cols.is_empty() {
            return None;
        }
        let c = cols[self.rng.gen_range(0..cols.len())];
        Some((t.clone(), c.1.clone()))
    }

    fn random_filter(&mut self, dsg: &DsgDatabase, visible: &[String]) -> Option<Expr> {
        let (t, c) = self.random_column(dsg, visible)?;
        let pool = dsg.sample_values(&t, &c);
        let col = Expr::col(&t, &c);
        let choice = self.rng.gen_range(0..10);
        Some(match choice {
            0 => Expr::is_null(col),
            1 => Expr::IsNull {
                expr: Box::new(col),
                negated: true,
            },
            2 | 3 => {
                let v = self.pick_value(pool);
                Expr::binary(BinOp::Ge, col, Expr::lit(v))
            }
            4 => {
                let v = self.pick_value(pool);
                Expr::binary(BinOp::NullSafeEq, col, Expr::lit(v))
            }
            5 => {
                let a = self.pick_value(pool);
                let b = self.pick_value(pool);
                Expr::InList {
                    expr: Box::new(col),
                    list: vec![Expr::lit(a), Expr::lit(b)],
                    negated: self.rng.gen_bool(0.3),
                }
            }
            _ => {
                let v = self.pick_value(pool);
                Expr::eq(col, Expr::lit(v))
            }
        })
    }

    fn random_subquery_filter(&mut self, dsg: &DsgDatabase, visible: &[String]) -> Option<Expr> {
        // pick a visible table column that is also the key of another table
        let mut shared: Vec<(String, String, String)> = Vec::new(); // (outer table, col, dim table)
        for t in visible {
            for (_, c, _, _) in dsg.schema_desc.columns_of(t) {
                if let Some(dim) = dsg.db.table_with_pk(c) {
                    if !visible.iter().any(|v| v.eq_ignore_ascii_case(&dim.name)) || dim.name != *t
                    {
                        shared.push((t.clone(), c.clone(), dim.name.clone()));
                    }
                }
            }
        }
        if shared.is_empty() {
            return None;
        }
        let (outer_t, col, dim) = shared[self.rng.gen_range(0..shared.len())].clone();
        let mut sub = SelectStmt::new(FromClause::single(dim.clone()));
        sub.items = vec![SelectItem::column(&dim, &col)];
        // optional inner predicate on another column of the dimension table
        let dim_cols = dsg.schema_desc.columns_of(&dim);
        if dim_cols.len() > 1 && self.rng.gen_bool(0.7) {
            let other = &dim_cols[self.rng.gen_range(0..dim_cols.len())].1;
            let pool = dsg.sample_values(&dim, other);
            let v = self.pick_value(pool);
            sub.where_clause = Some(Expr::eq(Expr::col(&dim, other), Expr::lit(v)));
        }
        let negated = self.rng.gen_bool(0.35);
        if self.rng.gen_bool(0.15) {
            // EXISTS variant with a correlated predicate
            sub.where_clause = Some(Expr::eq(Expr::col(&dim, &col), Expr::col(&outer_t, &col)));
            return Some(Expr::Exists {
                subquery: Box::new(sub),
                negated,
            });
        }
        Some(Expr::InSubquery {
            expr: Box::new(Expr::col(&outer_t, &col)),
            subquery: Box::new(sub),
            negated,
        })
    }

    fn pick_value(&mut self, pool: &[Value]) -> Value {
        if pool.is_empty() || self.rng.gen_bool(0.1) {
            // occasionally an out-of-domain literal
            return Value::Int(self.rng.gen_range(-5..5));
        }
        pool[self.rng.gen_range(0..pool.len())].clone()
    }
}

/// Alias-style weighted sampling (linear here; the weights vector is tiny).
fn alias_sample(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut pick = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if pick < *w {
            return i;
        }
        pick -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_schema::GroundTruthEvaluator;

    fn dsg() -> DsgDatabase {
        DsgDatabase::build(&DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 150,
                ..Default::default()
            }),
            fd: FdDiscoveryConfig::default(),
            noise: Some(NoiseConfig {
                epsilon: 0.03,
                seed: 5,
                max_injections: 12,
            }),
        })
    }

    #[test]
    fn pipeline_produces_connected_schema_and_noise() {
        let d = dsg();
        assert!(d.db.metas.len() >= 4);
        assert!(d.schema_graph.is_join_connected());
        assert!(!d.noise.is_empty());
        assert!(!d.value_pool.is_empty());
        assert!(!d.sample_values("T1", "goodsId").is_empty());
    }

    #[test]
    fn generator_produces_valid_multi_table_queries() {
        let d = dsg();
        let mut gen = QueryGenerator::new(QueryGenConfig {
            max_tables: 4,
            ..Default::default()
        });
        let mut multi = 0;
        for _ in 0..50 {
            let q = gen.generate(&d, None, &UniformScorer);
            assert!(q.table_count() >= 1);
            assert!(!q.items.is_empty());
            if q.table_count() > 1 {
                multi += 1;
            }
            // the query renders and parses back
            let sql = tqs_sql::render::render_stmt(&q);
            tqs_sql::parser::parse_stmt(&sql).expect(&sql);
        }
        assert!(
            multi > 20,
            "most generated queries should join multiple tables"
        );
    }

    #[test]
    fn generated_queries_have_recoverable_ground_truth() {
        let d = dsg();
        let mut gen = QueryGenerator::new(QueryGenConfig {
            seed: 5,
            ..Default::default()
        });
        let gt = GroundTruthEvaluator::new(&d.db);
        let mut ok = 0;
        for _ in 0..40 {
            let q = gen.generate(&d, None, &UniformScorer);
            if gt.evaluate(&q).is_ok() {
                ok += 1;
            }
        }
        assert!(
            ok >= 35,
            "ground truth should be recoverable for most queries, got {ok}/40"
        );
    }

    #[test]
    fn sharded_databases_share_one_schema_and_partition_the_rows() {
        let cfg = DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 120,
                ..Default::default()
            }),
            fd: FdDiscoveryConfig::default(),
            noise: None,
        };
        let full = DsgDatabase::build(&cfg);
        let shards = DsgDatabase::build_sharded(&cfg, 3);
        assert_eq!(shards.len(), 3);
        for s in &shards {
            // FDs come from the full table, so every shard normalizes to the
            // same schema — queries and fingerprints are fleet-comparable.
            assert_eq!(s.schema_desc.tables, full.schema_desc.tables);
            assert_eq!(s.schema_desc.join_edges, full.schema_desc.join_edges);
            assert!(s.db.wide.row_count() < full.db.wide.row_count());
        }
        let total: usize = shards.iter().map(|s| s.db.wide.row_count()).sum();
        assert_eq!(total, full.db.wide.row_count());
        // One shard is the whole database — including the noise pipeline:
        // shard 0 keeps the configured noise seed, so a single-shard build
        // injects the identical noise records as the plain build.
        let noisy_cfg = DsgConfig {
            noise: Some(NoiseConfig {
                epsilon: 0.04,
                seed: 5,
                max_injections: 10,
            }),
            ..cfg
        };
        let noisy_full = DsgDatabase::build(&noisy_cfg);
        let noisy_whole = DsgDatabase::build_sharded(&noisy_cfg, 1);
        assert_eq!(
            noisy_whole[0].db.wide.row_count(),
            noisy_full.db.wide.row_count()
        );
        assert_eq!(noisy_whole[0].noise.len(), noisy_full.noise.len());
    }

    #[test]
    fn no_noise_config_skips_injection() {
        let d = DsgDatabase::build(&DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 80,
                ..Default::default()
            }),
            fd: FdDiscoveryConfig::default(),
            noise: None,
        });
        assert!(d.noise.is_empty());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let d = dsg();
        let mut a = QueryGenerator::new(QueryGenConfig {
            seed: 77,
            ..Default::default()
        });
        let mut b = QueryGenerator::new(QueryGenConfig {
            seed: 77,
            ..Default::default()
        });
        for _ in 0..10 {
            let qa = tqs_sql::render::render_stmt(&a.generate(&d, None, &UniformScorer));
            let qb = tqs_sql::render::render_stmt(&b.generate(&d, None, &UniformScorer));
            assert_eq!(qa, qb);
        }
    }

    #[test]
    fn alias_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[alias_sample(&[0.1, 0.1, 9.8], &mut rng)] += 1;
        }
        assert!(counts[2] > 2500, "{counts:?}");
    }
}
