//! Input generation: everything a workload runs is made here from `--seed`.

use crate::trace::Tracer;
use tqs_core::dsg::{
    DsgConfig, DsgDatabase, QueryGenConfig, QueryGenerator, UniformScorer, WideSource,
};
use tqs_core::mutation::{DmlGenConfig, DmlGenerator};
use tqs_schema::{GroundTruthEvaluator, NoiseConfig};
use tqs_sql::ast::{BinOp, DmlStmt, Expr, JoinType, SelectStmt};
use tqs_sql::render::{render_program, render_stmt};
use tqs_storage::widegen::ShoppingConfig;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: independent sub-seeds from one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(GOLDEN);
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, folded over rendered statements for the pool digests.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The shopping-order testing database with 4 % key noise, data seeded from
/// `seed`.
pub fn dsg_config(n_rows: usize, seed: u64) -> DsgConfig {
    DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows,
            seed: mix(seed, 1),
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.04,
            seed: mix(seed, 2),
            max_injections: 32,
        }),
    }
}

/// A pool of generated SELECT statements, each with a recoverable ground
/// truth.
pub struct SelectPool {
    pub stmts: Vec<SelectStmt>,
    /// FNV-1a over the rendered statements, in order.
    pub digest: u64,
    /// Statements drawn from the generator to fill the pool.
    pub drawn: usize,
    /// Drawn statements the ground-truth evaluator rejected (dropped).
    pub unsupported: usize,
}

pub fn has_cross(stmt: &SelectStmt) -> bool {
    stmt.from
        .joins
        .iter()
        .any(|j| j.join_type == JoinType::Cross)
}

/// Does the predicate compare a column to a literal by range? Such a
/// literal, drawn from the seed's data, selects anywhere from none to all of
/// the rows, which swings the cost of the statements that dominate a
/// repetition by 2x between seeds; equality, IN-list and NULL tests select a
/// steady share.
fn has_range_predicate(e: &Expr) -> bool {
    match e {
        Expr::Binary { op, left, right } => match op {
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => true,
            _ => has_range_predicate(left) || has_range_predicate(right),
        },
        Expr::Unary { expr, .. } => has_range_predicate(expr),
        Expr::Between { .. } => true,
        _ => false,
    }
}

/// Upper bound on the largest intermediate result of the join chain: a
/// cross join multiplies, a semi/anti join only filters, every other join
/// follows a key edge of the snowflake schema and is bounded by the larger
/// side. Computed from table sizes alone, so it never depends on how an
/// engine executes the statement.
fn peak_rows(stmt: &SelectStmt, dsg: &DsgDatabase) -> f64 {
    let rows = |t: &str| dsg.db.catalog.table(t).map(|t| t.row_count()).unwrap_or(0) as f64;
    let mut cur = rows(&stmt.from.base.table);
    let mut peak = cur;
    for j in &stmt.from.joins {
        let r = rows(&j.table.table);
        match j.join_type {
            JoinType::Cross => cur *= r,
            JoinType::Semi | JoinType::Anti => {}
            _ => cur = cur.max(r),
        }
        peak = peak.max(cur);
    }
    peak
}

/// Fill a pool of `size` statements: statement `i` is the first statement of
/// a generator seeded with `shape_seed` and `i` (see `spec::SHAPE_SEED_*`),
/// generated against `dsg`, so its literals come from the seed's data. Kept
/// when it has a cross join iff `want_cross`, stays under `peak_cap`, has no
/// range predicate, and the ground-truth evaluator accepts it.
pub fn select_pool(
    dsg: &DsgDatabase,
    shape_seed: u64,
    size: usize,
    want_cross: bool,
    peak_cap: f64,
    tracer: &Tracer,
) -> SelectPool {
    let gt = GroundTruthEvaluator::new(&dsg.db);
    let mut pool = SelectPool {
        stmts: Vec::with_capacity(size),
        digest: FNV_OFFSET,
        drawn: 0,
        unsupported: 0,
    };
    while pool.stmts.len() < size {
        pool.drawn += 1;
        assert!(
            pool.drawn <= 200 * size + 1000,
            "the generator cannot fill a pool of {size} statements"
        );
        let stmt = {
            let _span = tracer.span("core.dsg.generate");
            QueryGenerator::new(QueryGenConfig {
                seed: shape_seed ^ (pool.drawn as u64).wrapping_mul(GOLDEN),
                ..Default::default()
            })
            .generate(dsg, None, &UniformScorer)
        };
        if has_cross(&stmt) != want_cross
            || peak_rows(&stmt, dsg) > peak_cap
            || stmt.where_clause.as_ref().is_some_and(has_range_predicate)
        {
            continue;
        }
        if gt.evaluate(&stmt).is_err() {
            pool.unsupported += 1;
            continue;
        }
        pool.digest = fnv1a(pool.digest, render_stmt(&stmt).as_bytes());
        pool.stmts.push(stmt);
    }
    pool
}

/// A pool of generated DML + transaction programs.
pub struct DmlPool {
    pub programs: Vec<Vec<DmlStmt>>,
    pub digest: u64,
}

pub fn dml_pool(dsg: &DsgDatabase, seed: u64, size: usize, tracer: &Tracer) -> DmlPool {
    let _span = tracer.span("core.dsg.generate");
    let mut generator = DmlGenerator::new(DmlGenConfig {
        seed,
        ..Default::default()
    });
    let programs: Vec<Vec<DmlStmt>> = (0..size).map(|_| generator.generate_program(dsg)).collect();
    let digest = programs
        .iter()
        .fold(FNV_OFFSET, |h, p| fnv1a(h, render_program(p).as_bytes()));
    DmlPool { programs, digest }
}
