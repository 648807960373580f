//! Cost-based plan enumeration — the optimizer subsystem that turns every
//! statement into a hunted *plan space*.
//!
//! The source paper measures coverage in plans, not statements: the same
//! logical query steered onto different physical plans is what exposes join
//! optimization bugs. Until now each statement here yielded essentially one
//! plan per engine (plus a handful of fixed hint sets). This crate adds a
//! real optimizer layer in four passes:
//!
//! 1. **The statement is the logical plan** — a [`SelectStmt`]'s FROM clause
//!    is already a left-deep chain (base scan → join steps), and its WHERE
//!    clause the post-join filter. [`PlanSpace::enumerate`] clones the
//!    statement once and every later pass reads or edits that clone, so
//!    every rewrite stays executable on the unmodified engines.
//! 2. **Rule-based rewrites** (`rewrite`) — predicate pushdown into
//!    inner-join ON clauses and transitive join-condition inference, both
//!    semantics-preserving and idempotent. Uncorrelated-subquery
//!    decorrelation is hint-level: eligible statements gain subquery-strategy
//!    plan variants (semi-join transform, derived-table rewrite).
//! 3. **Cost model + join enumeration** (`cost`, [`enumerate`]) —
//!    cardinality estimation from catalog row counts and predicate
//!    selectivities, Held–Karp subset DP over valid left-deep join orders
//!    (DFS/greedy fallback above `enumerate::DP_MAX_JOINS` relations).
//! 4. **Hint-forced physical selection** — each enumerated plan is pinned
//!    with `JOIN_ORDER` plus a join-algorithm hint, replicating the engine's
//!    own hint-validity rules, so the plan is deterministically executable on
//!    the row, columnar and disk engines.
//!
//! The enumerator carries its own seeded fault complement
//! ([`tqs_engine::FaultKind::OPTIMIZER`], ids 30–34): inverted cost
//! comparison, dropped rewrite precondition, pushdown past an outer-join
//! boundary, stale cardinality after pruning, and a hint-set memo collision.
//! Each fault is injected *here*, never into an engine build, so the
//! optimizer complement stays pairwise disjoint from all three engines' and
//! the `PlanSpaceOracle` in `tqs-core` can expose them through result
//! divergence, cost-sanity and hint-conformance checks.
//!
//! Everything is a pure function of `(statement, catalog, fault set)`:
//! enumeration seeds derive from the statement text, so a hunt, its witness
//! replay and a later re-verification all enumerate the identical space.

mod cost;
pub mod enumerate;
mod rewrite;

pub use enumerate::{EnumeratedPlan, PlanSpace};

use tqs_sql::ast::SelectStmt;

/// The enumeration seed of a statement: derived from the statement alone
/// (never from a campaign seed), so every consumer — hunt, witness replay,
/// re-verification — samples the identical plan subset.
pub(crate) fn statement_seed(stmt: &SelectStmt) -> u64 {
    tqs_sql::fingerprint_hash(tqs_sql::render::render_stmt(stmt).as_bytes()) ^ 0x9E37_79B9_7F4A_7C15
}
