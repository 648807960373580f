//! The fault-injection catalog.
//!
//! Real DBMSs carry latent optimizer bugs; we cannot ship MySQL 8.0.28's
//! actual defects, so each of the 20 bug types of Table 4 is modeled as a
//! *fault*: a small, deliberately-wrong behaviour wired into one specific
//! physical execution path (a join algorithm, a subquery strategy, a join
//! buffer, an outer-join simplification). A fault only fires when the
//! optimizer actually chooses that path for data that hits the corner case —
//! exactly the triggering structure of the real bugs, which is why hint-based
//! plan steering plus ground-truth verification is needed to expose them.
//!
//! A fault's path condition lives only in [`FaultKind::triggered`]. An
//! executor builds one [`TriggerContext`] per statement, extends it per join
//! step, and each interception point reads the [`FaultSet::active`] subset
//! of the build's faults for its context.
//!
//! The bug *detector* (TQS and the baselines) never sees which faults exist
//! or fired; it only sees result sets. Fired-fault provenance is recorded so
//! the benchmark harness can reproduce Table 4's per-type counts, playing the
//! role of the paper's developer root-cause analysis.

use crate::plan::{JoinAlgo, SubqueryPlan};
use tqs_sql::ast::JoinType;
use tqs_sql::hints::{SemiJoinStrategy, SwitchName};

/// Severity labels as used in Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Critical,
    Serious,
    Major,
    High,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Critical => "S1 (Critical)",
            Severity::Serious => "S2 (Serious)",
            Severity::Major => "Major",
            Severity::High => "2 (High)",
        }
    }
}

/// The 20 bug types of Table 4, one enum variant each. The variant names
/// paraphrase the paper's descriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    // --- MySQL-like (7 types) ---
    /// #1: semi-join gives wrong results (equality not evaluated as part of
    /// the semi-join when materialization is used).
    SemiJoinWrongResults,
    /// #2: incorrect inner hash join when using the materialization strategy
    /// (0 and -0 hash to different buckets).
    HashJoinMaterializationZeroSplit,
    /// #3: incorrect semi-join execution returns unknown data (first-match
    /// shortcut emits build-side values).
    SemiJoinUnknownData,
    /// #4: incorrect left hash join with subquery in condition (extra NULL
    /// row emitted).
    LeftHashJoinSubqueryNull,
    /// #5: incorrect nested-loop anti-join when using materialization
    /// (NULLs dropped from the NOT IN probe set).
    AntiJoinMaterializationNullDrop,
    /// #6: bad caching of converted constants in NULL-safe comparison.
    ConstantCacheNullSafeEq,
    /// #7: incorrect hash join with materialized subquery (varchar keys
    /// compared through double, losing precision).
    HashJoinVarcharViaDouble,

    // --- MariaDB-like (5 types) ---
    /// #8: wrong join when BKA/BKAH are disallowed (NULL turned into empty
    /// string by the fallback buffer).
    BkaDisallowedNullToEmpty,
    /// #9: wrong join when BNLH/BKAH are disallowed (varchar values blanked).
    BnlhDisallowedBlankValues,
    /// #10: wrong join when controlling outer join operations
    /// (outer-join cache pads with empty string instead of NULL).
    OuterJoinCacheEmptyPad,
    /// #11: wrong join when limiting the usage of the join buffers (tail rows
    /// beyond the buffer are dropped).
    JoinBufferLimitDropsTail,
    /// #12: wrong join when controlling the join cache (incremental cache
    /// replays a stale row).
    JoinCacheStaleRow,

    // --- TiDB-like (5 types) ---
    /// #13: wrong merge join when transforming hash join to merge join
    /// (outer merge join loses the inner child's NULL rows).
    MergeJoinOuterNullLoss,
    /// #14: merge join misses -0 (ordering puts -0 before 0 and the cursor
    /// never matches them).
    MergeJoinNegativeZeroMiss,
    /// #15: merge join returns an empty result set (collation mismatch on
    /// varchar keys).
    MergeJoinVarcharEmpty,
    /// #16: merge join returns NULL instead of the value.
    MergeJoinNullInsteadOfValue,
    /// #17: merge join misses rows (last duplicate run dropped).
    MergeJoinDropsLastRun,

    // --- X-DB-like (3 types) ---
    /// #18: left join converted to inner join returns wrong result sets
    /// (the converted join cannot distinguish NULL from 0).
    LeftToInnerNullZeroConfusion,
    /// #19: hash join returns wrong result sets (NULL keys match empty
    /// strings).
    HashJoinNullMatchesEmpty,
    /// #20: incorrect semi-join with materialize execution (float keys
    /// compared after lossy f32 round-trip).
    SemiJoinFloatPrecision,

    // --- Columnar-engine complement (not part of Table 4) ---
    //
    // The second simulated engine executes batch-at-a-time over column
    // vectors; its latent faults live in the batching machinery rather than
    // in any row-at-a-time join algorithm, so cross-engine differential
    // testing between the two builds is meaningful: the complements are
    // disjoint, and neither engine can reproduce the other's bugs.
    /// C1: the final partial probe batch is never flushed, dropping the tail
    /// rows of hashed joins whenever the probe side is not a whole number of
    /// batches.
    ColumnarBatchTailDrop,
    /// C2: the outer-join NULL mask is misaligned by one row, so the first
    /// padded output row replays build-side values instead of NULLs.
    ColumnarNullPadMisalign,
    /// C3: the dictionary encoder truncates varchar join keys to their first
    /// 8 bytes, letting long keys with a shared prefix collide.
    ColumnarDictTruncation,
    /// C4: the selection bitmap is initialized to all-ones and the lane of
    /// the last row in a full batch is never cleared, so a predicate that
    /// evaluates to NULL there is treated as TRUE.
    ColumnarFilterNullAsTrue,

    // --- Disk-engine complement (not part of Table 4) ---
    //
    // The third simulated engine scans its tables out of a disk-backed page
    // store (buffer pool + WAL + leaf-chain heaps); its latent faults live in
    // that storage machinery — torn writes, lost WAL records, stale buffer
    // frames, split bookkeeping, redo replay — rather than in any join
    // algorithm or batching pipeline, so the three engines' complements are
    // pairwise disjoint and three-way differential testing is meaningful.
    /// D1: a torn page write persists only the first half of the tail leaf's
    /// cells, silently dropping the rows in its second half.
    DiskTornPageWrite,
    /// D2: the WAL record of the last commit batch is lost before `fsync`,
    /// so the whole batch vanishes although the commit returned.
    DiskWalLostBeforeFsync,
    /// D3: the buffer pool serves the first-flushed (stale) version of an
    /// evicted-then-reloaded leaf, hiding every row appended to it since.
    DiskStaleFrameRead,
    /// D4: a leaf split loses its high key — the last cell of every
    /// split-origin leaf never makes it to the new sibling.
    DiskSplitHighKeyLoss,
    /// D5: redo recovery replays the last commit record twice, duplicating
    /// the first row of the batch.
    DiskRecoveryDoubleReplay,

    // --- Optimizer complement (not part of Table 4) ---
    //
    // These faults live in the harness-side cost-based plan enumerator
    // (`tqs-optimizer`), not in any engine execution path: the rewrite,
    // costing and memoization passes that turn one statement into a plan
    // space. They are exposed by the `PlanSpaceOracle` (result divergence,
    // cost-sanity and hint-conformance checks over the enumerated plans), so
    // the fourth complement stays pairwise disjoint from all three engines'.
    /// O1: the comparison that picks the cheapest enumerated join order is
    /// inverted, so the "best" plan reported is the most expensive order.
    OptInvertedCostComparison,
    /// O2: predicate pushdown drops its join-type precondition and pushes
    /// WHERE conjuncts into the ON clause of non-inner joins, turning
    /// filtered rows into NULL-padded (outer) or anti-matched survivors.
    OptDroppedRewritePrecondition,
    /// O3: a WHERE conjunct referencing only the right side of a LEFT OUTER
    /// join is pushed past the outer-join boundary into that join's ON,
    /// keeping (padded) rows the filter should have removed.
    OptPushdownPastOuterJoin,
    /// O4: after predicate pruning the enumerator ranks join orders with the
    /// stale pre-pushdown cardinalities while stamping fresh costs on the
    /// plans it reports, so the reported best is not the reported argmin.
    OptStaleCardinalityAfterPruning,
    /// O5: the hint-set memo is keyed by a truncated plan hash; colliding
    /// plans silently reuse another order's JOIN_ORDER hint set, so the
    /// executed plan is not the plan the enumerator claims.
    OptHintIgnoredUnderMemoCollision,

    // --- DML / transaction complement (not part of Table 4) ---
    //
    // The mutation workload executes INSERT/UPDATE/DELETE and transaction
    // blocks through a shared DML executor; its latent faults live in index
    // maintenance, predicate-driven row selection and commit/rollback
    // visibility rather than in any join algorithm, storage page or plan
    // enumeration pass, so the fifth complement stays pairwise disjoint from
    // every other build's. They are fired by the DML executor itself (never
    // from a TriggerContext) and exposed by the mutation oracle comparing
    // post-statement table contents against the maintained ground truth.
    /// M1: an UPDATE touching a keyed column leaves the first matching row's
    /// value stale — the index entry moves but the heap cell is never
    /// rewritten.
    DmlStaleIndexAfterUpdate,
    /// M2: DELETE skips matching rows whose WHERE-referenced column is NULL
    /// (the row matched via IS NULL, but the delete scan treats NULL keys as
    /// non-matching).
    DmlDeleteSkipsNullKey,
    /// M3: an UPDATE assigning a column that the WHERE clause never reads
    /// loses the write for every matching row after the first — the pruned
    /// column is missing from the scan's write-back projection.
    DmlLostUpdateThroughPrunedColumn,
    /// M4: ROLLBACK leaks the transaction's first inserted row — the undo pass
    /// restores the snapshot but replays one insert on top of it.
    DmlRollbackLeaksInsertedRow,
    /// M5: COMMIT publishes a torn prefix — the transaction's last mutation
    /// is dropped at the visibility switch-over.
    DmlCommitBoundaryTornVisibility,
}

impl FaultKind {
    pub const ALL: [FaultKind; 20] = [
        FaultKind::SemiJoinWrongResults,
        FaultKind::HashJoinMaterializationZeroSplit,
        FaultKind::SemiJoinUnknownData,
        FaultKind::LeftHashJoinSubqueryNull,
        FaultKind::AntiJoinMaterializationNullDrop,
        FaultKind::ConstantCacheNullSafeEq,
        FaultKind::HashJoinVarcharViaDouble,
        FaultKind::BkaDisallowedNullToEmpty,
        FaultKind::BnlhDisallowedBlankValues,
        FaultKind::OuterJoinCacheEmptyPad,
        FaultKind::JoinBufferLimitDropsTail,
        FaultKind::JoinCacheStaleRow,
        FaultKind::MergeJoinOuterNullLoss,
        FaultKind::MergeJoinNegativeZeroMiss,
        FaultKind::MergeJoinVarcharEmpty,
        FaultKind::MergeJoinNullInsteadOfValue,
        FaultKind::MergeJoinDropsLastRun,
        FaultKind::LeftToInnerNullZeroConfusion,
        FaultKind::HashJoinNullMatchesEmpty,
        FaultKind::SemiJoinFloatPrecision,
    ];

    /// The columnar engine's fault complement (ids 21..=24, outside Table 4).
    pub const COLUMNAR: [FaultKind; 4] = [
        FaultKind::ColumnarBatchTailDrop,
        FaultKind::ColumnarNullPadMisalign,
        FaultKind::ColumnarDictTruncation,
        FaultKind::ColumnarFilterNullAsTrue,
    ];

    /// The disk engine's fault complement (ids 25..=29, outside Table 4).
    pub const DISK: [FaultKind; 5] = [
        FaultKind::DiskTornPageWrite,
        FaultKind::DiskWalLostBeforeFsync,
        FaultKind::DiskStaleFrameRead,
        FaultKind::DiskSplitHighKeyLoss,
        FaultKind::DiskRecoveryDoubleReplay,
    ];

    /// The optimizer's fault complement (ids 30..=34, outside Table 4).
    /// These are seeded into the plan enumerator, never into an engine build.
    pub const OPTIMIZER: [FaultKind; 5] = [
        FaultKind::OptInvertedCostComparison,
        FaultKind::OptDroppedRewritePrecondition,
        FaultKind::OptPushdownPastOuterJoin,
        FaultKind::OptStaleCardinalityAfterPruning,
        FaultKind::OptHintIgnoredUnderMemoCollision,
    ];

    /// The DML / transaction fault complement (ids 35..=39, outside Table 4).
    /// Fired by the shared DML executor, never from a TriggerContext.
    pub const DML: [FaultKind; 5] = [
        FaultKind::DmlStaleIndexAfterUpdate,
        FaultKind::DmlDeleteSkipsNullKey,
        FaultKind::DmlLostUpdateThroughPrunedColumn,
        FaultKind::DmlRollbackLeaksInsertedRow,
        FaultKind::DmlCommitBoundaryTornVisibility,
    ];

    /// The Table 4 row id (1-based); the columnar complement continues the
    /// numbering at 21, the disk complement at 25, the optimizer complement
    /// at 30 and the DML complement at 35 — declaration order, which is also
    /// the order of [`FaultSet`]'s bits.
    pub fn table4_id(self) -> u32 {
        self as u32 + 1
    }

    /// The DBMS build this bug type is attributed to.
    pub fn dbms(self) -> &'static str {
        match self.table4_id() {
            1..=7 => "MySQL-like",
            8..=12 => "MariaDB-like",
            13..=17 => "TiDB-like",
            18..=20 => "X-DB-like",
            21..=24 => "Columnar",
            25..=29 => "Disk",
            30..=34 => "Optimizer",
            _ => "DML",
        }
    }

    pub fn severity(self) -> Severity {
        match self {
            FaultKind::SemiJoinWrongResults => Severity::Critical,
            FaultKind::ColumnarBatchTailDrop => Severity::Critical,
            FaultKind::ColumnarNullPadMisalign => Severity::Serious,
            FaultKind::ColumnarDictTruncation => Severity::Major,
            FaultKind::ColumnarFilterNullAsTrue => Severity::Serious,
            FaultKind::DiskTornPageWrite => Severity::Critical,
            FaultKind::DiskWalLostBeforeFsync => Severity::Critical,
            FaultKind::DiskStaleFrameRead => Severity::Serious,
            FaultKind::DiskSplitHighKeyLoss => Severity::Major,
            FaultKind::DiskRecoveryDoubleReplay => Severity::Serious,
            FaultKind::OptInvertedCostComparison => Severity::Major,
            FaultKind::OptDroppedRewritePrecondition => Severity::Critical,
            FaultKind::OptPushdownPastOuterJoin => Severity::Critical,
            FaultKind::OptStaleCardinalityAfterPruning => Severity::Major,
            FaultKind::OptHintIgnoredUnderMemoCollision => Severity::Serious,
            FaultKind::DmlStaleIndexAfterUpdate => Severity::Critical,
            FaultKind::DmlDeleteSkipsNullKey => Severity::Serious,
            FaultKind::DmlLostUpdateThroughPrunedColumn => Severity::Critical,
            FaultKind::DmlRollbackLeaksInsertedRow => Severity::Serious,
            FaultKind::DmlCommitBoundaryTornVisibility => Severity::Critical,
            f if f.table4_id() <= 7 => Severity::Serious,
            f if f.table4_id() <= 12 => Severity::Major,
            f if f.table4_id() <= 17 => Severity::Critical,
            _ => Severity::High,
        }
    }

    pub fn description(self) -> &'static str {
        match self {
            FaultKind::SemiJoinWrongResults => "Semi-join gives wrong results.",
            FaultKind::HashJoinMaterializationZeroSplit => {
                "Incorrect inner hash join when using materialization strategy."
            }
            FaultKind::SemiJoinUnknownData => {
                "Incorrect semi-join execution results in unknown data."
            }
            FaultKind::LeftHashJoinSubqueryNull => {
                "Incorrect left hash join with subquery in condition."
            }
            FaultKind::AntiJoinMaterializationNullDrop => {
                "Incorrect nested loop antijoin when using materialization strategy."
            }
            FaultKind::ConstantCacheNullSafeEq => {
                "Bad caching of converted constants in NULL-safe comparison."
            }
            FaultKind::HashJoinVarcharViaDouble => {
                "Incorrect hash join with materialized subquery."
            }
            FaultKind::BkaDisallowedNullToEmpty => {
                "Incorrect join execution by not allowing BKA and BKAH join algorithms."
            }
            FaultKind::BnlhDisallowedBlankValues => {
                "Incorrect join execution by not allowing BNLH and BKAH join algorithms."
            }
            FaultKind::OuterJoinCacheEmptyPad => {
                "Incorrect join execution when controlling outer join operations."
            }
            FaultKind::JoinBufferLimitDropsTail => {
                "Incorrect join execution by limiting the usage of the join buffers."
            }
            FaultKind::JoinCacheStaleRow => "Incorrect join execution when controlling join cache.",
            FaultKind::MergeJoinOuterNullLoss => {
                "Incorrect Merge Join Execution when transforming hash join to merge join."
            }
            FaultKind::MergeJoinNegativeZeroMiss => {
                "Merge Join executed incorrect resultset which missed -0."
            }
            FaultKind::MergeJoinVarcharEmpty => {
                "Merge Join executed an incorrect resultset which returned an empty resultset."
            }
            FaultKind::MergeJoinNullInsteadOfValue => {
                "Merge Join executed an incorrect resultset which returned NULL."
            }
            FaultKind::MergeJoinDropsLastRun => {
                "Merge Join executed an incorrect resultset which missed rows."
            }
            FaultKind::LeftToInnerNullZeroConfusion => {
                "Left join convert to inner join returns wrong result sets."
            }
            FaultKind::HashJoinNullMatchesEmpty => "Hash join returns wrong result sets.",
            FaultKind::SemiJoinFloatPrecision => "Incorrect semi-join with materialize execution.",
            FaultKind::ColumnarBatchTailDrop => {
                "Columnar hashed join drops the final partial probe batch."
            }
            FaultKind::ColumnarNullPadMisalign => {
                "Columnar outer join misaligns the NULL mask on the first padded row."
            }
            FaultKind::ColumnarDictTruncation => {
                "Columnar dictionary encoding truncates long varchar join keys."
            }
            FaultKind::ColumnarFilterNullAsTrue => {
                "Columnar filter treats a NULL predicate as TRUE on the last batch lane."
            }
            FaultKind::DiskTornPageWrite => {
                "Torn page write drops the second half of the tail leaf's rows."
            }
            FaultKind::DiskWalLostBeforeFsync => {
                "WAL record of the last commit batch lost before fsync."
            }
            FaultKind::DiskStaleFrameRead => {
                "Buffer pool serves the stale first-flushed version of an evicted leaf."
            }
            FaultKind::DiskSplitHighKeyLoss => {
                "Leaf split loses the high key of every split-origin leaf."
            }
            FaultKind::DiskRecoveryDoubleReplay => {
                "Redo recovery replays the last commit record twice."
            }
            FaultKind::OptInvertedCostComparison => {
                "Plan enumerator's inverted cost comparison reports the most expensive order as best."
            }
            FaultKind::OptDroppedRewritePrecondition => {
                "Predicate pushdown drops its inner-join precondition and rewrites non-inner ON clauses."
            }
            FaultKind::OptPushdownPastOuterJoin => {
                "Right-side filter pushed past a LEFT OUTER JOIN boundary into the join condition."
            }
            FaultKind::OptStaleCardinalityAfterPruning => {
                "Join orders ranked with stale pre-pushdown cardinalities but reported with fresh costs."
            }
            FaultKind::OptHintIgnoredUnderMemoCollision => {
                "Hint-set memo collision makes a plan reuse another order's JOIN_ORDER hints."
            }
            FaultKind::DmlStaleIndexAfterUpdate => {
                "UPDATE on a keyed column leaves the first matching row's heap value stale."
            }
            FaultKind::DmlDeleteSkipsNullKey => {
                "DELETE skips matching rows whose WHERE-referenced column is NULL."
            }
            FaultKind::DmlLostUpdateThroughPrunedColumn => {
                "UPDATE through a pruned write-back projection loses every write after the first."
            }
            FaultKind::DmlRollbackLeaksInsertedRow => {
                "ROLLBACK leaks the transaction's first inserted row."
            }
            FaultKind::DmlCommitBoundaryTornVisibility => {
                "COMMIT publishes a torn prefix that drops the transaction's last mutation."
            }
        }
    }

    /// Status as reported in Table 4 (the columnar, disk and optimizer
    /// complements are seeded by this reproduction, not taken from the paper).
    pub fn status(self) -> &'static str {
        match self.table4_id() {
            1 | 2 | 6 | 13 | 14 | 15 | 16 | 17 | 18 | 19 => "Fixed",
            21..=39 => "Seeded",
            _ => "Verified",
        }
    }
}

/// Execution-path facts a fault trigger can condition on. `Database::begin`
/// fills in the statement's once (switches, subquery plan, semi-join
/// strategy, materialization); each join step extends it with its own
/// algorithm, join type and buffer (`ExecContext::trigger_ctx`).
#[derive(Debug, Clone, Default)]
pub struct TriggerContext {
    pub algo: Option<JoinAlgo>,
    pub join_type: Option<JoinType>,
    pub semi_strategy: Option<SemiJoinStrategy>,
    pub materialization: bool,
    pub subquery_present: bool,
    /// The statement plan's subquery strategy (`None` outside a statement).
    pub subquery_plan: Option<SubqueryPlan>,
    pub simplified_from_outer: bool,
    pub uses_join_buffer: bool,
    /// The optimizer switches the current session turned OFF.
    pub switched_off: Vec<SwitchName>,
}

impl FaultKind {
    /// Is this fault's execution-path trigger satisfied? (The data-dependent
    /// part of the corner case lives in the executor's behaviour itself.)
    /// The optimizer and DML kinds answer `false`: no engine path fires them,
    /// and their own code reads the enabled set ([`FaultSet::contains`]).
    pub fn triggered(self, ctx: &TriggerContext) -> bool {
        use FaultKind::*;
        match self {
            SemiJoinWrongResults => {
                ctx.subquery_plan
                    == Some(SubqueryPlan::SemiJoinTransform(
                        SemiJoinStrategy::Materialization,
                    ))
            }
            HashJoinMaterializationZeroSplit => {
                ctx.algo == Some(JoinAlgo::HashJoin) && ctx.materialization
            }
            SemiJoinUnknownData => {
                ctx.join_type == Some(JoinType::Semi)
                    && ctx.semi_strategy == Some(SemiJoinStrategy::FirstMatch)
            }
            LeftHashJoinSubqueryNull => {
                ctx.algo == Some(JoinAlgo::HashJoin)
                    && ctx.join_type == Some(JoinType::LeftOuter)
                    && ctx.subquery_present
            }
            AntiJoinMaterializationNullDrop => {
                ctx.materialization
                    && matches!(
                        ctx.subquery_plan,
                        Some(SubqueryPlan::Materialize | SubqueryPlan::SemiJoinTransform(_))
                    )
            }
            ConstantCacheNullSafeEq => true, // purely data/expression dependent
            HashJoinVarcharViaDouble => ctx.algo == Some(JoinAlgo::HashJoin) && ctx.materialization,
            BkaDisallowedNullToEmpty => {
                ctx.switched_off.contains(&SwitchName::JoinCacheBka)
                    && ctx.algo == Some(JoinAlgo::BlockNestedLoop)
            }
            BnlhDisallowedBlankValues => {
                ctx.switched_off.contains(&SwitchName::JoinCacheHashed)
                    && ctx.algo == Some(JoinAlgo::BlockNestedLoop)
            }
            OuterJoinCacheEmptyPad => {
                ctx.uses_join_buffer
                    && matches!(
                        ctx.join_type,
                        Some(JoinType::LeftOuter) | Some(JoinType::RightOuter)
                    )
            }
            JoinBufferLimitDropsTail => ctx.uses_join_buffer,
            JoinCacheStaleRow => {
                ctx.uses_join_buffer && ctx.algo == Some(JoinAlgo::BatchedKeyAccess)
            }
            MergeJoinOuterNullLoss => {
                ctx.algo == Some(JoinAlgo::SortMergeJoin)
                    && matches!(
                        ctx.join_type,
                        Some(JoinType::LeftOuter) | Some(JoinType::RightOuter)
                    )
            }
            MergeJoinNegativeZeroMiss
            | MergeJoinVarcharEmpty
            | MergeJoinNullInsteadOfValue
            | MergeJoinDropsLastRun => ctx.algo == Some(JoinAlgo::SortMergeJoin),
            // The merge join has no interception point for it.
            LeftToInnerNullZeroConfusion => {
                ctx.simplified_from_outer && ctx.algo != Some(JoinAlgo::SortMergeJoin)
            }
            HashJoinNullMatchesEmpty => ctx.algo == Some(JoinAlgo::HashJoin),
            SemiJoinFloatPrecision => {
                matches!(ctx.join_type, Some(JoinType::Semi)) && !ctx.materialization
            }
            // Columnar complement: the batching faults live in the hashed
            // probe pipeline, the NULL-mask fault in outer-join padding, and
            // the selection-bitmap fault is purely data dependent.
            ColumnarBatchTailDrop | ColumnarDictTruncation => {
                ctx.algo.map(|a| a.uses_hashed_keys()).unwrap_or(false)
            }
            ColumnarNullPadMisalign => matches!(
                ctx.join_type,
                Some(JoinType::LeftOuter) | Some(JoinType::RightOuter) | Some(JoinType::FullOuter)
            ),
            ColumnarFilterNullAsTrue => true,
            // Disk complement: the corruption lives in the page store, but
            // whether a query *observes* it depends on which access path the
            // optimizer picks over the damaged heap — the same steer-to-expose
            // structure as every other fault in the catalog.
            DiskTornPageWrite => ctx.algo.is_some(),
            DiskWalLostBeforeFsync => {
                matches!(ctx.join_type, Some(JoinType::Inner) | Some(JoinType::Cross))
            }
            DiskStaleFrameRead => ctx.algo.map(|a| a.uses_hashed_keys()).unwrap_or(false),
            DiskSplitHighKeyLoss => matches!(
                ctx.algo,
                Some(JoinAlgo::SortMergeJoin) | Some(JoinAlgo::IndexJoin)
            ),
            DiskRecoveryDoubleReplay => ctx.subquery_present || ctx.simplified_from_outer,
            // Optimizer complement: these faults live in the harness-side
            // plan enumerator (`tqs-optimizer`), which reads the enabled set
            // with `contains`; they have no engine execution path and never
            // fire from a TriggerContext.
            OptInvertedCostComparison
            | OptDroppedRewritePrecondition
            | OptPushdownPastOuterJoin
            | OptStaleCardinalityAfterPruning
            | OptHintIgnoredUnderMemoCollision => false,
            // DML complement: fired by the DML executor, which reads the
            // enabled set with `contains` while applying a mutation; no
            // SELECT execution path fires them.
            DmlStaleIndexAfterUpdate
            | DmlDeleteSkipsNullKey
            | DmlLostUpdateThroughPrunedColumn
            | DmlRollbackLeaksInsertedRow
            | DmlCommitBoundaryTornVisibility => false,
        }
    }
}

/// A set of fault kinds, one bit each: the faults compiled into one
/// simulated DBMS build, or the subset of them a context triggers
/// ([`FaultSet::active`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FaultSet(u64);

impl FaultSet {
    pub fn none() -> Self {
        FaultSet::default()
    }

    pub fn of(kinds: &[FaultKind]) -> Self {
        let mut set = FaultSet::none();
        for &kind in kinds {
            set.enable(kind);
        }
        set
    }

    pub fn all() -> Self {
        FaultSet::of(&FaultKind::ALL)
    }

    fn bit(kind: FaultKind) -> u64 {
        // The last variant, so every kind has a bit.
        const _: () = assert!((FaultKind::DmlCommitBoundaryTornVisibility as u32) < 64);
        1 << kind as u32
    }

    pub fn enable(&mut self, kind: FaultKind) {
        self.0 |= FaultSet::bit(kind);
    }

    pub fn contains(self, kind: FaultKind) -> bool {
        self.0 & FaultSet::bit(kind) != 0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The enabled kinds whose trigger `ctx` satisfies — what an
    /// interception point reads, decided once per context.
    pub fn active(self, ctx: &TriggerContext) -> FaultSet {
        let active = self.iter().filter(|k| k.triggered(ctx));
        FaultSet(active.fold(0, |bits, k| bits | FaultSet::bit(k)))
    }

    /// The enabled kinds, in declaration order.
    pub fn kinds(self) -> Vec<FaultKind> {
        self.iter().collect()
    }

    fn iter(self) -> impl Iterator<Item = FaultKind> {
        let every = (FaultKind::ALL.iter())
            .chain(&FaultKind::COLUMNAR)
            .chain(&FaultKind::DISK)
            .chain(&FaultKind::OPTIMIZER)
            .chain(&FaultKind::DML);
        every.copied().filter(move |&k| self.contains(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_matches_table_4_structure() {
        assert_eq!(FaultKind::ALL.len(), 20);
        let per_dbms = |d: &str| FaultKind::ALL.iter().filter(|f| f.dbms() == d).count();
        assert_eq!(per_dbms("MySQL-like"), 7);
        assert_eq!(per_dbms("MariaDB-like"), 5);
        assert_eq!(per_dbms("TiDB-like"), 5);
        assert_eq!(per_dbms("X-DB-like"), 3);
        // ids are 1..=20 and unique
        let ids: HashSet<u32> = FaultKind::ALL.iter().map(|f| f.table4_id()).collect();
        assert_eq!(ids.len(), 20);
        assert!(ids.contains(&1) && ids.contains(&20));
        // every fault has a non-empty description and a severity label
        for f in FaultKind::ALL {
            assert!(!f.description().is_empty());
            assert!(!f.severity().label().is_empty());
            assert!(!f.status().is_empty());
        }
    }

    #[test]
    fn triggers_require_the_right_path() {
        let mut ctx = TriggerContext::default();
        assert!(!FaultKind::HashJoinNullMatchesEmpty.triggered(&ctx));
        ctx.algo = Some(JoinAlgo::HashJoin);
        assert!(FaultKind::HashJoinNullMatchesEmpty.triggered(&ctx));
        assert!(!FaultKind::MergeJoinNegativeZeroMiss.triggered(&ctx));
        ctx.algo = Some(JoinAlgo::SortMergeJoin);
        assert!(FaultKind::MergeJoinNegativeZeroMiss.triggered(&ctx));
        // switch-dependent trigger
        let mut ctx = TriggerContext {
            algo: Some(JoinAlgo::BlockNestedLoop),
            ..Default::default()
        };
        assert!(!FaultKind::BnlhDisallowedBlankValues.triggered(&ctx));
        ctx.switched_off.push(SwitchName::JoinCacheHashed);
        assert!(FaultKind::BnlhDisallowedBlankValues.triggered(&ctx));
    }

    #[test]
    fn fault_set_activation() {
        let fs = FaultSet::of(&[FaultKind::MergeJoinDropsLastRun]);
        let ctx = TriggerContext {
            algo: Some(JoinAlgo::SortMergeJoin),
            ..Default::default()
        };
        assert!(fs.active(&ctx).contains(FaultKind::MergeJoinDropsLastRun));
        assert!(!fs.active(&ctx).contains(FaultKind::MergeJoinVarcharEmpty));
        assert!(FaultSet::none().is_empty());
        assert_eq!(FaultSet::all().len(), 20);
        let mut fs = FaultSet::none();
        fs.enable(FaultKind::SemiJoinWrongResults);
        assert!(fs.contains(FaultKind::SemiJoinWrongResults));
    }

    /// Every one of the 39 kinds has its own bit: a set of any of them
    /// holds exactly those, lists them in declaration order, and its active
    /// subset never holds a kind it does not.
    #[test]
    fn fault_set_round_trips_every_kind() {
        let every: Vec<FaultKind> = [
            &FaultKind::ALL[..],
            &FaultKind::COLUMNAR,
            &FaultKind::DISK,
            &FaultKind::OPTIMIZER,
            &FaultKind::DML,
        ]
        .concat();
        assert_eq!(every.len(), 39);
        assert!(every.windows(2).all(|w| w[0] < w[1]), "declaration order");
        let ids: Vec<u32> = every.iter().map(|k| k.table4_id()).collect();
        assert_eq!(ids, (1..=39).collect::<Vec<u32>>());
        let all = FaultSet::of(&every);
        assert_eq!((all.len(), all.kinds()), (39, every.clone()));
        for (i, &kind) in every.iter().enumerate() {
            let one = FaultSet::of(&[kind]);
            assert_eq!((one.len(), one.kinds()), (1, vec![kind]));
            for &other in &every {
                assert_eq!(one.contains(other), other == kind, "{kind:?} / {other:?}");
            }
            // every other kind, in order
            let rest: Vec<FaultKind> = (every.iter().enumerate())
                .filter(|&(j, _)| j != i)
                .map(|(_, &k)| k)
                .collect();
            let set = FaultSet::of(&rest);
            assert_eq!((set.len(), set.kinds()), (38, rest.clone()));
            assert!(!set.contains(kind));
        }
        let busiest = TriggerContext {
            algo: Some(JoinAlgo::SortMergeJoin),
            join_type: Some(JoinType::LeftOuter),
            semi_strategy: Some(SemiJoinStrategy::FirstMatch),
            materialization: true,
            subquery_present: true,
            subquery_plan: Some(SubqueryPlan::Materialize),
            simplified_from_outer: true,
            uses_join_buffer: true,
            switched_off: SwitchName::ALL.to_vec(),
        };
        for ctx in [TriggerContext::default(), busiest] {
            for set in [all, FaultSet::of(&every[..20]), FaultSet::of(&[every[38]])] {
                let active = set.active(&ctx);
                for &kind in &every {
                    assert_eq!(
                        active.contains(kind),
                        set.contains(kind) && kind.triggered(&ctx),
                        "{kind:?}"
                    );
                }
            }
        }
        assert_eq!(FaultSet::none().kinds(), vec![]);
    }

    #[test]
    fn columnar_complement_is_disjoint_from_table_4() {
        for f in FaultKind::COLUMNAR {
            assert!(!FaultKind::ALL.contains(&f));
            assert_eq!(f.dbms(), "Columnar");
            assert_eq!(f.status(), "Seeded");
            assert!(!f.description().is_empty());
            assert!((21..=24).contains(&f.table4_id()));
        }
        let mut ids: Vec<u32> = FaultKind::COLUMNAR.iter().map(|f| f.table4_id()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn disk_complement_is_disjoint_from_every_other_engine() {
        for f in FaultKind::DISK {
            assert!(!FaultKind::ALL.contains(&f));
            assert!(!FaultKind::COLUMNAR.contains(&f));
            assert_eq!(f.dbms(), "Disk");
            assert_eq!(f.status(), "Seeded");
            assert!(!f.description().is_empty());
            assert!(!f.severity().label().is_empty());
            assert!((25..=29).contains(&f.table4_id()));
        }
        let mut ids: Vec<u32> = FaultKind::DISK.iter().map(|f| f.table4_id()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 5);
        // a crash-recovery fault needs a steering structure to observe it
        let mut ctx = TriggerContext::default();
        assert!(!FaultKind::DiskTornPageWrite.triggered(&ctx));
        assert!(!FaultKind::DiskRecoveryDoubleReplay.triggered(&ctx));
        ctx.algo = Some(JoinAlgo::HashJoin);
        assert!(FaultKind::DiskTornPageWrite.triggered(&ctx));
        assert!(FaultKind::DiskStaleFrameRead.triggered(&ctx));
        assert!(!FaultKind::DiskSplitHighKeyLoss.triggered(&ctx));
        ctx.algo = Some(JoinAlgo::SortMergeJoin);
        assert!(FaultKind::DiskSplitHighKeyLoss.triggered(&ctx));
        assert!(!FaultKind::DiskStaleFrameRead.triggered(&ctx));
        ctx.subquery_present = true;
        assert!(FaultKind::DiskRecoveryDoubleReplay.triggered(&ctx));
    }

    #[test]
    fn optimizer_complement_is_disjoint_and_never_engine_triggered() {
        for f in FaultKind::OPTIMIZER {
            assert!(!FaultKind::ALL.contains(&f));
            assert!(!FaultKind::COLUMNAR.contains(&f));
            assert!(!FaultKind::DISK.contains(&f));
            assert_eq!(f.dbms(), "Optimizer");
            assert_eq!(f.status(), "Seeded");
            assert!(!f.description().is_empty());
            assert!(!f.severity().label().is_empty());
            assert!((30..=34).contains(&f.table4_id()));
            // No engine execution path can fire them — even the busiest
            // trigger context leaves them dormant.
            let ctx = TriggerContext {
                algo: Some(JoinAlgo::HashJoin),
                join_type: Some(JoinType::LeftOuter),
                semi_strategy: Some(SemiJoinStrategy::Materialization),
                materialization: true,
                subquery_present: true,
                subquery_plan: Some(SubqueryPlan::SemiJoinTransform(
                    SemiJoinStrategy::Materialization,
                )),
                simplified_from_outer: true,
                uses_join_buffer: true,
                switched_off: vec![SwitchName::JoinCacheBka, SwitchName::JoinCacheHashed],
            };
            assert!(!f.triggered(&ctx));
        }
        let mut ids: Vec<u32> = FaultKind::OPTIMIZER.iter().map(|f| f.table4_id()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn dml_complement_is_disjoint_and_never_engine_triggered() {
        for f in FaultKind::DML {
            assert!(!FaultKind::ALL.contains(&f));
            assert!(!FaultKind::COLUMNAR.contains(&f));
            assert!(!FaultKind::DISK.contains(&f));
            assert!(!FaultKind::OPTIMIZER.contains(&f));
            assert_eq!(f.dbms(), "DML");
            assert_eq!(f.status(), "Seeded");
            assert!(!f.description().is_empty());
            assert!(!f.severity().label().is_empty());
            assert!((35..=39).contains(&f.table4_id()));
            // SELECT execution paths never fire them — only the DML executor.
            let ctx = TriggerContext {
                algo: Some(JoinAlgo::HashJoin),
                join_type: Some(JoinType::LeftOuter),
                semi_strategy: Some(SemiJoinStrategy::Materialization),
                materialization: true,
                subquery_present: true,
                subquery_plan: Some(SubqueryPlan::SemiJoinTransform(
                    SemiJoinStrategy::Materialization,
                )),
                simplified_from_outer: true,
                uses_join_buffer: true,
                switched_off: vec![SwitchName::JoinCacheBka, SwitchName::JoinCacheHashed],
            };
            assert!(!f.triggered(&ctx));
        }
        let mut ids: Vec<u32> = FaultKind::DML.iter().map(|f| f.table4_id()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn severity_assignment_follows_table_4() {
        assert_eq!(
            FaultKind::SemiJoinWrongResults.severity(),
            Severity::Critical
        );
        assert_eq!(
            FaultKind::HashJoinVarcharViaDouble.severity(),
            Severity::Serious
        );
        assert_eq!(FaultKind::JoinCacheStaleRow.severity(), Severity::Major);
        assert_eq!(
            FaultKind::MergeJoinDropsLastRun.severity(),
            Severity::Critical
        );
        assert_eq!(FaultKind::SemiJoinFloatPrecision.severity(), Severity::High);
    }
}
