//! DBMS profiles: the four simulated systems the experiments run against.
//!
//! Each profile fixes (a) metadata mirroring Table 3, (b) the optimizer's
//! default join-algorithm preferences, and (c) the subset of latent faults
//! attributed to that system in Table 4 (7 MySQL-like, 5 MariaDB-like,
//! 5 TiDB-like, 3 X-DB-like bug types).

use crate::faults::{FaultKind, FaultSet};
use crate::plan::JoinAlgo;

/// Descriptive metadata, used by the Table 3 experiment binary.
#[derive(Debug, Clone)]
pub struct ProfileInfo {
    pub name: String,
    pub version: String,
    pub db_engines_rank: Option<u32>,
    pub stack_overflow_rank: Option<u32>,
    pub github_stars: Option<&'static str>,
    pub loc: &'static str,
    pub first_release: u32,
}

/// A simulated DBMS build: metadata + optimizer defaults + latent faults.
#[derive(Debug, Clone)]
pub struct DbmsProfile {
    pub info: ProfileInfo,
    /// Preferred algorithm for equi-joins when no hint applies.
    pub default_equi_algo: JoinAlgo,
    /// Whether IN-subqueries are transformed to semi-joins by default.
    pub default_semijoin_transform: bool,
    /// Whether subquery materialization is on by default.
    pub default_materialization: bool,
    /// Join buffer capacity in rows for buffered algorithms.
    pub join_buffer_rows: usize,
    pub faults: FaultSet,
}

/// Identifier for the four shipped profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileId {
    MysqlLike,
    MariadbLike,
    TidbLike,
    XdbLike,
}

impl ProfileId {
    pub const ALL: [ProfileId; 4] = [
        ProfileId::MysqlLike,
        ProfileId::MariadbLike,
        ProfileId::TidbLike,
        ProfileId::XdbLike,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ProfileId::MysqlLike => "MySQL-like",
            ProfileId::MariadbLike => "MariaDB-like",
            ProfileId::TidbLike => "TiDB-like",
            ProfileId::XdbLike => "X-DB-like",
        }
    }
}

impl DbmsProfile {
    /// Profile for the given id, with its full Table 4 fault complement plus
    /// the DML complement ([`FaultKind::DML`]). The DML faults only fire from
    /// the DML executor, never on a SELECT path, so SELECT-only workloads
    /// behave exactly as they did before the complement existed.
    pub fn build(id: ProfileId) -> DbmsProfile {
        let mut p = DbmsProfile::table4_build(id);
        for f in FaultKind::DML {
            p.faults.enable(f);
        }
        p
    }

    /// Profile for the given id with only its Table 4 fault complement.
    fn table4_build(id: ProfileId) -> DbmsProfile {
        match id {
            ProfileId::MysqlLike => DbmsProfile {
                info: ProfileInfo {
                    name: "MySQL-like".into(),
                    version: "8.0.28-sim".into(),
                    db_engines_rank: Some(2),
                    stack_overflow_rank: Some(1),
                    github_stars: Some("8.0k"),
                    loc: "3.8M",
                    first_release: 1995,
                },
                default_equi_algo: JoinAlgo::HashJoin,
                default_semijoin_transform: true,
                default_materialization: true,
                join_buffer_rows: 256,
                faults: FaultSet::of(&[
                    FaultKind::SemiJoinWrongResults,
                    FaultKind::HashJoinMaterializationZeroSplit,
                    FaultKind::SemiJoinUnknownData,
                    FaultKind::LeftHashJoinSubqueryNull,
                    FaultKind::AntiJoinMaterializationNullDrop,
                    FaultKind::ConstantCacheNullSafeEq,
                    FaultKind::HashJoinVarcharViaDouble,
                ]),
            },
            ProfileId::MariadbLike => DbmsProfile {
                info: ProfileInfo {
                    name: "MariaDB-like".into(),
                    version: "10.8.2-sim".into(),
                    db_engines_rank: Some(12),
                    stack_overflow_rank: Some(7),
                    github_stars: Some("4.3k"),
                    loc: "3.6M",
                    first_release: 2009,
                },
                default_equi_algo: JoinAlgo::BlockNestedLoopHashed,
                default_semijoin_transform: true,
                default_materialization: true,
                join_buffer_rows: 128,
                faults: FaultSet::of(&[
                    FaultKind::BkaDisallowedNullToEmpty,
                    FaultKind::BnlhDisallowedBlankValues,
                    FaultKind::OuterJoinCacheEmptyPad,
                    FaultKind::JoinBufferLimitDropsTail,
                    FaultKind::JoinCacheStaleRow,
                ]),
            },
            ProfileId::TidbLike => DbmsProfile {
                info: ProfileInfo {
                    name: "TiDB-like".into(),
                    version: "5.4.0-sim".into(),
                    db_engines_rank: Some(96),
                    stack_overflow_rank: None,
                    github_stars: Some("31.8k"),
                    loc: "0.8M",
                    first_release: 2017,
                },
                default_equi_algo: JoinAlgo::IndexJoin,
                default_semijoin_transform: false,
                default_materialization: true,
                join_buffer_rows: 256,
                faults: FaultSet::of(&[
                    FaultKind::MergeJoinOuterNullLoss,
                    FaultKind::MergeJoinNegativeZeroMiss,
                    FaultKind::MergeJoinVarcharEmpty,
                    FaultKind::MergeJoinNullInsteadOfValue,
                    FaultKind::MergeJoinDropsLastRun,
                ]),
            },
            ProfileId::XdbLike => DbmsProfile {
                info: ProfileInfo {
                    name: "X-DB-like".into(),
                    version: "beta 8.0.18-sim".into(),
                    db_engines_rank: None,
                    stack_overflow_rank: None,
                    github_stars: None,
                    loc: "(proprietary)",
                    first_release: 2019,
                },
                default_equi_algo: JoinAlgo::HashJoin,
                default_semijoin_transform: true,
                default_materialization: false,
                join_buffer_rows: 256,
                faults: FaultSet::of(&[
                    FaultKind::LeftToInnerNullZeroConfusion,
                    FaultKind::HashJoinNullMatchesEmpty,
                    FaultKind::SemiJoinFloatPrecision,
                ]),
            },
        }
    }

    /// The same build with every latent fault fixed — what "pristine" means
    /// on any executor (`DbmsProfile::columnar(id).fault_free()`).
    pub fn fault_free(mut self) -> DbmsProfile {
        self.faults = FaultSet::none();
        self
    }

    /// A fault-free build of the same profile (used to validate that TQS
    /// reports no bugs on a correct engine, and by ablation baselines).
    pub fn pristine(id: ProfileId) -> DbmsProfile {
        DbmsProfile::build(id).fault_free()
    }

    /// The columnar (vectorized) build of `id`: same optimizer defaults and
    /// hint dialect, but executed batch-at-a-time over column vectors by
    /// [`crate::columnar::ColumnarDatabase`], with the columnar fault
    /// complement ([`FaultKind::COLUMNAR`]) instead of the Table 4 faults.
    pub fn columnar(id: ProfileId) -> DbmsProfile {
        let mut p = DbmsProfile::table4_build(id);
        p.info.name = format!("{} [columnar]", p.info.name);
        p.info.version = format!("{}-col", p.info.version);
        p.faults = FaultSet::of(&FaultKind::COLUMNAR);
        for f in FaultKind::DML {
            p.faults.enable(f);
        }
        p
    }

    /// The disk build of `id`: same optimizer defaults and hint dialect, but
    /// scanning its tables out of the disk-backed page store
    /// ([`crate::disk::DiskDatabase`]), with the storage-layer fault
    /// complement ([`FaultKind::DISK`]) instead of the Table 4 faults.
    pub fn disk(id: ProfileId) -> DbmsProfile {
        let mut p = DbmsProfile::table4_build(id);
        p.info.name = format!("{} [disk]", p.info.name);
        p.info.version = format!("{}-disk", p.info.version);
        p.faults = FaultSet::of(&FaultKind::DISK);
        for f in FaultKind::DML {
            p.faults.enable(f);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_profiles_with_table_4_fault_counts() {
        // Table 4 counts per profile, plus the shared DML complement every
        // faulty build carries.
        let counts: Vec<usize> = ProfileId::ALL
            .iter()
            .map(|id| {
                DbmsProfile::build(*id)
                    .faults
                    .kinds()
                    .iter()
                    .filter(|f| f.dbms() != "DML")
                    .count()
            })
            .collect();
        assert_eq!(counts, vec![7, 5, 5, 3]);
        for id in ProfileId::ALL {
            let p = DbmsProfile::build(id);
            for f in FaultKind::DML {
                assert!(p.faults.contains(f), "{id:?} missing {f:?}");
            }
        }
    }

    #[test]
    fn faults_are_attributed_to_their_own_profile() {
        for id in ProfileId::ALL {
            let p = DbmsProfile::build(id);
            for f in p.faults.kinds() {
                assert!(
                    f.dbms() == id.name() || f.dbms() == "DML",
                    "{f:?} attributed to {}",
                    f.dbms()
                );
            }
        }
    }

    #[test]
    fn pristine_profiles_have_no_faults() {
        for id in ProfileId::ALL {
            assert!(DbmsProfile::pristine(id).faults.is_empty());
            assert_eq!(
                DbmsProfile::pristine(id).info.name,
                DbmsProfile::build(id).info.name
            );
        }
    }

    #[test]
    fn table_3_metadata_is_present() {
        let mysql = DbmsProfile::build(ProfileId::MysqlLike);
        assert_eq!(mysql.info.db_engines_rank, Some(2));
        assert_eq!(mysql.info.first_release, 1995);
        let tidb = DbmsProfile::build(ProfileId::TidbLike);
        assert_eq!(tidb.info.github_stars, Some("31.8k"));
    }

    #[test]
    fn columnar_builds_carry_the_columnar_complement() {
        for id in ProfileId::ALL {
            let p = DbmsProfile::columnar(id);
            assert!(p.info.name.contains("[columnar]"));
            assert_eq!(
                p.faults.len(),
                FaultKind::COLUMNAR.len() + FaultKind::DML.len()
            );
            for f in p.faults.kinds() {
                assert!(
                    f.dbms() == "Columnar" || f.dbms() == "DML",
                    "{f:?} attributed to {}",
                    f.dbms()
                );
            }
            assert!(DbmsProfile::columnar(id).fault_free().faults.is_empty());
        }
    }

    #[test]
    fn disk_builds_carry_the_disk_complement() {
        for id in ProfileId::ALL {
            let p = DbmsProfile::disk(id);
            assert!(p.info.name.contains("[disk]"));
            assert!(p.info.version.ends_with("-disk"));
            assert_eq!(p.faults.len(), FaultKind::DISK.len() + FaultKind::DML.len());
            for f in p.faults.kinds() {
                assert!(
                    f.dbms() == "Disk" || f.dbms() == "DML",
                    "{f:?} attributed to {}",
                    f.dbms()
                );
            }
            assert!(DbmsProfile::disk(id).fault_free().faults.is_empty());
        }
    }

    #[test]
    fn default_algorithms_differ_across_profiles() {
        let algos: std::collections::HashSet<_> = ProfileId::ALL
            .iter()
            .map(|id| DbmsProfile::build(*id).default_equi_algo)
            .collect();
        assert!(algos.len() >= 3);
    }
}
