//! Cross-engine parity property: on fault-free profiles, the disk engine
//! (leaf-chain page store, buffer pool, WAL) and the row engine produce
//! identical result bags for generated `SelectStmt`s — the invariant that
//! lets a pristine build of either engine referee the other in cross-engine
//! and three-way differential testing.

use proptest::prelude::*;
use std::sync::OnceLock;
use tqs_core::backend::{DbmsConnector, EngineKind};
use tqs_core::dsg::{
    DsgConfig, DsgDatabase, QueryGenConfig, QueryGenerator, UniformScorer, WideSource,
};
use tqs_core::hintgen::hint_sets_for;
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_sql::render::render_stmt;
use tqs_storage::widegen::ShoppingConfig;

fn shared_dsg() -> &'static DsgDatabase {
    static DSG: OnceLock<DsgDatabase> = OnceLock::new();
    DSG.get_or_init(|| {
        DsgDatabase::build(&DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 160,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: Some(NoiseConfig {
                epsilon: 0.05,
                seed: 29,
                max_injections: 20,
            }),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Row and disk engines agree statement-for-statement (default plan and
    /// every hint-set transformation) on fault-free builds. The disk engine
    /// round-trips every row through the row codec, the leaf-chain heap and the
    /// buffer pool, so this property also certifies the storage stack
    /// itself: any codec/split/eviction defect shows up as a bag mismatch.
    #[test]
    fn pristine_disk_and_row_engines_are_answer_identical(
        seed in 0u64..10_000,
        profile_idx in 0usize..4,
    ) {
        let dsg = shared_dsg();
        let profile = ProfileId::ALL[profile_idx];
        let mut row = EngineKind::Row.connect_pristine(profile, dsg);
        let mut disk = EngineKind::Disk.connect_pristine(profile, dsg);
        let mut gen = QueryGenerator::new(QueryGenConfig {
            seed,
            ..Default::default()
        });
        for _ in 0..5 {
            let stmt = gen.generate(dsg, None, &UniformScorer);
            for hs in hint_sets_for(profile, &stmt) {
                let a = row.execute_with_hints(&stmt, &hs);
                let b = disk.execute_with_hints(&stmt, &hs);
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(
                            a.result.same_bag(&b.result),
                            "{profile:?}/{} diverged on:\n{}\nrow ({} rows):\n{}\ndisk ({} rows):\n{}",
                            hs.label,
                            render_stmt(&stmt),
                            a.result.row_count(),
                            a.result.pretty(),
                            b.result.row_count(),
                            b.result.pretty()
                        );
                        prop_assert!(a.fired.is_empty());
                        prop_assert!(b.fired.is_empty());
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => prop_assert!(
                        false,
                        "engines disagree on executability of {}: row ok={}, disk ok={}",
                        render_stmt(&stmt),
                        a.is_ok(),
                        b.is_ok()
                    ),
                }
            }
        }
    }
}
