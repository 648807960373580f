//! # tqs-schema
//!
//! The data layer of DSG (Data-guided Schema and query Generation):
//!
//! * [`fd`] — TANE-style functional-dependency discovery and FD-set algebra.
//! * [`normalize`] — 3NF synthesis of the wide table into schema tables with
//!   explicit RowIDs, the populated [`tqs_storage::Catalog`], the RowID map
//!   and the join bitmap index (§3.1).
//! * `rowmap` / [`bitmap`] — the RowID map table and the uncompressed
//!   join bitmap index with jump intersection.
//! * [`noise`] — noise injection with wide-table synchronization (§3.2).
//! * [`groundtruth`] — ground-truth result recovery per Table 2 (§3.4).

pub mod bitmap;
pub mod fd;
pub mod groundtruth;
pub mod noise;
pub mod normalize;
pub(crate) mod rowmap;

pub use fd::{FdDiscoveryConfig, FdSet};
pub use groundtruth::{GroundTruth, GroundTruthEvaluator, GtError};
pub use noise::{inject_noise, NoiseConfig, NoiseRecord};
pub use normalize::{normalize, NormalizedDb};
pub use rowmap::RowIdMap;

#[cfg(test)]
mod proptests {
    use crate::bitmap::Bitmap;
    use proptest::prelude::*;

    fn arb_bitmap() -> impl Strategy<Value = Bitmap> {
        (
            1usize..400,
            proptest::collection::vec(any::<bool>(), 0..400),
        )
            .prop_map(|(len, bits)| {
                let mut b = Bitmap::new(len);
                for (i, v) in bits.into_iter().enumerate().take(len) {
                    b.set(i, v);
                }
                b
            })
    }

    proptest! {
        /// Bitmap algebra identities used by the Table 2 fold.
        #[test]
        fn bitmap_algebra(a in arb_bitmap(), b in arb_bitmap()) {
            let and = a.and(&b);
            let or = a.or(&b);
            let anti = a.and_not(&b);
            // AND ⊆ A, A ⊆ OR, anti ∩ b = ∅
            for i in and.ones() { prop_assert!(a.get(i) && b.get(i)); }
            for i in a.ones() { prop_assert!(or.get(i)); }
            for i in anti.ones() { prop_assert!(a.get(i) && !b.get(i)); }
            // |A| = |A∧B| + |A∧¬B|
            prop_assert_eq!(a.count_ones(), and.count_ones() + anti.count_ones());
        }
    }
}
