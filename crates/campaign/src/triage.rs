//! Fleet-level bug triage: plan-fingerprint deduplication of raw reports
//! into bug classes.
//!
//! A campaign at fleet throughput produces thousands of raw divergence
//! reports; almost all of them are re-sightings of a known bug through a
//! different hint set or literal. [`BugTriage`] collapses them using
//! [`BugReport::class_key`] — root-cause faults plus the canonical
//! plan-graph fingerprint — keeping one representative report per class and
//! counting the duplicates (the campaign's dedup ratio).

use std::collections::{BTreeSet, HashMap};
use tqs_core::bugs::BugReport;

/// One deduplicated bug class.
#[derive(Debug, Clone)]
pub struct TriageClass {
    /// The dedup key ([`BugReport::class_key`]).
    pub key: String,
    /// Canonical plan-graph fingerprint, when stamped.
    pub fingerprint: Option<u64>,
    /// The first report that established the class. Its `minimized_sql` is
    /// filled in once the per-class minimizer has run.
    pub representative: BugReport,
    /// Id of the campaign cell that discovered the class.
    pub cell_id: usize,
    /// Admissions collapsed into this class, including the representative.
    /// A campaign admits a class once per cell that found it.
    pub sightings: usize,
}

/// The campaign-wide dedup state.
#[derive(Debug, Clone, Default)]
pub struct BugTriage {
    classes: Vec<TriageClass>,
    by_key: HashMap<String, usize>,
}

impl BugTriage {
    pub fn new() -> BugTriage {
        BugTriage::default()
    }

    /// Offer one raw report. Returns `Some(class index)` when the report
    /// established a *new* class (the caller then owns minimizing the
    /// representative and persisting the class), `None` when it was a
    /// duplicate sighting.
    pub fn admit(&mut self, report: BugReport, cell_id: usize) -> Option<usize> {
        // Duplicate sightings (the overwhelming majority at fleet
        // throughput) borrow the report's memoized key — no allocation.
        match self.by_key.get(report.class_key()) {
            Some(&idx) => {
                self.classes[idx].sightings += 1;
                None
            }
            None => {
                let idx = self.classes.len();
                let key = report.class_key().to_string();
                self.by_key.insert(key.clone(), idx);
                self.classes.push(TriageClass {
                    key,
                    fingerprint: report.fingerprint,
                    representative: report,
                    cell_id,
                    sightings: 1,
                });
                Some(idx)
            }
        }
    }

    /// Record the minimized reproducer on a class admitted earlier.
    pub fn set_minimized(&mut self, idx: usize, minimized_sql: String) {
        self.classes[idx].representative.minimized_sql = Some(minimized_sql);
    }

    pub fn classes(&self) -> &[TriageClass] {
        &self.classes
    }

    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The deduplicated class-key set — the campaign's primary artifact, and
    /// what the resume test compares bit-for-bit.
    pub fn class_keys(&self) -> BTreeSet<String> {
        self.classes.iter().map(|c| c.key.clone()).collect()
    }

    /// Classes at root-cause granularity: the sorted fault-label set of each
    /// class (or the oracle label when no fault provenance exists). Coarser
    /// than [`class_keys`](Self::class_keys); used to compare hunts that ran
    /// on different data partitions.
    pub fn fault_classes(&self) -> BTreeSet<String> {
        self.classes
            .iter()
            .map(|c| {
                let mut types = c.representative.bug_types();
                types.sort();
                types.join("+")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_core::bugs::OracleKind;
    use tqs_engine::FaultKind;

    fn report(fp: u64, fault: FaultKind) -> BugReport {
        BugReport {
            dbms: "MySQL-like".into(),
            oracle: OracleKind::GroundTruth,
            sql: "SELECT T1.a FROM T1".into(),
            transformed_sql: "SELECT T1.a FROM T1".into(),
            hint_label: "default".into(),
            expected_rows: 1,
            observed_rows: 0,
            fired: vec![fault],
            minimized_sql: None,
            fingerprint: Some(fp),
            keys: Default::default(),
        }
    }

    #[test]
    fn admit_separates_new_classes_from_sightings() {
        let mut t = BugTriage::new();
        let first = t.admit(report(1, FaultKind::SemiJoinWrongResults), 0);
        assert_eq!(first, Some(0));
        assert_eq!(t.admit(report(1, FaultKind::SemiJoinWrongResults), 3), None);
        assert_eq!(
            t.admit(report(2, FaultKind::SemiJoinWrongResults), 1),
            Some(1)
        );
        assert_eq!(t.class_count(), 2);
        assert_eq!(t.classes().iter().map(|c| c.sightings).sum::<usize>(), 3);
        assert_eq!(t.classes()[0].sightings, 2);
        assert_eq!(t.classes()[0].cell_id, 0);
        assert_eq!(t.class_keys().len(), 2);
    }

    #[test]
    fn fault_classes_collapse_plan_variants() {
        let mut t = BugTriage::new();
        t.admit(report(1, FaultKind::MergeJoinDropsLastRun), 0);
        t.admit(report(2, FaultKind::MergeJoinDropsLastRun), 0);
        t.admit(report(3, FaultKind::SemiJoinWrongResults), 1);
        assert_eq!(t.class_count(), 3);
        let faults = t.fault_classes();
        assert_eq!(faults.len(), 2);
        assert!(faults.contains("MergeJoinDropsLastRun"));
    }

    #[test]
    fn set_minimized_updates_the_representative() {
        let mut t = BugTriage::new();
        let idx = t
            .admit(report(9, FaultKind::SemiJoinWrongResults), 0)
            .unwrap();
        t.set_minimized(idx, "SELECT 1".into());
        assert_eq!(
            t.classes()[idx].representative.minimized_sql.as_deref(),
            Some("SELECT 1")
        );
    }
}
