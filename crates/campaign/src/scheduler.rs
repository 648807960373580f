//! Work-stealing cell queues for the campaign fleet.
//!
//! Cells — (shard × profile × oracle × engine × plan mode × workload) work
//! units — are dealt round-robin onto one deque per worker. A worker drains
//! its own deque from the front; when empty it steals from the *back* of the
//! other deques, so thieves and owners contend on opposite ends and a
//! straggler worker never strands undone cells. Campaign cells take seconds
//! each, so simple mutex-protected deques beat a lock-free implementation on
//! clarity at no measurable cost at this granularity. A worker that panics
//! while holding a deque does not strand its cells either: the locks ignore
//! poisoning (`crate::Unpoisoned`).

use crate::Unpoisoned;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One deque per worker plus the stealing protocol.
pub(crate) struct WorkQueues<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
}

impl<T> WorkQueues<T> {
    /// Deal `items` round-robin onto `workers` deques (at least one).
    pub(crate) fn deal(workers: usize, items: impl IntoIterator<Item = T>) -> WorkQueues<T> {
        let workers = workers.max(1);
        let queues: Vec<Mutex<VecDeque<T>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, item) in items.into_iter().enumerate() {
            queues[i % workers].lock_unpoisoned().push_back(item);
        }
        WorkQueues { queues }
    }

    pub(crate) fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Next cell for `worker`: its own deque front first, then a steal from
    /// the back of the first non-empty deque scanning from its right-hand
    /// neighbor. `None` means the whole grid is drained.
    pub(crate) fn pop(&self, worker: usize) -> Option<T> {
        let n = self.queues.len();
        let own = worker % n;
        if let Some(item) = self.queues[own].lock_unpoisoned().pop_front() {
            return Some(item);
        }
        for off in 1..n {
            if let Some(item) = self.queues[(own + off) % n].lock_unpoisoned().pop_back() {
                return Some(item);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Items left across all deques.
    fn remaining<T>(q: &WorkQueues<T>) -> usize {
        q.queues.iter().map(|d| d.lock_unpoisoned().len()).sum()
    }

    #[test]
    fn deals_round_robin_and_drains_completely() {
        let q = WorkQueues::deal(3, 0..10);
        assert_eq!(q.workers(), 3);
        assert_eq!(remaining(&q), 10);
        let mut seen: Vec<usize> = Vec::new();
        // worker 1 drains everything: its own cells first, then steals
        while let Some(c) = q.pop(1) {
            seen.push(c);
        }
        assert_eq!(remaining(&q), 0);
        seen.sort();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn own_cells_come_first_then_steals_from_the_back() {
        let q = WorkQueues::deal(2, 0..6);
        // worker 0 owns [0, 2, 4], worker 1 owns [1, 3, 5]
        assert_eq!(q.pop(0), Some(0));
        assert_eq!(q.pop(0), Some(2));
        assert_eq!(q.pop(0), Some(4));
        // now steal: from the back of worker 1's deque
        assert_eq!(q.pop(0), Some(5));
        assert_eq!(q.pop(1), Some(1));
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let q = WorkQueues::deal(0, ["only"]);
        assert_eq!(q.workers(), 1);
        assert_eq!(q.pop(0), Some("only"));
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn concurrent_workers_drain_without_duplication() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let q = WorkQueues::deal(4, 0..100);
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for w in 0..4 {
                let q = &q;
                let counts = &counts;
                s.spawn(move || {
                    while let Some(c) = q.pop(w) {
                        counts[c].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn a_panic_while_holding_a_deque_lock_strands_no_items() {
        let q = WorkQueues::deal(2, 0..6);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = q.queues[1].lock_unpoisoned();
                panic!("worker dies holding its deque");
            })
            .join()
        });
        assert!(died.is_err());
        assert!(q.queues[1].is_poisoned());
        assert_eq!(remaining(&q), 6);
        // The poisoned deque serves its owner from the front, then a thief
        // from the back.
        assert_eq!(q.pop(1), Some(1));
        let rest: Vec<usize> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(rest, [0, 2, 4, 5, 3]);
        assert_eq!(remaining(&q), 0);
    }
}
