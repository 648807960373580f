//! The campaign fleet: one scheduler for hunt cells and re-verification
//! units alike.
//!
//! Workers take the next item from one shared atomic cursor over a slice —
//! the classic self-scheduling loop — so a straggler never strands undone
//! items, and every result lands in its item's slot, so callers read them
//! back in item order whichever worker ran what. Campaign items take tenths
//! of a second to seconds each; at that granularity a single counter costs
//! nothing measurable and needs no locks.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Run `run` over `items` on `workers` scoped threads (0 is clamped to 1).
///
/// Workers stop taking items once `stop` is set (an outside request, such as
/// a campaign's stop handle) or once an item returns
/// [`ControlFlow::Break`]; items already running finish. The result is in
/// item order, `None` marking an item no worker took.
pub(crate) fn drain_in_order<T, R>(
    workers: usize,
    items: &[T],
    stop: &AtomicBool,
    run: impl Fn(&T) -> ControlFlow<R, R> + Sync,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send + Sync,
{
    let cursor = AtomicUsize::new(0);
    let halted = AtomicBool::new(false);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) && !halted.load(Ordering::Relaxed) {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    let result = match run(item) {
                        ControlFlow::Continue(result) => result,
                        ControlFlow::Break(result) => {
                            halted.store(true, Ordering::Relaxed);
                            result
                        }
                    };
                    // The cursor hands out each index once, so the slot is
                    // empty.
                    let _ = slots[i].set(result);
                }
            });
        }
    });
    slots.into_iter().map(OnceLock::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(workers: usize, items: &[usize]) -> Vec<Option<usize>> {
        drain_in_order(workers, items, &AtomicBool::new(false), |&i| {
            ControlFlow::Continue(i * 10)
        })
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..50).collect();
        let want: Vec<Option<usize>> = items.iter().map(|i| Some(i * 10)).collect();
        for workers in [1, 3] {
            assert_eq!(drain(workers, &items), want);
        }
        assert!(drain(2, &[]).is_empty());
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        assert_eq!(drain(0, &[7]), [Some(70)]);
    }

    #[test]
    fn concurrent_workers_drain_without_duplication() {
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        let results = drain_in_order(4, &items, &AtomicBool::new(false), |&i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            ControlFlow::Continue(i)
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert!(results.iter().enumerate().all(|(i, r)| *r == Some(i)));
    }

    #[test]
    fn a_halting_item_stops_the_fleet() {
        let items: Vec<usize> = (0..10).collect();
        let results = drain_in_order(1, &items, &AtomicBool::new(false), |&i| {
            if i == 3 {
                ControlFlow::Break(i)
            } else {
                ControlFlow::Continue(i)
            }
        });
        let want: Vec<Option<usize>> = (0..10).map(|i| (i <= 3).then_some(i)).collect();
        assert_eq!(results, want);
        // Under several workers, items already running when one halts still
        // finish, so only the halting item's own slot is certain.
        let results = drain_in_order(3, &items, &AtomicBool::new(false), |&i| {
            if i == 0 {
                ControlFlow::Break(i)
            } else {
                ControlFlow::Continue(i)
            }
        });
        assert_eq!(results[0], Some(0));
        assert!(results
            .iter()
            .enumerate()
            .all(|(i, r)| r.is_none() || *r == Some(i)));
    }

    #[test]
    fn a_stop_request_leaves_every_item_untaken() {
        let stop = AtomicBool::new(true);
        let results = drain_in_order(2, &[1, 2, 3], &stop, |&i| ControlFlow::Continue(i));
        assert_eq!(results, [None, None, None]);
    }
}
