//! The campaign fleet: one scheduler for hunt cells and re-verification
//! units alike.
//!
//! Workers take the next item from one shared atomic cursor over a slice —
//! the classic self-scheduling loop — so a straggler never strands undone
//! items. Items execute out of order and retire in order, as in a CPU's
//! reorder buffer (Smith & Pleszkun, 1985): the calling thread hands each
//! result to `retire` once every lower item has retired, so what `retire`
//! writes needs no lock and does not depend on which worker ran what. Items
//! take tenths of a second to seconds each; a counter and a channel cost
//! nothing measurable at that granularity.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Run `run` over `items` on `workers` scoped threads (0 is clamped to 1),
/// and call `retire` with each result in item order on the calling thread.
///
/// Workers stop taking items once `stop` is set (an outside request, such as
/// a campaign's stop handle) or once `retire` fails; items already running
/// finish. Items are taken in order, so after a stop every taken item still
/// retires; after a failure nothing more retires, and the error is returned.
pub(crate) fn drain_in_order<T, R, E>(
    workers: usize,
    items: &[T],
    stop: &AtomicBool,
    run: impl Fn(&T) -> R + Sync,
    mut retire: impl FnMut(&T, R) -> Result<(), E>,
) -> Result<(), E>
where
    T: Sync,
    R: Send,
{
    let (cursor, halted, run) = (&AtomicUsize::new(0), &AtomicBool::new(false), &run);
    let (finished, results) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            let finished = finished.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) && !halted.load(Ordering::Relaxed) {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    let _ = finished.send((i, run(item))); // errs once `retire` failed
                }
            });
        }
        drop(finished);
        // The reorder buffer: results that finished ahead of a lower item.
        let mut buffer: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let mut next = 0;
        for (i, result) in results {
            buffer[i] = Some(result);
            while let Some(result) = buffer.get_mut(next).and_then(Option::take) {
                if let Err(e) = retire(&items[next], result) {
                    halted.store(true, Ordering::Relaxed);
                    return Err(e);
                }
                next += 1;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// Every item's result, in the order `retire` saw them.
    fn drain(workers: usize, items: &[usize], stop: bool) -> Vec<usize> {
        let mut retired = Vec::new();
        let drained = drain_in_order(
            workers,
            items,
            &AtomicBool::new(stop),
            |&i| i * 10,
            |_, r| {
                retired.push(r);
                Ok::<(), Infallible>(())
            },
        );
        let Ok(()) = drained;
        retired
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..50).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 10).collect();
        for workers in [1, 3] {
            assert_eq!(drain(workers, &items, false), want);
        }
        assert!(drain(2, &[], false).is_empty());
    }

    #[test]
    fn items_retire_in_order_when_a_later_item_finishes_first() {
        // Item 0 blocks until item 2 has run, so item 2 finishes first; it
        // still retires after items 0 and 1.
        let two_ran = AtomicBool::new(false);
        let mut retired = Vec::new();
        let drained = drain_in_order(
            2,
            &[0, 1, 2],
            &AtomicBool::new(false),
            |&i| {
                while i == 0 && !two_ran.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                two_ran.fetch_or(i == 2, Ordering::SeqCst);
                i
            },
            |_, i| {
                retired.push(i);
                Ok::<(), Infallible>(())
            },
        );
        let Ok(()) = drained;
        assert_eq!(retired, [0, 1, 2]);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        assert_eq!(drain(0, &[7], false), [70]);
    }

    #[test]
    fn concurrent_workers_drain_without_duplication() {
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        let mut retired = Vec::new();
        let drained = drain_in_order(
            4,
            &items,
            &AtomicBool::new(false),
            |&i| counts[i].fetch_add(1, Ordering::Relaxed),
            |&i, earlier_runs| {
                assert_eq!(earlier_runs, 0);
                retired.push(i);
                Ok::<(), Infallible>(())
            },
        );
        let Ok(()) = drained;
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(retired, items);
    }

    #[test]
    fn a_halting_item_stops_the_fleet() {
        // An error from `retire` retires nothing after the failing item, at
        // any worker count, and is what the drain returns.
        let items: Vec<usize> = (0..10).collect();
        for workers in [1, 3] {
            let mut retired = Vec::new();
            let drained = drain_in_order(
                workers,
                &items,
                &AtomicBool::new(false),
                |&i| i,
                |_, i| {
                    if i == 3 {
                        return Err(i);
                    }
                    retired.push(i);
                    Ok(())
                },
            );
            assert_eq!(drained, Err(3));
            assert_eq!(retired, [0, 1, 2]);
        }
    }

    #[test]
    fn a_stop_request_leaves_every_item_untaken() {
        assert!(drain(2, &[1, 2, 3], true).is_empty());
    }
}
