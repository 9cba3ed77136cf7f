//! The one fan-out primitive, [`run_tasks`], under one worker budget per
//! run.
//!
//! `workers` bounds the threads busy *across a whole run*, not per call.
//! The outermost `run_tasks` call on a thread owns `workers` slots; every
//! thread running tasks holds one; a call made from inside a task shares
//! the slots of the run it belongs to. So a run scheduled as a few long
//! tasks (presets) whose stages fan out again (kernel ranges, map chunks,
//! sorted chunks, reduce key ranges) spends its slots on the long tasks first, runs the
//! stages inline while every slot is busy, and hands a slot freed by a
//! finished task to the next stage of whatever is still running.
//!
//! Results never depend on any of this: a task list is cut by its caller
//! from the *configured* worker count, results come back in task order,
//! and which thread ran a task is not observable.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The worker slots of one run not held by a thread right now.
struct Budget {
    free: AtomicUsize,
}

impl Budget {
    fn try_acquire(self: &Arc<Budget>) -> Option<Slot> {
        self.free
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |free| {
                free.checked_sub(1)
            })
            .ok()
            .map(|_| Slot(self.clone()))
    }
}

/// One held slot, given back on drop — so also when its holder unwinds.
struct Slot(Arc<Budget>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.free.fetch_add(1, Ordering::SeqCst);
    }
}

thread_local! {
    /// The budget of the run this thread is running tasks of; `None`
    /// outside any fan-out.
    static BUDGET: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
}

/// Marks the thread as running tasks under a budget; restores what it ran
/// under before on drop.
struct Working(Option<Arc<Budget>>);

fn work_under(budget: &Arc<Budget>) -> Working {
    Working(BUDGET.with(|b| b.replace(Some(budget.clone()))))
}

impl Drop for Working {
    fn drop(&mut self) {
        BUDGET.with(|b| *b.borrow_mut() = self.0.take());
    }
}

/// Run every task and return the results in task order. The calling
/// thread runs tasks itself and helper threads join it, each pulling the
/// next unstarted task when it finishes one — at most `workers` threads in
/// all, so one worker means no thread at all.
///
/// The outermost call on a thread owns `workers` slots, of which every
/// thread running tasks holds one. A call made from inside a task —
/// whatever `workers` it passes — spawns a helper only for each slot that
/// is free at that moment, and with none free runs its tasks on the
/// caller: a run never has more than its outermost `workers` threads
/// busy. A thread gives its slot back when it runs out of tasks (the
/// outermost caller too, while it waits for its helpers), so the stages
/// of the tasks still running pick it up.
///
/// A task's panic reaches the caller with its payload, once the other
/// tasks have finished.
pub fn run_tasks<R: Send, F: FnOnce() -> R + Send>(workers: usize, tasks: Vec<F>) -> Vec<R> {
    let wanted = workers.min(tasks.len()).saturating_sub(1);
    let (budget, own) = match BUDGET.with(|b| b.borrow().clone()) {
        // Inside a task: the caller holds a slot of its run already.
        Some(budget) => (budget, None),
        None => {
            let budget = Arc::new(Budget {
                free: AtomicUsize::new(workers.max(1)),
            });
            let own = budget.try_acquire();
            (budget, own)
        }
    };
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let pull = || {
        let _working = work_under(&budget);
        let mut done = Vec::new();
        loop {
            // A task runs outside the lock, and taking the next one cannot
            // leave the queue half-updated: a poisoned lock is still good.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            match next {
                Some((i, task)) => done.push((i, task())),
                None => return done,
            }
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..wanted)
            .map_while(|_| budget.try_acquire())
            .map(|slot| {
                let pull = &pull;
                scope.spawn(move || {
                    let _slot = slot;
                    pull()
                })
            })
            .collect();
        let mut done = pull();
        // From here on the caller only waits.
        drop(own);
        let mut panic = None;
        for helper in helpers {
            match helper.join() {
                Ok(results) => done.extend(results),
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Free slots of the budget the thread runs under.
    fn free_slots() -> Option<usize> {
        BUDGET.with(|b| b.borrow().as_ref().map(|b| b.free.load(Ordering::SeqCst)))
    }

    /// Spin until `ready`, giving up (false) after ten seconds — a failed
    /// rendezvous fails an assertion instead of hanging the suite.
    fn wait_until(ready: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Arrive at a meeting of `parties` threads and wait for the rest.
    fn meet(arrived: &AtomicUsize, parties: usize) -> bool {
        arrived.fetch_add(1, Ordering::SeqCst);
        wait_until(|| arrived.load(Ordering::SeqCst) >= parties)
    }

    fn here() -> ThreadId {
        std::thread::current().id()
    }

    #[test]
    fn results_come_back_in_task_order_whatever_the_worker_count() {
        for workers in [1, 2, 3, 16] {
            let tasks: Vec<_> = (0..11).map(|i| move || i * i).collect();
            let expected: Vec<i32> = (0..11).map(|i| i * i).collect();
            assert_eq!(run_tasks(workers, tasks), expected, "{workers} workers");
        }
        assert!(run_tasks(4, Vec::<fn() -> u8>::new()).is_empty());
        assert_eq!(free_slots(), None, "no budget outlives its fan-out");
    }

    /// Three levels of fan-out, every level asking for more threads than
    /// the outermost budget: the tasks in flight never exceed it.
    #[test]
    fn in_flight_tasks_never_exceed_the_outermost_budget() {
        for workers in [1, 2, 3] {
            let (in_flight, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let leaf = || {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                std::hint::black_box((0..20_000u64).sum::<u64>());
                in_flight.fetch_sub(1, Ordering::SeqCst);
            };
            let inner = || run_tasks(8, (0..6).map(|_| leaf).collect());
            let middle = || run_tasks(8, (0..4).map(|_| inner).collect());
            run_tasks(workers, (0..5).map(|_| middle).collect());
            let high_water = high_water.load(Ordering::SeqCst);
            assert!(high_water <= workers, "{high_water} in flight > {workers}");
        }
    }

    #[test]
    fn a_full_budget_runs_nested_tasks_on_the_caller() {
        let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let task = || {
            // Both outer tasks are running: both slots are held until both
            // nested calls are over.
            assert!(meet(&started, 2));
            assert_eq!(free_slots(), Some(0));
            let threads = run_tasks(4, (0..8).map(|_| here).collect());
            assert!(meet(&finished, 2));
            (here(), threads)
        };
        let outer = run_tasks(2, vec![task, task]);
        assert_ne!(outer[0].0, outer[1].0, "the outer tasks ran side by side");
        for (caller, nested) in outer {
            assert!(nested.iter().all(|&t| t == caller));
        }
    }

    #[test]
    fn a_slot_freed_by_a_finished_sibling_goes_to_a_later_nested_call() {
        let started = AtomicUsize::new(0);
        let long = || {
            assert!(meet(&started, 2));
            // The sibling has nothing left to do: its thread gives up its slot.
            assert!(wait_until(|| free_slots() == Some(1)));
            let together = AtomicUsize::new(0);
            let nested = || (here(), meet(&together, 2));
            let threads = run_tasks(2, vec![nested, nested]);
            // The two nested tasks met, so they ran on two threads at once.
            assert!(threads.iter().all(|&(_, met)| met));
            assert_ne!(threads[0].0, threads[1].0);
            assert_eq!(free_slots(), Some(1), "the helper gave the slot back");
        };
        let short = || assert!(meet(&started, 2));
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(long), Box::new(short)];
        run_tasks(2, tasks);
    }

    #[test]
    fn one_worker_spawns_nothing_at_any_depth() {
        let test_thread = here();
        let inner = || run_tasks(4, (0..3).map(|_| here).collect());
        let middle = || run_tasks(4, (0..3).map(|_| inner).collect()).concat();
        let threads = run_tasks(1, (0..3).map(|_| middle).collect()).concat();
        assert_eq!(threads.len(), 27);
        assert!(threads.iter().all(|&t| t == test_thread));
    }

    /// The in-process `dist_small` shape: two runs on two threads at once,
    /// each with its own two slots — all four tasks are in flight together,
    /// which no single budget of two allows.
    #[test]
    fn concurrent_outermost_fan_outs_share_no_slots() {
        let in_flight = AtomicUsize::new(0);
        let run = || {
            // Read before meeting: no sibling can have finished yet.
            let task = || {
                let free = free_slots();
                (here(), meet(&in_flight, 4), free)
            };
            let results = run_tasks(2, vec![task, task]);
            assert_eq!(free_slots(), None);
            results
        };
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(run);
            (run(), other.join().expect("the second run panicked"))
        });
        let threads: HashSet<ThreadId> = a.iter().chain(&b).map(|r| r.0).collect();
        assert_eq!(threads.len(), 4);
        for (_, met, free) in a.into_iter().chain(b) {
            assert!(met, "four tasks never ran at once");
            assert_eq!(free, Some(0), "a run saw slots that were not its own");
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_with_its_message() {
        fn message(workers: usize, nested: bool) -> String {
            let tasks = |n: usize| -> Vec<Box<dyn FnOnce() + Send>> {
                let task = |i: usize| {
                    Box::new(move || assert!(i != 3, "task {i} of {n} failed"))
                        as Box<dyn FnOnce() + Send>
                };
                (0..n).map(task).collect()
            };
            let payload = catch_unwind(AssertUnwindSafe(|| {
                if nested {
                    run_tasks(workers, vec![|| run_tasks(workers, tasks(6)); 2]);
                } else {
                    run_tasks(workers, tasks(6));
                }
            }))
            .expect_err("the panic was swallowed");
            let message = payload.downcast_ref::<String>();
            message.expect("the payload was replaced").clone()
        }
        for workers in [1, 2] {
            for nested in [false, true] {
                assert_eq!(message(workers, nested), "task 3 of 6 failed");
            }
        }
        assert_eq!(free_slots(), None);
    }

    #[test]
    fn an_unwinding_fan_out_gives_its_slots_back() {
        let started = AtomicUsize::new(0);
        let failing = || {
            // Wait for the sibling to finish, so the nested call has a
            // helper to unwind through as well.
            assert!(meet(&started, 2));
            assert!(wait_until(|| free_slots() == Some(1)));
            let together = AtomicUsize::new(0);
            let nested = || assert!(!meet(&together, 2), "nested failure");
            let caught = catch_unwind(AssertUnwindSafe(|| run_tasks(2, vec![nested, nested])));
            assert!(caught.is_err());
            assert_eq!(free_slots(), Some(1));
        };
        let short = || assert!(meet(&started, 2));
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(failing), Box::new(short)];
        run_tasks(2, tasks);
    }
}
