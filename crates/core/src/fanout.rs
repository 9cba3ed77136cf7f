//! The scoped-thread fan-out of the round kernels.

use std::sync::Mutex;

/// Run every task on at most `workers` threads — the calling thread is one
/// of them, so one worker means no thread at all — each pulling the next
/// unstarted task when it finishes one, and return the results in task
/// order. A worker's panic propagates.
pub(crate) fn run_tasks<R: Send, F: FnOnce() -> R + Send>(workers: usize, tasks: Vec<F>) -> Vec<R> {
    let n = tasks.len();
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let pull = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("a fusion worker panicked").next();
            match next {
                Some((i, task)) => done.push((i, task())),
                None => return done,
            }
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers.min(n)).map(|_| scope.spawn(pull)).collect();
        let mut done = pull();
        for handle in spawned {
            done.extend(handle.join().expect("a fusion worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order_whatever_the_worker_count() {
        for workers in [1, 2, 3, 16] {
            let tasks: Vec<_> = (0..11).map(|i| move || i * i).collect();
            let expected: Vec<i32> = (0..11).map(|i| i * i).collect();
            assert_eq!(run_tasks(workers, tasks), expected, "{workers} workers");
        }
        assert!(run_tasks(4, Vec::<fn() -> u8>::new()).is_empty());
    }
}
