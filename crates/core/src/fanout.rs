//! The scoped-thread fan-out shared by the grouping pass and the round
//! kernels.

/// Run every task — all but the last on scoped threads, so one task means
/// no thread at all — and return their results in task order. A worker's
/// panic propagates.
pub(crate) fn run_tasks<R: Send, F: FnOnce() -> R + Send>(mut tasks: Vec<F>) -> Vec<R> {
    let own = tasks.pop();
    std::thread::scope(|scope| {
        let spawned: Vec<_> = tasks.into_iter().map(|t| scope.spawn(t)).collect();
        let own = own.map(|task| task());
        let joined = spawned
            .into_iter()
            .map(|h| h.join().expect("a fusion worker panicked"));
        joined.chain(own).collect()
    })
}
