//! A checkpoint decode allocates only on the thread that called it.
//!
//! A decoded corpus outlives its decode, so every allocation it holds
//! belongs in the calling thread's glibc arena. A helper thread per
//! segment would leave each segment pinning an arena of its own, which is
//! what `dist_small`'s `peak_rss_mb` paid for before the decode stayed on
//! the caller.
//!
//! A counting `#[global_allocator]` (on the pattern of
//! `crates/serve/tests/stress.rs`) keeps one process-wide and one
//! per-thread count. This binary holds this single test, so no sibling
//! test allocates while it measures.

use kf_synth::{Corpus, SynthConfig, World};
use kf_types::checkpoint::{self, ArtifactKind};
use kf_types::KvCodec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    // Never allocates: const-initialised Cell needs no lazy init.
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; `bump` only updates an atomic and a const
// thread-local and never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Decode `bytes` as a `kind` checkpoint and return the value with how
/// many allocations the process and the calling thread made meanwhile.
fn count_decode<T: KvCodec>(kind: ArtifactKind, bytes: &[u8]) -> (T, u64, u64) {
    let process_before = PROCESS_ALLOCS.load(Ordering::SeqCst);
    let thread_before = THREAD_ALLOCS.with(|c| c.get());
    let value = checkpoint::decode::<T>(kind, bytes).expect("checkpoint decodes");
    let process = PROCESS_ALLOCS.load(Ordering::SeqCst) - process_before;
    let thread = THREAD_ALLOCS.with(|c| c.get()) - thread_before;
    (value, process, thread)
}

#[test]
fn a_checkpoint_decode_allocates_only_on_its_caller() {
    let corpus = Corpus::generate(&SynthConfig::tiny(), 11);
    let corpus_bytes = checkpoint::encode(ArtifactKind::Corpus, &corpus);
    let world_bytes = checkpoint::encode(ArtifactKind::World, &corpus.world);

    let (back, process, thread) = count_decode::<Corpus>(ArtifactKind::Corpus, &corpus_bytes);
    assert!(back == corpus, "corpus roundtrip differs");
    assert!(thread > 0, "a corpus decode allocates");
    assert_eq!(
        process,
        thread,
        "a corpus decode allocated {} times off the calling thread",
        process - thread
    );

    let (back, process, thread) = count_decode::<World>(ArtifactKind::World, &world_bytes);
    assert!(back == corpus.world, "world roundtrip differs");
    assert!(thread > 0, "a world decode allocates");
    assert_eq!(
        process,
        thread,
        "a world decode allocated {} times off the calling thread",
        process - thread
    );
}
