//! The benchmark's own span recorder.
//!
//! Spans are opened from the benchmark's files around calls into each
//! crate's public functions — outside-in, nothing inside the program is
//! touched. A span is (name, layer, start, end, parent); spans of one run
//! share the workload id. Spans stay in memory and are written out when
//! the run ends. With the recorder off ([`Tracer::off`]) a span is one
//! `Instant` pair and no allocation, which is what end-to-end runs use.

use kf_eval::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    /// The crate the spanned call belongs to (`bench` = the harness and
    /// the `repro` orchestration).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle the phases record through; cheap to clone into worker threads.
#[derive(Clone)]
pub struct Tracer {
    recorder: Option<Arc<Recorder>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: the implicit parent.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { recorder: None }
    }

    /// A recording tracer; span times count from now.
    pub fn on() -> Tracer {
        Tracer {
            recorder: Some(Arc::new(Recorder {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    pub fn is_on(&self) -> bool {
        self.recorder.is_some()
    }

    /// The innermost span open on this thread, to hand to another thread
    /// as the cause of its spans.
    pub fn current(&self) -> Option<u32> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Run `f` inside a span and return its result with the elapsed
    /// seconds. The parent is the innermost span open on this thread.
    pub fn time<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.time_under(self.current(), layer, name, f)
    }

    /// [`time`](Self::time) with an explicit parent — for the first span
    /// of a spawned thread, whose cause lives on the spawning thread.
    pub fn time_under<T>(
        &self,
        parent: Option<u32>,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let Some(recorder) = &self.recorder else {
            return timed(f);
        };
        // Reserve the id up front so children opened inside `f` can name
        // it; the slot is filled in when the span closes.
        let id = {
            let mut spans = recorder.spans.lock().expect("span store poisoned");
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                layer,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        let start_ns = start.duration_since(recorder.epoch).as_nanos() as u64;
        let mut spans = recorder.spans.lock().expect("span store poisoned");
        spans[id as usize].start_ns = start_ns;
        spans[id as usize].end_ns = start_ns + elapsed.as_nanos() as u64;
        (out, elapsed.as_secs_f64())
    }

    /// All spans recorded so far, in opening order (empty when off).
    pub fn spans(&self) -> Vec<Span> {
        match &self.recorder {
            Some(r) => r.spans.lock().expect("span store poisoned").clone(),
            None => Vec::new(),
        }
    }
}

/// Run `f`; return its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children on parallel threads may overlap, so
/// the covered part is a union, never a sum). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Wall time of the subtree under `root`, attributed to layers so that
/// the shares add up to the root's duration: every instant goes to the
/// innermost spans open at it, split equally when several threads have
/// one open. Serial code reduces to plain self time.
pub fn layer_wall(spans: &[Span], root: u32) -> BTreeMap<&'static str, f64> {
    // Spans of the subtree, and per span whether a child is open, are
    // tracked by sweeping the start/end events in time order.
    let mut in_tree = vec![false; spans.len()];
    in_tree[root as usize] = true;
    for s in spans {
        // Parents are always recorded before their children.
        if s.parent.is_some_and(|p| in_tree[p as usize]) {
            in_tree[s.id as usize] = true;
        }
    }
    let (lo, hi) = (spans[root as usize].start_ns, spans[root as usize].end_ns);
    let mut events: Vec<(u64, bool, u32)> = Vec::new();
    for s in spans.iter().filter(|s| in_tree[s.id as usize]) {
        events.push((s.start_ns.clamp(lo, hi), true, s.id));
        events.push((s.end_ns.clamp(lo, hi), false, s.id));
    }
    // Ends sort before starts at equal times so back-to-back spans
    // never count as concurrent.
    events.sort_unstable_by_key(|&(t, is_start, id)| (t, is_start, id));
    let mut open_children = vec![0u32; spans.len()];
    let mut open = vec![false; spans.len()];
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut prev = lo;
    for (t, is_start, id) in events {
        if t > prev {
            let leaves: Vec<&Span> = spans
                .iter()
                .filter(|s| open[s.id as usize] && open_children[s.id as usize] == 0)
                .collect();
            let share = (t - prev) as f64 / leaves.len().max(1) as f64;
            for leaf in leaves {
                *out.entry(leaf.layer).or_default() += share / 1e9;
            }
            prev = t;
        }
        open[id as usize] = is_start;
        if let Some(p) = spans[id as usize].parent.filter(|_| id != root) {
            if is_start {
                open_children[p as usize] += 1;
            } else {
                open_children[p as usize] -= 1;
            }
        }
    }
    out
}

/// The trace file: every span with its self time and the workload id.
pub fn to_json(spans: &[Span], workload: &str) -> Json {
    let selfs = self_times(spans);
    Json::arr(spans.iter().zip(selfs).map(|(s, self_ns)| {
        Json::obj([
            ("id", Json::Uint(s.id as u64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Uint(p as u64)),
            ),
            ("name", Json::Str(s.name.clone())),
            ("layer", Json::Str(s.layer.to_string())),
            ("workload", Json::Str(workload.to_string())),
            ("start_ns", Json::Uint(s.start_ns)),
            ("end_ns", Json::Uint(s.end_ns)),
            ("self_ns", Json::Uint(self_ns)),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "core", 10, 40),
            span(2, Some(0), "eval", 50, 70),
            span(3, Some(1), "mapreduce", 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two worker threads under one parent, overlapping on [20, 30],
        // one of them running past the parent's end.
        let spans = vec![
            span(0, None, "bench", 0, 50),
            span(1, Some(0), "dist", 10, 30),
            span(2, Some(0), "dist", 20, 60),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn layer_wall_adds_up_to_the_root() {
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "core", 10, 40),
            span(2, Some(0), "dist", 50, 90),
            span(3, Some(0), "dist", 70, 90),
            span(4, Some(2), "eval", 60, 70),
            // Not under the root: ignored.
            span(5, None, "serve", 0, 100),
        ];
        let wall = layer_wall(&spans, 0);
        assert!((wall["bench"] - 30e-9).abs() < 1e-15);
        assert!((wall["core"] - 30e-9).abs() < 1e-15);
        assert!((wall["eval"] - 10e-9).abs() < 1e-15);
        // [50,60) alone, [70,90) shared by spans 2 and 3 — all `dist`.
        assert!((wall["dist"] - 30e-9).abs() < 1e-15);
        assert!(!wall.contains_key("serve"));
        assert!((wall.values().sum::<f64>() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_by_thread_and_by_explicit_parent() {
        let tracer = Tracer::on();
        let ((), outer_s) = tracer.time("bench", "outer", || {
            let parent = tracer.current();
            tracer.time("core", "inner", || ());
            std::thread::scope(|scope| {
                scope.spawn(|| tracer.time_under(parent, "dist", "worker", || ()));
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(outer_s > 0.0);
        assert!(tracer.current().is_none());
        // Off: times, records nothing.
        let off = Tracer::off();
        let (v, s) = off.time("core", "x", || 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0 && off.spans().is_empty() && !off.is_on());
    }
}
