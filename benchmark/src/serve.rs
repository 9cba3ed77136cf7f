//! The publish and read side of every workload: compile the fused output
//! into a KB, save it, open it, and query it.

use crate::metrics::Metrics;
use crate::queries::{self, KeySpace, Kind, Oracle, Planned, Rng};
use crate::stats;
use crate::trace::Tracer;
use kf_core::{Fuser, FusionOutput, ProvenanceAttribution};
use kf_eval::{AblationRunner, MethodEval, Preset};
use kf_serve::{FusedKb, KbReader, QueryKind, ServeMetrics};
use kf_synth::Corpus;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per timed batch: one clock pair is amortised over this many
/// calls; per-query time is batch time ÷ this.
pub const BATCH: usize = 256;
/// Rounds per pass (an untraced run makes `workloads::SUB_RUNS` passes):
/// each is a slice of batch iterations, a few publish
/// cycles, then one read window. Rounds spread every metric's samples over
/// the whole run, so a spell of interference from outside hits a few
/// samples of each metric rather than all samples of one.
pub const ROUNDS: usize = 4;
/// Publish cycles (compile + save, then open) per round.
pub const CYCLES_PER_ROUND: usize = 2;
/// Oracle-checked sample per run.
pub const ORACLE_SAMPLE: usize = 20_000;

/// One fused preset with everything `FusedKb::compile_from_parts` needs.
pub struct KbParts {
    pub method: MethodEval,
    pub output: FusionOutput,
    pub attribution: ProvenanceAttribution,
}

pub fn runner(scale: &str, threads: usize) -> AblationRunner {
    AblationRunner {
        workers: Some(threads),
        scale: scale.to_string(),
        ..AblationRunner::default()
    }
}

/// Fuse `preset` in memory with attribution and evaluate it — what
/// `kf-serve build` does before it compiles.
pub fn fuse_for_kb(
    tracer: &Tracer,
    corpus: &Corpus,
    preset: Preset,
    runner: &AblationRunner,
    threads: usize,
) -> KbParts {
    let gold = preset.needs_gold().then_some(&corpus.gold);
    let config = preset.config().with_workers(threads);
    let ((output, attribution), _) = tracer.time("core", "Fuser::run_with_attribution", || {
        Fuser::new(config).run_with_attribution(&corpus.batch, gold)
    });
    let (method, _) = tracer.time("eval", "AblationRunner::evaluate", || {
        runner.evaluate(preset, &output, &corpus.gold, 0.0)
    });
    KbParts {
        method,
        output,
        attribution,
    }
}

pub struct Published {
    pub compile_s: Vec<f64>,
    pub save_s: Vec<f64>,
    pub open_s: Vec<f64>,
    pub kb_bytes: u64,
    pub reader: KbReader,
}

/// The write side: `cycles` × (`compile_from_parts`, `save`, `open`).
pub fn publish(
    tracer: &Tracer,
    corpus: &Corpus,
    parts: &KbParts,
    runner: &AblationRunner,
    path: &Path,
    cycles: usize,
) -> Published {
    let names: Vec<String> = corpus.extractors.iter().map(|e| e.name.clone()).collect();
    let summary = runner.corpus_summary(corpus);
    let (mut compile_s, mut save_s, mut open_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut reader = None;
    for _ in 0..cycles {
        let (kb, s) = tracer.time("serve", "FusedKb::compile_from_parts", || {
            FusedKb::compile_from_parts(
                summary.clone(),
                &parts.method,
                &parts.output,
                &parts.attribution,
                &corpus.gold,
                names.clone(),
            )
        });
        compile_s.push(s);
        let (saved, s) = tracer.time("serve", "FusedKb::save", || kb.save(path));
        saved.expect("KB saves into the scratch directory");
        save_s.push(s);
        drop(kb);
        let (opened, s) = tracer.time("serve", "KbReader::open", || KbReader::open(path));
        open_s.push(s);
        reader = Some(opened.expect("the KB just saved opens"));
    }
    Published {
        compile_s,
        save_s,
        open_s,
        kb_bytes: std::fs::metadata(path).map_or(0, |m| m.len()),
        reader: reader.expect("at least one publish cycle"),
    }
}

/// The serve side of a run: [`ROUNDS`] rounds, each [`CYCLES_PER_ROUND`]
/// publish cycles and then one read window of the mix.
pub struct Served {
    /// Every publish cycle of every round; the reader is the last one opened.
    pub published: Published,
    pub keys: KeySpace,
    pub windows: Vec<ReadPhase>,
}

/// What every serve round of one run shares.
pub struct ServeRun<'a> {
    pub tracer: &'a Tracer,
    pub corpus: &'a Corpus,
    pub parts: &'a KbParts,
    pub runner: &'a AblationRunner,
    pub path: &'a Path,
    pub seed: u64,
    pub clients: usize,
    /// Seconds of one read window.
    pub window_s: f64,
}

impl ServeRun<'_> {
    /// One round: publish, then read for `window_s`. The first round's KB
    /// fixes the key space (every later KB is the same one, compiled again).
    pub fn round(&self, served: &mut Option<Served>) {
        let next = publish(
            self.tracer,
            self.corpus,
            self.parts,
            self.runner,
            self.path,
            CYCLES_PER_ROUND,
        );
        let served = match served {
            Some(served) => {
                served.published.compile_s.extend(next.compile_s);
                served.published.save_s.extend(next.save_s);
                served.published.open_s.extend(next.open_s);
                served.published.reader = next.reader;
                served
            }
            None => served.insert(Served {
                keys: KeySpace::of(&next.reader),
                published: next,
                windows: Vec::new(),
            }),
        };
        let round = served.windows.len() as u64;
        served.windows.push(read_mix(
            self.tracer,
            &served.published.reader,
            &served.keys,
            self.seed.wrapping_add(round),
            self.clients,
            self.window_s,
        ));
    }
}

impl Served {
    pub fn queries(&self) -> u64 {
        self.windows.iter().map(|w| w.queries).sum()
    }

    pub fn failed(&self) -> u64 {
        self.windows.iter().map(|w| w.failed).sum()
    }

    pub fn hits(&self) -> u64 {
        self.windows.iter().map(|w| w.hits).sum()
    }

    /// One value per read window.
    pub fn per_window(&self, f: impl Fn(&ReadPhase) -> f64) -> Vec<f64> {
        self.windows.iter().map(f).collect()
    }

    /// Per-query nanoseconds of every batch of every window.
    pub fn batches(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.per_query_ns.iter().copied())
            .collect()
    }
}

/// What one closed-loop read phase measured.
pub struct ReadPhase {
    pub queries: u64,
    /// Queries whose hit/miss outcome was not the planned one.
    pub failed: u64,
    pub hits: u64,
    /// Per-query nanoseconds of every batch (batch ÷ [`BATCH`]), pooled
    /// over clients.
    pub per_query_ns: Vec<f64>,
    /// Mean per-query nanoseconds of each client.
    pub client_ns: Vec<f64>,
}

impl ReadPhase {
    /// Queries per second while all clients are serving: clients × 1e9 ÷
    /// mean per-query time. Time a client spends drawing its next batch
    /// is the load generator's, not the server's, and is left out.
    pub fn qps(&self) -> f64 {
        let mean_ns = stats::mean(&self.per_query_ns);
        self.client_ns.len() as f64 * 1e9 / mean_ns
    }

    pub fn p50(&self) -> f64 {
        stats::median(&self.per_query_ns)
    }

    /// `wanted` percentile under the ten-samples-beyond rule.
    pub fn tail(&self, wanted: f64) -> f64 {
        stats::tail(&mut self.per_query_ns.clone(), wanted).0
    }

    pub fn client_skew(&self) -> f64 {
        let lo = self.client_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.client_ns.iter().copied().fold(0.0, f64::max);
        hi / lo
    }
}

/// A batch source: fills `batch` with the next [`BATCH`] planned queries.
type Fill<'a> = &'a (dyn Fn(&mut Rng, &mut Vec<Planned>) + Sync);

/// One closed-loop client's state.
struct Client {
    rng: Rng,
    batch: Vec<Planned>,
    failed: u64,
    hits: u64,
    sink: u64,
}

impl Client {
    /// Draw the next batch (untimed), issue it (timed); returns the
    /// batch's nanoseconds.
    fn issue(&mut self, reader: &KbReader, fill: Fill<'_>) -> f64 {
        fill(&mut self.rng, &mut self.batch);
        let start = Instant::now();
        for p in &self.batch {
            let (bits, got) = queries::execute(reader, &p.query);
            self.sink ^= bits;
            self.hits += u64::from(got);
            self.failed += u64::from(got != p.hit);
        }
        start.elapsed().as_nanos() as f64
    }
}

/// Closed loop: `clients` threads share `reader`; each draws a batch
/// (untimed), issues it (timed), and repeats until `seconds` have passed.
/// A client's next batch goes out only after its previous one completed.
fn closed_loop(
    tracer: &Tracer,
    reader: &KbReader,
    fill: Fill<'_>,
    seed: u64,
    clients: usize,
    seconds: f64,
) -> ReadPhase {
    let parent = tracer.current();
    let per_client: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client {
                        rng: Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
                        batch: Vec::with_capacity(BATCH),
                        failed: 0,
                        hits: 0,
                        sink: 0,
                    };
                    // Let the KB's pages and the branch predictors warm up.
                    for _ in 0..64 {
                        client.issue(reader, fill);
                    }
                    (client.failed, client.hits) = (0, 0);
                    // Reserve ahead so the timed loop never reallocates.
                    let mut samples = Vec::with_capacity((seconds * 40_000.0) as usize + 1024);
                    tracer.time_under(parent, "serve", "KbReader queries (client loop)", || {
                        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                        loop {
                            samples.push(client.issue(reader, fill) / BATCH as f64);
                            if Instant::now() >= deadline {
                                break;
                            }
                        }
                    });
                    std::hint::black_box(client.sink);
                    (samples, client.failed, client.hits)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read client panicked"))
            .collect()
    });
    let mut phase = ReadPhase {
        queries: 0,
        failed: 0,
        hits: 0,
        per_query_ns: Vec::new(),
        client_ns: Vec::new(),
    };
    for (samples, failed, hits) in per_client {
        phase.queries += (samples.len() * BATCH) as u64;
        phase.failed += failed;
        phase.hits += hits;
        phase.client_ns.push(stats::mean(&samples));
        phase.per_query_ns.extend(samples);
    }
    phase
}

/// The read side under the full mix.
pub fn read_mix(
    tracer: &Tracer,
    reader: &KbReader,
    keys: &KeySpace,
    seed: u64,
    clients: usize,
    seconds: f64,
) -> ReadPhase {
    let fill = |rng: &mut Rng, batch: &mut Vec<Planned>| {
        batch.clear();
        batch.extend((0..BATCH).map(|_| queries::draw(rng, keys)));
    };
    closed_loop(tracer, reader, &fill, seed, clients, seconds)
}

/// Single-kind batches from one client: the per-call cost of one query
/// kind, all hits or all misses.
fn read_kind(
    reader: &KbReader,
    keys: &KeySpace,
    kind: Kind,
    absent: bool,
    seed: u64,
    seconds: f64,
) -> f64 {
    let fill = |rng: &mut Rng, batch: &mut Vec<Planned>| {
        batch.clear();
        batch.extend((0..BATCH).map(|_| queries::plan(keys, kind, absent, rng.next_u64())));
    };
    closed_loop(&Tracer::off(), reader, &fill, seed, 1, seconds).p50()
}

/// Per-call cost of `KbReader::view` on random rows.
fn view_ns(reader: &KbReader, seed: u64, calls: usize) -> f64 {
    let n = reader.kb().n_triples() as u64;
    let mut rng = Rng::new(seed);
    let rows: Vec<u32> = (0..calls).map(|_| (rng.next_u64() % n) as u32).collect();
    let start = Instant::now();
    let sink = rows
        .iter()
        .fold(0u64, |acc, &row| acc ^ reader.view(row).raw.to_bits());
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(sink);
    ns / calls as f64
}

/// Per-call cost of `ServeMetrics::record`.
fn metrics_record_ns(calls: u64) -> f64 {
    let metrics = ServeMetrics::new();
    let start = Instant::now();
    for i in 0..calls {
        metrics.record(QueryKind::Lookup, 400 + (i & 63), i & 7 != 0, 1);
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(metrics.snapshot().total_queries());
    ns / calls as f64
}

/// The same reader with a live `ServeMetrics` recorder attached.
fn with_metrics(reader: &KbReader) -> KbReader {
    reader.clone().with_metrics(Arc::new(ServeMetrics::new()))
}

/// Check an oracle sample of the mix; returns (attempted, failed).
pub fn check_sample(reader: &KbReader, keys: &KeySpace, oracle: &Oracle, seed: u64) -> (u64, u64) {
    let mut rng = Rng::new(seed ^ 0x0c0f_fee0);
    let failed = (0..ORACLE_SAMPLE)
        .filter(|_| !oracle.check(reader, &queries::draw(&mut rng, keys)))
        .count();
    // The KB serves exactly the predicted triples.
    let size_ok = oracle.served_triples() == reader.kb().n_triples();
    (
        ORACLE_SAMPLE as u64 + 1,
        failed as u64 + u64::from(!size_ok),
    )
}

/// The `serve.*` layer metrics: the serve phase's own samples, single-kind
/// batches, and the same mix with a live `ServeMetrics` recorder attached.
/// Returns (attempted, failed) of the recorded run's outcome checks.
pub fn report_layer(served: &Served, seed: u64, clients: usize, out: &mut Metrics) -> (u64, u64) {
    let Served {
        published, keys, ..
    } = served;
    let reader = &published.reader;
    out.set("serve.compile_index_s", stats::median(&published.compile_s));
    out.set("serve.save_s", stats::median(&published.save_s));
    out.set("serve.open_s", stats::median(&published.open_s));
    out.set("serve.kb_bytes", published.kb_bytes as f64);
    for (name, kind, absent) in [
        ("serve.lookup_hit_ns", Kind::Lookup, false),
        ("serve.lookup_miss_ns", Kind::Lookup, true),
        ("serve.belief_ns", Kind::Belief, false),
        ("serve.topk_ns", Kind::TopK, false),
        ("serve.drilldown_ns", Kind::Drilldown, false),
    ] {
        out.set(name, read_kind(reader, keys, kind, absent, seed, 0.25));
    }
    out.set("serve.view_ns", view_ns(reader, seed, 1_000_000));
    out.set(
        "serve.query_ns_p99",
        stats::median(&served.per_window(|w| w.tail(0.99))),
    );
    out.set(
        "serve.batch_ns_p999",
        stats::tail(&mut served.batches(), 0.999).0,
    );
    out.set(
        "serve.client_skew_ratio",
        stats::median(&served.per_window(ReadPhase::client_skew)),
    );
    out.set(
        "serve.hit_ratio",
        served.hits() as f64 / served.queries() as f64,
    );
    out.set("serve.metrics_record_ns", metrics_record_ns(2_000_000));
    // The same mix with and without a live recorder, back to back.
    let off = Tracer::off();
    let plain = read_mix(&off, reader, keys, seed, clients, 1.0);
    let recorded = read_mix(&off, &with_metrics(reader), keys, seed, clients, 1.0);
    out.set("serve.metrics_overhead_ratio", recorded.p50() / plain.p50());
    (recorded.queries, recorded.failed)
}
