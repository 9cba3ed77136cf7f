//! # kf-bench — the experiment harness
//!
//! Shared machinery behind the `repro` binary and the repo benchmark
//! (`benchmark/`, see its README): option parsing for the reproduction
//! CLI, corpus-scale presets, and the end-to-end generate → fuse →
//! evaluate driver whose output is the diffable `report.json`: each
//! preset is `kf-eval`'s shared step plus the diagnosis.
//!
//! ```
//! use kf_bench::{ReproOptions, run};
//!
//! let opts = ReproOptions::parse(["--scale", "tiny", "--seed", "7"]).unwrap();
//! let report = run(&opts).unwrap();
//! assert_eq!(report.methods.len(), 5);
//! ```

pub mod scenarios;

pub use scenarios::{
    band_accuracy, scenario_config, scenario_corpus, separation, ScenarioCell, ScenarioMatrix,
    ScenarioRow, SCENARIO_NAMES,
};

use kf_core::{Claims, FusionConfig, FusionOutput, Method};
use kf_diagnose::{DiagnoseConfig, Diagnoser, SupportIndex};
use kf_eval::{AblationRunner, CorpusSummary, EvalReport, MethodEval, Preset};
use kf_mapreduce::{run_tasks, MrConfig};
use kf_synth::{Corpus, SynthConfig};
use kf_telemetry::{Trace, TraceReport};
use kf_types::{Label, TaskSpec};
use std::sync::Arc;
use std::time::Instant;

/// Why [`ReproOptions::parse`] did not produce options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// `--help` was requested; print [`USAGE`] and exit successfully.
    Help,
    /// The arguments were invalid.
    Invalid(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Help => f.write_str(USAGE),
            ParseError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ParseError {}

/// The one role a `repro` process plays, with the inputs only that role
/// reads. A process runs in exactly one mode: [`ReproOptions::parse`]
/// rejects a second mode flag, and a mode's own options given without it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Fuse every preset in this process and write the JSON report (the
    /// default).
    Run,
    /// Generate (or load) the corpus, save it as a checkpoint at this
    /// path, and exit without fusing (`--save-corpus PATH`).
    SaveCorpus(String),
    /// Fuse only the tasks at positions `j ≡ index (mod of)` of the run's
    /// costliest-first task table ([`shard_presets`]) and write them to
    /// `out` as a binary shard report (`--shard index/of`).
    Shard { index: usize, of: usize },
    /// Reassemble the full report from these binary shard reports and
    /// write it to `out` as JSON (`--merge PATH...`).
    Merge(Vec<String>),
    /// Bind `bind`, ship the corpus to registering workers, dispatch one
    /// task per preset and merge their shard reports
    /// (`--serve-coordinator ADDR`). The bound address is also written to
    /// `addr_file` once listening (`--dist-addr-file PATH`), so scripts
    /// can start workers without guessing ports.
    Coordinator {
        bind: String,
        addr_file: Option<String>,
    },
    /// Connect to the coordinator at `addr` and answer tasks until told to
    /// shut down (`--worker ADDR`), announcing `name` in the handshake
    /// (`--worker-name`, default `worker`; `KF_DIST_FAIL` matches on it).
    Worker { addr: String, name: String },
}

/// Options of the `repro` binary.
#[derive(Debug, Clone)]
pub struct ReproOptions {
    /// What this process does (default: a single run).
    pub mode: Mode,
    /// Corpus scale preset: `tiny`, `small`, `paper` (default) or `large`.
    pub scale: String,
    /// Hostile-corpus scenario applied on top of the scale preset
    /// (`honest` default; see [`SCENARIO_NAMES`]).
    pub scenario: String,
    /// Corpus generator seed.
    pub seed: u64,
    /// Where to write the JSON report (`None` = don't write). In
    /// [`Mode::Shard`] this is the *binary* shard-report path instead,
    /// `report-shard{i}of{n}.bin` unless `--out` / `--no-out` was given.
    pub out: Option<String>,
    /// Threads the run keeps busy — one budget for the whole run, spent on
    /// presets first (`None` = library default; `--workers` takes ≥ 1).
    pub workers: Option<usize>,
    /// Calibration bins per curve.
    pub bins: usize,
    /// Presets to run (default: all five).
    pub presets: Vec<Preset>,
    /// Run the Fig. 17 error-taxonomy diagnosis per preset and embed the
    /// `taxonomy` section in the report (default: true).
    pub diagnose: bool,
    /// Load the corpus from this checkpoint instead of regenerating.
    pub corpus: Option<String>,
    /// Zero every wall-clock field (`fuse_ms` and all span timings in the
    /// embedded traces) so reports from different runs (single vs.
    /// sharded) are byte-comparable.
    pub deterministic: bool,
    /// Write the whole-run trace (span tree, counters, series) to this
    /// path as JSON (`--trace PATH`).
    pub trace: Option<String>,
}

impl Default for ReproOptions {
    fn default() -> Self {
        ReproOptions {
            mode: Mode::Run,
            scale: "paper".to_string(),
            scenario: "honest".to_string(),
            seed: 42,
            out: Some("report.json".to_string()),
            workers: None,
            bins: 10,
            presets: Preset::ALL.to_vec(),
            diagnose: true,
            corpus: None,
            deterministic: false,
            trace: None,
        }
    }
}

/// The flags a worker takes: the coordinator ships the corpus and every
/// fusion parameter, and a worker writes no report, so any other
/// flag would be parsed and then ignored.
const WORKER_FLAGS: [&str; 4] = ["--worker", "--worker-name", "--trace", "--deterministic"];

impl ReproOptions {
    /// Parse CLI arguments (without the program name).
    pub fn parse<I, S>(args: I) -> Result<ReproOptions, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let invalid = |msg: String| ParseError::Invalid(msg);
        let mut opts = ReproOptions::default();
        // The mode and the flag that chose it. Its own options may come
        // before or after it, so they are gathered on the side and
        // attached once every argument is read.
        let mut chosen: Option<(&'static str, Mode)> = None;
        let mut choose = |flag: &'static str, mode: Mode| match &chosen {
            Some((earlier, _)) if *earlier != flag => Err(invalid(format!(
                "{earlier} and {flag} choose different modes; a process runs in one"
            ))),
            _ => {
                chosen = Some((flag, mode));
                Ok(())
            }
        };
        let (mut worker_name, mut addr_file, mut paths) = (None, None, Vec::new());
        // Every flag given, for the checks that depend on another flag.
        let mut flags: Vec<String> = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_ref();
            let mut value = |name: &str| {
                it.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| ParseError::Invalid(format!("{name} requires a value")))
            };
            if arg.starts_with('-') {
                flags.push(arg.to_string());
            }
            match arg {
                "--scale" => {
                    let v = value("--scale")?;
                    if scale_config(&v).is_none() {
                        return Err(invalid(format!(
                            "unknown scale {v:?} (expected tiny|small|paper|large)"
                        )));
                    }
                    opts.scale = v;
                }
                "--scenario" => {
                    let v = value("--scenario")?;
                    if !SCENARIO_NAMES.contains(&v.as_str()) {
                        return Err(invalid(format!(
                            "unknown scenario {v:?} (expected one of {SCENARIO_NAMES:?})"
                        )));
                    }
                    opts.scenario = v;
                }
                "--seed" => {
                    let v = value("--seed")?;
                    opts.seed = v.parse().map_err(|_| invalid(format!("bad seed {v:?}")))?;
                }
                "--out" => opts.out = Some(value("--out")?),
                "--no-out" => opts.out = None,
                "--workers" => {
                    let v = value("--workers")?;
                    // 0 would mean one thread in-process but "library
                    // default" once shipped in a `TaskSpec`.
                    let n = v.parse::<usize>().ok().filter(|&n| n > 0);
                    opts.workers = Some(n.ok_or_else(|| {
                        invalid(format!("bad worker count {v:?} (expected at least 1)"))
                    })?);
                }
                "--bins" => {
                    let v = value("--bins")?;
                    opts.bins = v
                        .parse()
                        .map_err(|_| invalid(format!("bad bin count {v:?}")))?;
                }
                "--presets" => {
                    let v = value("--presets")?;
                    let mut presets = Vec::new();
                    for name in v.split(',') {
                        let preset = Preset::by_name(name.trim())
                            .ok_or_else(|| invalid(format!("unknown preset {name:?}")))?;
                        // A report names each method once: a repeat would
                        // only fail later, in the shard merge.
                        if presets.contains(&preset) {
                            return Err(invalid(format!("--presets names {name:?} twice")));
                        }
                        presets.push(preset);
                    }
                    if presets.is_empty() {
                        return Err(invalid("--presets needs at least one name".to_string()));
                    }
                    opts.presets = presets;
                }
                "--no-diagnose" => opts.diagnose = false,
                "--save-corpus" => {
                    choose("--save-corpus", Mode::SaveCorpus(value("--save-corpus")?))?
                }
                "--corpus" => opts.corpus = Some(value("--corpus")?),
                "--shard" => {
                    let v = value("--shard")?;
                    let parsed = v.split_once('/').and_then(|(i, n)| {
                        let index: usize = i.parse().ok()?;
                        let of: usize = n.parse().ok()?;
                        (of >= 1 && index < of).then_some(Mode::Shard { index, of })
                    });
                    let mode = parsed.ok_or_else(|| {
                        invalid(format!("bad shard spec {v:?} (expected i/n with i < n)"))
                    })?;
                    choose("--shard", mode)?;
                }
                "--merge" => choose("--merge", Mode::Merge(Vec::new()))?,
                "--deterministic" => opts.deterministic = true,
                "--trace" => opts.trace = Some(value("--trace")?),
                "--serve-coordinator" => {
                    let bind = value("--serve-coordinator")?;
                    let addr_file = None;
                    choose("--serve-coordinator", Mode::Coordinator { bind, addr_file })?;
                }
                "--worker" => {
                    let (addr, name) = (value("--worker")?, "worker".to_string());
                    choose("--worker", Mode::Worker { addr, name })?;
                }
                "--worker-name" => worker_name = Some(value("--worker-name")?),
                "--dist-addr-file" => addr_file = Some(value("--dist-addr-file")?),
                "--help" | "-h" => return Err(ParseError::Help),
                other if !other.starts_with('-') => paths.push(other.to_string()),
                other => return Err(invalid(format!("unknown argument {other:?}\n{USAGE}"))),
            }
        }
        let given = |flag: &str| flags.iter().any(|f| f == flag);
        opts.mode = chosen.map_or(Mode::Run, |(_, mode)| mode);

        // Each mode's own options, attached to it or rejected without it.
        match (&mut opts.mode, worker_name) {
            (Mode::Worker { name, .. }, Some(n)) => *name = n,
            (_, Some(_)) => {
                return Err(invalid(
                    "--worker-name only makes sense with --worker".to_string(),
                ))
            }
            _ => {}
        }
        match (&mut opts.mode, addr_file) {
            (Mode::Coordinator { addr_file, .. }, file) => *addr_file = file,
            (_, Some(_)) => {
                return Err(invalid(
                    "--dist-addr-file only makes sense with --serve-coordinator (workers \
                     take the address as the --worker argument)"
                        .to_string(),
                ))
            }
            _ => {}
        }
        match (&mut opts.mode, paths) {
            (Mode::Merge(inputs), paths) => *inputs = paths,
            (_, paths) if !paths.is_empty() => {
                return Err(invalid(format!(
                    "positional argument {:?} only allowed with --merge\n{USAGE}",
                    paths[0]
                )))
            }
            _ => {}
        }

        match &opts.mode {
            Mode::Run | Mode::Coordinator { .. } | Mode::SaveCorpus(_) => {}
            Mode::Shard { index, of } => {
                // An explicit --out is honoured verbatim (and --no-out
                // skips the write); only the default is replaced.
                if !given("--out") && !given("--no-out") {
                    opts.out = Some(format!("report-shard{index}of{of}.bin"));
                }
            }
            Mode::Merge(inputs) => {
                if inputs.is_empty() {
                    return Err(invalid(
                        "--merge needs at least one shard-report path".to_string(),
                    ));
                }
                // A merge reads shard reports only: a corpus would go unused.
                if opts.corpus.is_some() {
                    return Err(invalid(
                        "--merge takes no --corpus: it reads the shard reports only".to_string(),
                    ));
                }
            }
            Mode::Worker { .. } => {
                let ignored: Vec<&str> = (flags.iter().map(String::as_str))
                    .filter(|flag| !WORKER_FLAGS.contains(flag))
                    .collect();
                if !ignored.is_empty() {
                    return Err(invalid(format!(
                        "--worker receives its corpus and task parameters from the \
                         coordinator and writes no report, so it takes only {}, not {}",
                        WORKER_FLAGS.join(", "),
                        ignored.join(", ")
                    )));
                }
            }
        }
        let merge = matches!(opts.mode, Mode::Merge(_));
        if opts.scenario != "honest" && (opts.corpus.is_some() || merge) {
            return Err(invalid(
                "--scenario applies at corpus-generation time; a checkpoint loaded \
                 with --corpus (or shard reports under --merge) already embeds its \
                 scenario"
                    .to_string(),
            ));
        }
        Ok(opts)
    }
}

/// CLI usage text.
pub const USAGE: &str = "\
repro — generate a synthetic corpus, fuse it under the paper's five presets,
evaluate calibration and PR quality, and write a diffable report.json.

A process runs in one mode: a single run (default), or exactly one of
--save-corpus, --shard, --merge, --serve-coordinator and --worker. A
second mode flag, or a mode's own option without its mode, is rejected.

options:
  --scale tiny|small|paper|large   corpus size (default: paper)
  --scenario NAME                  hostile-corpus scenario applied at
                                   generation time (honest|copying|spam|
                                   drift|linkage; default: honest);
                                   incompatible with --corpus/--merge
  --seed N                         corpus seed (default: 42)
  --out PATH                       report path (default: report.json;
                                   binary shard report in --shard mode)
  --no-out                         skip writing the report file
  --workers N                      threads the run keeps busy (N >= 1):
                                   presets first, kernel ranges with what
                                   is left; the report does not depend
                                   on it
  --bins N                         calibration bins (default: 10)
  --presets a,b,c                  subset of: vote,accu,popaccu,
                                   popaccu_plus_unsup,popaccu_plus
                                   (names each preset at most once)
  --no-diagnose                    skip the Fig. 17 error-taxonomy pass
                                   (per-preset \"taxonomy\" report section)
  --trace PATH                     write the whole-run trace (phase span
                                   tree, counters, series) as JSON

checkpointing & sharding:
  --save-corpus PATH               generate the corpus, save it as a
                                   checkpoint, and exit without fusing
  --corpus PATH                    load the corpus from a checkpoint
                                   instead of regenerating
  --shard I/N                      fuse only shard I of N (the tasks at
                                   positions j % N == I of the costliest-
                                   first task table); writes a binary
                                   shard report to --out (default:
                                   report-shardIofN.bin)
  --merge SHARD.bin ...            merge binary shard reports back into
                                   one report.json (positional paths);
                                   methods reassemble in ablation order
  --deterministic                  zero every wall-clock field (fuse_ms
                                   and all trace timings) so single-
                                   process and merged sharded reports are
                                   byte-identical

distributed execution:
  --serve-coordinator ADDR         bind ADDR (port 0 picks a free port),
                                   ship the corpus to registering workers,
                                   dispatch one task per preset, and merge
                                   the shard reports exactly as --merge
  --worker ADDR                    connect to a coordinator at ADDR and
                                   answer tasks until shut down; corpus
                                   and fusion parameters arrive over the
                                   wire, so a worker takes only
                                   --worker-name, --trace and
                                   --deterministic
  --worker-name NAME               --worker: handshake name (default:
                                   worker); the KF_DIST_FAIL fault
                                   injection matches it
  --dist-addr-file PATH            --serve-coordinator: write the bound
                                   address to PATH once listening, so
                                   scripts can start workers without
                                   guessing ports

A servable fused KB is built from a corpus checkpoint by kf-serve:
  kf-serve build --corpus PATH --out KB [--method NAME] [--workers N]
                 [--scale LABEL]
";

/// The corpus configuration for a scale name.
pub fn scale_config(scale: &str) -> Option<SynthConfig> {
    match scale {
        "tiny" => Some(SynthConfig::tiny()),
        "small" => Some(SynthConfig::small()),
        "paper" => Some(SynthConfig::paper()),
        "large" => Some(SynthConfig::large()),
        _ => None,
    }
}

/// Generate the corpus described by `opts`. Errors on an unknown scale
/// (possible when options are built directly rather than parsed).
pub fn generate_corpus(opts: &ReproOptions) -> Result<Corpus, String> {
    let mut config = scale_config(&opts.scale).ok_or_else(|| {
        format!(
            "unknown scale {:?} (expected tiny|small|paper|large)",
            opts.scale
        )
    })?;
    config.scenarios = scenario_config(&opts.scenario, &config).ok_or_else(|| {
        format!(
            "unknown scenario {:?} (expected one of {SCENARIO_NAMES:?})",
            opts.scenario
        )
    })?;
    Ok(Corpus::generate(&config, opts.seed))
}

/// Obtain the corpus for a run: load the checkpoint named by `--corpus`,
/// or generate from `--scale`/`--seed`. Returns the corpus and whether it
/// was loaded (for log lines).
///
/// A loaded corpus carries its own seed; the report's `corpus.seed` comes
/// from the corpus itself, so `--seed` is ignored in that case. The
/// `--scale` label is still recorded in the report header — pass the same
/// `--scale` the checkpoint was generated with to keep reports diffable.
pub fn obtain_corpus(opts: &ReproOptions) -> Result<(Corpus, bool), String> {
    match &opts.corpus {
        Some(path) => {
            let corpus =
                Corpus::load(path).map_err(|e| format!("cannot load corpus {path:?}: {e}"))?;
            Ok((corpus, true))
        }
        None => Ok((generate_corpus(opts)?, false)),
    }
}

/// How long `config`'s rounds take next to another preset's over the same
/// corpus, from what the configuration shows: the round cap, and
/// POPACCU's inner iterations per round.
fn relative_cost(config: &FusionConfig) -> usize {
    let per_round = match config.method {
        Method::PopAccu => 1 + config.popaccu_inner_iters,
        Method::Vote | Method::Accu => 1,
    };
    config.rounds * per_round
}

/// The task table of a run over `presets` — the one way a run is split,
/// whatever fans it out: one task per preset, named by its position in
/// `presets`, costliest first by [`relative_cost`] (stable: presets of
/// equal cost keep report order), so the longest never starts last. The
/// in-process schedule hands its tasks to [`run_tasks`] in this order,
/// [`dist_task_specs`] numbers it, and [`shard_presets`] stripes it. One
/// preset per task keeps every shard report deterministic for its
/// `(corpus, task)` pair — what makes re-dispatched replicas
/// interchangeable in the merge — and is the finest work unit the merge
/// semantics allow.
fn task_table(presets: &[Preset]) -> Vec<usize> {
    let mut table: Vec<usize> = (0..presets.len()).collect();
    table.sort_by_key(|&at| std::cmp::Reverse(relative_cost(&presets[at].config())));
    table
}

/// The presets shard `index` of `of` fuses (`--shard i/n`): the tasks at
/// positions `j ≡ index (mod of)` of the run's costliest-first task
/// table, in table order. Striping that table gives every shard a
/// near-equal share of the expensive presets; the union over all shards
/// is exactly `presets`, each exactly once.
///
/// # Panics
///
/// Panics when `index >= of` — a malformed shard request is a caller bug,
/// not a recoverable condition.
pub fn shard_presets(presets: &[Preset], index: usize, of: usize) -> Vec<Preset> {
    assert!(index < of, "shard {index}/{of} out of range");
    let slice = task_table(presets).into_iter().skip(index).step_by(of);
    slice.map(|at| presets[at]).collect()
}

/// The tasks a `--serve-coordinator` run dispatches: the run's task table
/// as [`TaskSpec`]s, each carrying its preset and the fusion parameters of
/// this run, `task_id` = table position. The coordinator hands tasks out
/// in table order; the merge puts methods back in report order whatever
/// order their shards arrive in.
pub fn dist_task_specs(opts: &ReproOptions) -> Vec<TaskSpec> {
    task_table(&opts.presets)
        .into_iter()
        .enumerate()
        .map(|(task_id, at)| TaskSpec {
            task_id: task_id as u32,
            preset: opts.presets[at].name().to_string(),
            scale: opts.scale.clone(),
            bins: opts.bins as u64,
            workers: opts.workers.unwrap_or(0) as u64,
            diagnose: opts.diagnose,
            deterministic: opts.deterministic,
        })
        .collect()
}

/// The [`ReproOptions`] a worker reconstructs from a dispatched
/// [`TaskSpec`]: the inverse of [`dist_task_specs`] for every field a
/// task carries (`workers == 0` encodes "library default"; a parsed
/// `--workers` is never 0). Errors on an unknown preset name — the
/// coordinator speaking a preset this build does not know is a deployment
/// skew the worker must surface, not fuse around.
pub fn options_for_task(spec: &TaskSpec) -> Result<ReproOptions, String> {
    let preset = Preset::by_name(&spec.preset)
        .ok_or_else(|| format!("task {}: unknown preset {:?}", spec.task_id, spec.preset))?;
    Ok(ReproOptions {
        scale: spec.scale.clone(),
        bins: spec.bins as usize,
        workers: (spec.workers > 0).then_some(spec.workers as usize),
        presets: vec![preset],
        diagnose: spec.diagnose,
        deterministic: spec.deterministic,
        ..ReproOptions::default()
    })
}

/// The runner a `kf-dist` worker answers tasks with, one per connection
/// (`repro --worker` and the tests hand it to `kf_dist::run_worker`):
/// rebuild the options from the spec ([`options_for_task`]), group and
/// label the corpus the first time, with the diagnosis inputs if the
/// task diagnoses, and reuse that context for every later task — the
/// corpus is shipped once per connection, so it cannot change under the
/// cache; only a diagnosing task after a context built without the
/// diagnosis inputs rebuilds it — and fuse with
/// [`run_on_corpus_with_context`].
pub fn task_runner() -> impl FnMut(&Corpus, &TaskSpec) -> Result<EvalReport, String> {
    let mut shared: Option<DiagnosisContext> = None;
    move |corpus: &Corpus, spec: &TaskSpec| {
        let opts = options_for_task(spec)?;
        let stale = match &shared {
            None => true,
            Some(ctx) => opts.diagnose && ctx.taxonomy.is_none(),
        };
        if stale {
            let mr = engine_config(opts.workers);
            shared = Some(corpus_context(corpus, mr, opts.diagnose));
        }
        Ok(run_on_corpus_with_context(&opts, corpus, shared.as_ref()))
    }
}

/// Load binary shard reports and merge them into the full report
/// ([`Mode::Merge`]).
pub fn merge_shards(paths: &[String]) -> Result<EvalReport, String> {
    let mut shards = Vec::with_capacity(paths.len());
    for path in paths {
        shards
            .push(EvalReport::load(path).map_err(|e| format!("cannot load shard {path:?}: {e}"))?);
    }
    kf_eval::merge_reports(shards).map_err(|e| e.to_string())
}

/// End-to-end: generate, fuse each preset, evaluate, assemble the report.
pub fn run(opts: &ReproOptions) -> Result<EvalReport, String> {
    let corpus = generate_corpus(opts)?;
    Ok(run_on_corpus(opts, &corpus))
}

/// The MapReduce configuration a run's presets and diagnosis share
/// (`None` = library default).
fn engine_config(workers: Option<usize>) -> MrConfig {
    workers.map_or_else(MrConfig::default, MrConfig::with_workers)
}

/// A unit of a scheduled run: anything [`run_tasks`] may put on any of the
/// run's threads, writing its result where its maker told it to.
type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

/// The per-corpus state every preset's run shares: the grouped claims
/// (with the claim graphs they hold; the support index the diagnosis
/// reads is a handle on them), each claim slot's gold label, and — for a
/// run that diagnoses — the error-taxonomy pass's other inputs, with the
/// engine configuration whose worker count the diagnoser fans out under.
///
/// Building this is the expensive prefix of a run (the one grouping job
/// over the extraction batch and the one labelling of its slots), so
/// callers that fuse the same corpus repeatedly — a `kf-dist` worker's
/// [`task_runner`], one task per preset — build it once with
/// [`build_diagnosis_context`] and hand it to
/// [`run_on_corpus_with_context`] for every task.
pub struct DiagnosisContext {
    claims: Arc<Claims>,
    /// Each claim slot's gold label, in slot order
    /// ([`SlotTable::labels`](kf_core::SlotTable::labels)).
    gold_labels: Vec<Label>,
    /// The taxonomy pass's other inputs; `None` in a context built for a
    /// run that does not diagnose.
    taxonomy: Option<TaxonomyInputs>,
    mr: MrConfig,
}

/// What the error-taxonomy pass reads besides the claims: the
/// generator-truth and scenario-truth joins and the extractor labels.
struct TaxonomyInputs {
    truth: kf_types::FxHashMap<kf_types::Triple, kf_types::ErrorCategory>,
    scenario: kf_types::FxHashMap<kf_types::Triple, kf_types::ScenarioPhenomenon>,
    extractor_labels: Vec<String>,
}

/// `work`'s result and its record: a trace of its own rooted at `name`,
/// installed while `work` runs on whichever thread took it, for the
/// caller it ran for to graft, once ([`kf_telemetry::graft`]).
fn recorded<T>(name: &'static str, work: impl FnOnce() -> T) -> (T, TraceReport) {
    let trace = Trace::with_root(name);
    let result = {
        let _installed = kf_telemetry::install(&trace);
        work()
    };
    (result, trace.snapshot())
}

/// Build the shared per-corpus state for `corpus`, or `None` when
/// `opts.diagnose` is off ([`run_on_corpus_with_context`] then groups
/// and labels the corpus itself).
pub fn build_diagnosis_context(opts: &ReproOptions, corpus: &Corpus) -> Option<DiagnosisContext> {
    let mr = engine_config(opts.workers);
    opts.diagnose.then(|| corpus_context(corpus, mr, true))
}

/// Group `corpus` — with the diagnosis inputs beside it if `diagnose`
/// ([`group_beside_truth_joins`]), else as a run-level `group` — then
/// label the claim slots against its gold standard once, under `label`:
/// all on the *process-level* trace, not any method's.
fn corpus_context(corpus: &Corpus, mr: MrConfig, diagnose: bool) -> DiagnosisContext {
    let (claims, taxonomy) = if diagnose {
        let (claims, taxonomy) = group_beside_truth_joins(corpus, &mr);
        (claims, Some(taxonomy))
    } else {
        (Claims::build_recorded(&corpus.batch.records, &mr), None)
    };
    let gold_labels = {
        let _span = kf_telemetry::span("label");
        claims.table().labels(&corpus.gold)
    };
    DiagnosisContext {
        claims: Arc::new(claims),
        gold_labels,
        taxonomy,
        mr,
    }
}

/// The grouped claims and the taxonomy pass's other inputs, under a
/// `support_index` span: the grouping job as `group` and the truth
/// joins as `truth_joins`. The truth joins do not read the claims: they
/// run beside the grouping job, as the second task of a two-task fan-out.
///
/// `support_index`'s children attribute its wall time along the critical
/// path, so they add up to no more than it whatever the worker budget:
/// `group` holds its whole time, and `truth_joins` the part of its time
/// that the grouping lane did not cover — all of it on one worker, where
/// the two tasks run in turn, and only what the run waited for the joins
/// once the claims were built when they ran side by side.
fn group_beside_truth_joins(corpus: &Corpus, mr: &MrConfig) -> (Claims, TaxonomyInputs) {
    let _span = kf_telemetry::span("support_index");
    let (mut grouped, mut truths) = (None, None);
    let group: Task = Box::new(|| {
        grouped = Some((Claims::build(&corpus.batch.records, mr), Instant::now()));
    });
    // The scenario join is empty for honest corpora; hostile
    // checkpoints carry their injected phenomena into every method's
    // taxonomy section.
    let join: Task = Box::new(|| {
        let start = Instant::now();
        let joins = recorded("truth_joins", || {
            (corpus.taxonomy_truth(), corpus.scenario_truth())
        });
        truths = Some((joins, start, Instant::now()));
    });
    run_tasks(mr.workers, vec![group, join]);
    let (claims, grouped_at) = grouped.expect("the grouping task ran");
    let (((truth, scenario), mut joins), joins_from, joined_at) =
        truths.expect("the join task ran");
    let uncovered = joined_at.saturating_duration_since(grouped_at.max(joins_from));
    joins.root.total_ns = uncovered.as_nanos() as u64;
    // Whichever threads took the two tasks, they ran for this one:
    // their records land here, under `support_index`.
    kf_telemetry::graft(claims.trace());
    kf_telemetry::graft(&joins);
    let taxonomy = TaxonomyInputs {
        truth,
        scenario,
        extractor_labels: corpus.extractors.iter().map(|e| e.name.clone()).collect(),
    };
    (claims, taxonomy)
}

/// [`run`] over an existing corpus.
///
/// The extractions are shuffled once per corpus, their slots labelled
/// against the gold standard once, and each granularity's claim graph
/// projected once from the grouped claims, all before the presets fan
/// out and all recorded on the process-level trace; per preset: fuse
/// over its granularity's graph, evaluate calibration/PR against the
/// shared labels, and — unless `opts.diagnose` is off — run the
/// `kf-diagnose` error-taxonomy pass so every method's report section
/// carries the Fig. 17 breakdown plus the heuristic-vs-injected
/// confusion matrix. The claims, labels and generator-truth join are
/// built once ([`build_diagnosis_context`]) and shared by all presets;
/// the report header is read off the same claims and labels
/// ([`AblationRunner::claims_summary`]).
///
/// The presets are independent runs over shared, immutable graphs, so the
/// run's `workers` go to whole presets first ([`run_tasks`]) and to the
/// kernel ranges and job phases inside them with what is left; the report
/// does not depend on `workers`.
///
/// Every preset runs under a fresh `kf-telemetry` trace; the resulting
/// span tree and counters are attached as [`MethodEval::trace`], so
/// traces ride through shard reports and reassemble under `--merge`.
/// With `opts.deterministic` the finished report is passed through
/// [`EvalReport::quarantine_timings`], zeroing `fuse_ms` and every span
/// duration.
pub fn run_on_corpus(opts: &ReproOptions, corpus: &Corpus) -> EvalReport {
    let diagnosis = build_diagnosis_context(opts, corpus);
    run_on_corpus_with_context(opts, corpus, diagnosis.as_ref())
}

/// [`run_on_corpus`] with the shared per-corpus state prebuilt (`None`
/// groups and labels the corpus within this call only, and disables the
/// taxonomy pass, exactly like `opts.diagnose == false`; so does a
/// context built without the diagnosis inputs). The context must have
/// been built from the same corpus and equivalent options; reusing it
/// changes nothing about the produced bytes — no method's trace records
/// the grouping job, the labelling or a projection — only skips
/// regrouping and relabelling the corpus, rejoining the truths and
/// reprojecting the graphs its claims already hold.
pub fn run_on_corpus_with_context(
    opts: &ReproOptions,
    corpus: &Corpus,
    diagnosis: Option<&DiagnosisContext>,
) -> EvalReport {
    let (methods, summary) = fuse_presets(opts, corpus, diagnosis, |_, _, method| method);
    let mut report = EvalReport {
        corpus: summary,
        methods,
    };
    if opts.deterministic {
        // Wall-clock is the report's only nondeterministic content; one
        // quarantine pass zeroes every timing field (fuse_ms and all span
        // durations) so single-process and merged sharded runs are
        // byte-identical.
        report.quarantine_timings();
    }
    report
}

/// The schedule of a run: group and label the corpus unless `shared`
/// already has, and project each granularity the presets need that the
/// claims do not hold yet ([`Claims::project_graphs`]); then every
/// preset of `opts` as one task — the shared step
/// ([`AblationRunner::fuse_preset`]) and, if `opts.diagnose` and the
/// context holds its inputs, the diagnosis, under its own `method`
/// trace, then `finish(preset, output, evaluation)` — handed to
/// [`run_tasks`] in task-table order, plus the corpus summary off the
/// claims ([`AblationRunner::claims_summary`]) as one more, last. Returns
/// what the presets finished as, in `opts.presets` order, and the summary.
pub(crate) fn fuse_presets<T: Send>(
    opts: &ReproOptions,
    corpus: &Corpus,
    shared: Option<&DiagnosisContext>,
    finish: impl Fn(Preset, &FusionOutput, MethodEval) -> T + Sync,
) -> (Vec<T>, CorpusSummary) {
    let runner = AblationRunner {
        n_bins: opts.bins,
        workers: opts.workers,
        scale: opts.scale.clone(),
        ..Default::default()
    };
    let mr = engine_config(opts.workers);
    let call_local;
    let ctx: &DiagnosisContext = match shared {
        Some(ctx) => ctx,
        None => {
            call_local = corpus_context(corpus, mr, false);
            &call_local
        }
    };
    let (claims, labels) = (&*ctx.claims, &ctx.gold_labels[..]);
    let taxonomy = ctx.taxonomy.as_ref().filter(|_| opts.diagnose);
    claims.project_graphs(
        opts.presets.iter().map(|p| p.config().granularity),
        mr.workers,
    );
    let (runner, finish) = (&runner, &finish);

    let mut finished: Vec<Option<T>> = opts.presets.iter().map(|_| None).collect();
    let mut slots: Vec<_> = finished.iter_mut().map(Some).collect();
    let mut summary = None;
    let mut tasks: Vec<Task> = Vec::with_capacity(slots.len() + 1);
    for at in task_table(&opts.presets) {
        let preset = opts.presets[at];
        let slot = slots[at].take().expect("the table names each preset once");
        let fuse = move || {
            // Each preset runs under its own trace (shadowing the
            // process-level one), so neither the shard nor the thread a
            // preset happens to run in changes what its trace records.
            let trace = Trace::with_root("method");
            let installed = kf_telemetry::install(&trace);
            let (output, attribution, mut method) = runner.fuse_preset(preset, claims, labels);
            if let Some(inputs) = taxonomy {
                let _span = kf_telemetry::span("diagnose");
                let support = SupportIndex::from_claims(Arc::clone(&ctx.claims));
                let (taxonomy, _) = Diagnoser::new(&corpus.gold, &corpus.world, &support)
                    .with_truth(&inputs.truth)
                    .with_scenario(&inputs.scenario)
                    .with_attribution(&attribution)
                    .with_extractor_labels(&inputs.extractor_labels)
                    .with_config(DiagnoseConfig {
                        mr: ctx.mr,
                        ..Default::default()
                    })
                    .run(&output);
                method.taxonomy = Some(taxonomy);
            }
            drop(installed);
            method.trace = Some(trace.snapshot());
            *slot = Some(finish(preset, &output, method));
        };
        tasks.push(Box::new(fuse));
    }
    tasks.push(Box::new(|| {
        summary = Some(runner.claims_summary(corpus, claims, labels))
    }));
    run_tasks(mr.workers, tasks);

    let finished = finished.into_iter().map(|t| t.expect("every preset ran"));
    (finished.collect(), summary.expect("the summary task ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kf_core::Fuser;
    use std::sync::Mutex;

    #[test]
    fn parse_defaults() {
        let opts = ReproOptions::parse(Vec::<String>::new()).unwrap();
        assert_eq!(opts.scale, "paper");
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.out.as_deref(), Some("report.json"));
        assert_eq!(opts.presets.len(), 5);
    }

    #[test]
    fn parse_all_options() {
        let opts = ReproOptions::parse([
            "--scale",
            "tiny",
            "--seed",
            "9",
            "--out",
            "x.json",
            "--workers",
            "3",
            "--bins",
            "20",
            "--presets",
            "vote,popaccu",
            "--trace",
            "t.json",
        ])
        .unwrap();
        assert_eq!(opts.scale, "tiny");
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.out.as_deref(), Some("x.json"));
        assert_eq!(opts.workers, Some(3));
        assert_eq!(opts.bins, 20);
        assert_eq!(opts.presets, vec![Preset::Vote, Preset::PopAccu]);
        assert_eq!(opts.trace.as_deref(), Some("t.json"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ReproOptions::parse(["--scale", "huge"]).is_err());
        assert!(ReproOptions::parse(["--seed", "abc"]).is_err());
        assert!(ReproOptions::parse(["--workers", "0"]).is_err());
        assert!(ReproOptions::parse(["--presets", "nope"]).is_err());
        assert!(ReproOptions::parse(["--presets", "vote,accu,vote"]).is_err());
        assert!(ReproOptions::parse(["--frobnicate"]).is_err());
        assert!(ReproOptions::parse(["--seed"]).is_err());
    }

    #[test]
    fn parse_scenario_flag() {
        assert_eq!(
            ReproOptions::parse(Vec::<String>::new()).unwrap().scenario,
            "honest"
        );
        for name in SCENARIO_NAMES {
            let opts = ReproOptions::parse(["--scenario", name]).unwrap();
            assert_eq!(opts.scenario, *name);
        }
        assert!(ReproOptions::parse(["--scenario", "zombie"]).is_err());
        assert!(ReproOptions::parse(["--scenario"]).is_err());
        // A scenario rewrites the generator config, so it cannot combine
        // with a pre-generated checkpoint or a shard merge.
        assert!(ReproOptions::parse(["--scenario", "spam", "--corpus", "c.kfc"]).is_err());
        let err =
            ReproOptions::parse(["--scenario", "spam", "--merge", "a.bin", "--out", "r.json"])
                .unwrap_err();
        assert!(err.to_string().contains("--scenario"), "{err}");
    }

    #[test]
    fn parse_checkpoint_and_shard_flags() {
        let opts = ReproOptions::parse([
            "--corpus",
            "c.kfc",
            "--shard",
            "1/3",
            "--deterministic",
            "--out",
            "s1.bin",
        ])
        .unwrap();
        assert_eq!(opts.corpus.as_deref(), Some("c.kfc"));
        assert_eq!(opts.mode, Mode::Shard { index: 1, of: 3 });
        assert!(opts.deterministic);
        assert_eq!(opts.out.as_deref(), Some("s1.bin"));

        let opts = ReproOptions::parse(["--save-corpus", "snap.kfc", "--scale", "tiny"]).unwrap();
        assert_eq!(opts.mode, Mode::SaveCorpus("snap.kfc".into()));
        assert_eq!(opts.scale, "tiny");
    }

    #[test]
    fn parse_dist_flags() {
        let opts = ReproOptions::parse([
            "--serve-coordinator",
            "127.0.0.1:0",
            "--dist-addr-file",
            "addr.txt",
            "--deterministic",
        ])
        .unwrap();
        let coordinator = Mode::Coordinator {
            bind: "127.0.0.1:0".into(),
            addr_file: Some("addr.txt".into()),
        };
        assert_eq!(opts.mode, coordinator);
        assert!(opts.deterministic);

        let opts =
            ReproOptions::parse(["--worker", "127.0.0.1:7000", "--worker-name", "w3"]).unwrap();
        let worker = Mode::Worker {
            addr: "127.0.0.1:7000".into(),
            name: "w3".into(),
        };
        assert_eq!(opts.mode, worker);
    }

    /// `args` is rejected as a contradiction, not as garbage or a help
    /// request; the message says why.
    fn invalid(args: &[&str]) -> String {
        match ReproOptions::parse(args) {
            Err(ParseError::Invalid(msg)) => msg,
            other => panic!("{args:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_invalid_shard_and_merge_combos() {
        // Malformed shard specs.
        for bad in ["2/2", "3/2", "x/2", "1", "1/0", "/2", "1/"] {
            invalid(&["--shard", bad]);
        }
        // Positionals without --merge.
        invalid(&["stray.bin"]);
        // Merge without inputs, or combined with another mode or with a
        // corpus it would not use.
        invalid(&["--merge"]);
        invalid(&["--merge", "a.bin", "--shard", "0/2"]);
        invalid(&["--merge", "a.bin", "--corpus", "c.kfc"]);
        invalid(&["--merge", "a.bin", "--save-corpus", "c.kfc"]);
        // Snapshot mode exits before fusing, so a shard request with it
        // is a contradiction, not a silent no-op.
        invalid(&["--save-corpus", "c.kfc", "--shard", "0/2"]);
    }

    /// `repro` builds no KB (`kf-serve build` does): `--build-kb` and
    /// `--kb-method` are unknown arguments.
    #[test]
    fn parse_build_kb_flags() {
        for args in [&["--build-kb", "o.kb"][..], &["--kb-method", "vote"]] {
            assert!(invalid(args).contains("unknown argument"), "{args:?}");
        }
    }

    /// No mode takes a KB path, and a merge, which reads shard reports
    /// only, takes no corpus to build one from.
    #[test]
    fn parse_rejects_invalid_build_kb_combos() {
        for mode in [
            &["--merge", "a.bin", "--corpus", "c.kfc"][..],
            &["--shard", "0/2"],
            &["--save-corpus", "c.kfc"],
            &["--serve-coordinator", "127.0.0.1:0"],
        ] {
            let msg = invalid(&[mode, &["--build-kb", "o.kb"]].concat());
            assert!(msg.contains("unknown argument"), "{mode:?}: {msg}");
        }
        let msg = invalid(&["--merge", "a.bin", "--corpus", "c.kfc"]);
        assert!(msg.contains("--merge takes no --corpus"), "{msg}");
    }

    #[test]
    fn parse_rejects_invalid_dist_combos() {
        // One process is one role.
        invalid(&["--serve-coordinator", "127.0.0.1:0", "--worker", "a:1"]);
        // The coordinator replaces the process-level fan-out flags.
        for extra in [
            ["--shard", "0/2"],
            ["--merge", "a.bin"],
            ["--save-corpus", "c.kfc"],
        ] {
            invalid(&["--serve-coordinator", "127.0.0.1:0", extra[0], extra[1]]);
        }
        // A worker's corpus and parameters come over the wire, and it
        // writes no report.
        let extras: [&[&str]; 13] = [
            &["--shard", "0/2"],
            &["--merge", "a.bin"],
            &["--save-corpus", "c.kfc"],
            &["--corpus", "c.kfc"],
            &["--out", "r.json"],
            &["--no-out"],
            &["--scenario", "spam"],
            &["--presets", "vote"],
            &["--bins", "3"],
            &["--seed", "5"],
            &["--scale", "tiny"],
            &["--workers", "2"],
            &["--no-diagnose"],
        ];
        for extra in extras {
            invalid(&[&["--worker", "127.0.0.1:7000"][..], extra].concat());
        }
        // The address file is the coordinator's rendezvous output.
        invalid(&["--dist-addr-file", "addr.txt"]);
        invalid(&["--worker", "a:1", "--dist-addr-file", "addr.txt"]);
    }

    /// A process runs in one mode. Two mode flags, or a mode's own option
    /// outside it, are `ParseError::Invalid`; the accepted forms parse to
    /// exactly their mode, each with its own inputs attached.
    #[test]
    fn parse_accepts_one_mode_and_rejects_the_rest() {
        let modes: [(&str, &[&str]); 6] = [
            ("", &[]),
            ("--save-corpus", &["--save-corpus", "c.kfc"]),
            ("--shard", &["--shard", "0/2"]),
            ("--merge", &["--merge", "a.bin"]),
            (
                "--serve-coordinator",
                &["--serve-coordinator", "127.0.0.1:0"],
            ),
            ("--worker", &["--worker", "127.0.0.1:7000"]),
        ];

        // All ten pairs of mode flags, in either order, named together in
        // the message.
        for (first, a) in &modes[1..] {
            for (second, b) in modes[1..].iter().filter(|(flag, _)| flag != first) {
                let msg = invalid(&[*a, *b].concat());
                assert!(msg.contains(first) && msg.contains(second), "{msg}");
            }
        }
        // Each mode's own option, outside its mode.
        let own: [(&str, &[&str]); 3] = [
            ("--worker", &["--worker-name", "w"]),
            ("--serve-coordinator", &["--dist-addr-file", "addr.txt"]),
            ("--merge", &["stray.bin"]),
        ];
        for (owner, option) in own {
            for (flag, args) in modes.iter().filter(|(flag, _)| *flag != owner) {
                let row = [*args, option].concat();
                assert!(!invalid(&row).is_empty(), "{flag} {option:?}");
            }
        }

        let shard = |index, of| Mode::Shard { index, of };
        let merge = |paths: &[&str]| Mode::Merge(paths.iter().map(|p| p.to_string()).collect());
        let coordinator = |addr_file: Option<&str>| Mode::Coordinator {
            bind: "127.0.0.1:0".into(),
            addr_file: addr_file.map(Into::into),
        };
        let worker = |name: &str| Mode::Worker {
            addr: "a:1".into(),
            name: name.into(),
        };
        let json = Some("report.json");
        let accepted: &[(&[&str], Mode, Option<&str>)] = &[
            (&[], Mode::Run, json),
            (
                &["--save-corpus", "c.kfc"],
                Mode::SaveCorpus("c.kfc".into()),
                json,
            ),
            // A defaulted report path becomes the shard's own file name;
            // an explicit --out or --no-out is honoured verbatim.
            (
                &["--shard", "1/3"],
                shard(1, 3),
                Some("report-shard1of3.bin"),
            ),
            (
                &["--out", "s.bin", "--shard", "1/3"],
                shard(1, 3),
                Some("s.bin"),
            ),
            (&["--shard", "0/2", "--no-out"], shard(0, 2), None),
            // Repeating a mode flag is not a second mode: the last wins.
            (
                &["--shard", "0/2", "--shard", "1/2"],
                shard(1, 2),
                Some("report-shard1of2.bin"),
            ),
            (
                &["a.bin", "--merge", "b.bin"],
                merge(&["a.bin", "b.bin"]),
                json,
            ),
            (
                &["--serve-coordinator", "127.0.0.1:0"],
                coordinator(None),
                json,
            ),
            (
                &[
                    "--dist-addr-file",
                    "f",
                    "--serve-coordinator",
                    "127.0.0.1:0",
                ],
                coordinator(Some("f")),
                json,
            ),
            (&["--worker", "a:1"], worker("worker"), json),
            (
                &[
                    "--worker-name",
                    "w3",
                    "--worker",
                    "a:1",
                    "--trace",
                    "t.json",
                    "--deterministic",
                ],
                worker("w3"),
                json,
            ),
        ];
        for (args, mode, out) in accepted {
            let opts = ReproOptions::parse(*args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!(&opts.mode, mode, "{args:?}");
            assert_eq!(opts.out.as_deref(), *out, "{args:?}");
        }
    }

    #[test]
    fn task_specs_roundtrip_through_worker_options() {
        let opts = ReproOptions {
            scale: "tiny".into(),
            bins: 7,
            workers: Some(3),
            deterministic: true,
            ..Default::default()
        };
        let specs = dist_task_specs(&opts);
        let mut tasks = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.task_id, i as u32);
            let back = options_for_task(spec).unwrap();
            assert_eq!(back.scale, "tiny");
            assert_eq!(back.bins, 7);
            assert_eq!(back.workers, Some(3));
            assert!(back.deterministic && back.diagnose);
            assert_eq!(back.presets.len(), 1);
            assert_eq!(back.presets[0].name(), spec.preset);
            tasks.push(back.presets[0]);
        }
        // Costliest first, report order among equals: the three POPACCU
        // variants (45 inner iterations each), then ACCU (5), then VOTE
        // (1) — each preset exactly once, the invariant the merge's
        // duplicate check enforces later.
        use Preset::*;
        assert_eq!(tasks, [PopAccu, PopAccuPlusUnsup, PopAccuPlus, Accu, Vote]);
        // workers == 0 encodes the library default.
        let spec = &dist_task_specs(&ReproOptions {
            workers: None,
            ..Default::default()
        })[0];
        assert_eq!(spec.workers, 0);
        assert_eq!(options_for_task(spec).unwrap().workers, None);
        // Unknown preset names surface as deployment skew, not a panic.
        let mut bad = specs[0].clone();
        bad.preset = "warp-drive".into();
        assert!(options_for_task(&bad).unwrap_err().contains("warp-drive"));
    }

    /// `--shard i/n` stripes the task table: for every split the slices
    /// cover the run's presets exactly once, for the default list and for
    /// a `--presets` subset alike.
    #[test]
    fn shard_slices_cover_every_preset_exactly_once() {
        use Preset::*;
        for presets in [Preset::ALL.to_vec(), vec![Vote, PopAccuPlus, Accu]] {
            for of in 1..=6 {
                let mut union: Vec<Preset> = (0..of)
                    .flat_map(|i| shard_presets(&presets, i, of))
                    .collect();
                union.sort_by_key(|p| presets.iter().position(|q| q == p));
                assert_eq!(union, presets, "{of} shards of {presets:?}");
            }
        }
        // Slices are in table order; one shard is the whole table.
        assert_eq!(shard_presets(&Preset::ALL, 0, 3), [PopAccu, Accu]);
        assert_eq!(shard_presets(&Preset::ALL, 1, 3), [PopAccuPlusUnsup, Vote]);
        assert_eq!(shard_presets(&Preset::ALL, 2, 3), [PopAccuPlus]);
        let table = [PopAccu, PopAccuPlusUnsup, PopAccuPlus, Accu, Vote];
        assert_eq!(shard_presets(&Preset::ALL, 0, 1), table);
    }

    /// With one thread the schedule runs its tasks one after another, so
    /// the presets finish in task-table order.
    #[test]
    fn one_worker_finishes_presets_in_table_order() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 5);
        let opts = ReproOptions {
            scale: "tiny".into(),
            workers: Some(1),
            presets: vec![Preset::Vote, Preset::PopAccuPlus, Preset::Accu],
            diagnose: false,
            ..Default::default()
        };
        let order = Mutex::new(Vec::new());
        let note = |preset: Preset, _: &FusionOutput, _: MethodEval| {
            order.lock().unwrap().push(preset);
        };
        let (finished, _) = fuse_presets(&opts, &corpus, None, note);
        assert_eq!(finished.len(), 3);
        let order = order.into_inner().unwrap();
        assert_eq!(order, [Preset::PopAccuPlus, Preset::Accu, Preset::Vote]);
        let table: Vec<Preset> = task_table(&opts.presets)
            .into_iter()
            .map(|at| opts.presets[at])
            .collect();
        assert_eq!(order, table);
    }

    #[test]
    fn tiny_end_to_end_produces_all_presets() {
        let opts = ReproOptions {
            scale: "tiny".into(),
            seed: 5,
            out: None,
            workers: Some(2),
            ..Default::default()
        };
        let report = run(&opts).unwrap();
        assert_eq!(report.methods.len(), 5);
        assert!(report.corpus.n_records > 0);
        for m in &report.methods {
            assert!(m.wdev().is_finite());
            // Every preset carries a taxonomy section by default, and its
            // categories partition the diagnosed false positives.
            let taxonomy = m.taxonomy.as_ref().expect("taxonomy attached");
            for band in &taxonomy.bands {
                assert_eq!(band.counts.total(), band.n_labelled - band.n_true);
            }
            assert!(taxonomy.systematic_attribution.is_some());
        }
        // The JSON report names the section for every preset.
        let json = report.to_json_string();
        assert_eq!(json.matches("\"taxonomy\"").count(), 5);
    }

    /// What the schedule hands `finish` is the preset fused alone, to the
    /// bit, whatever the budget — one thread, two presets side by side with
    /// their kernels inline, more threads than tasks.
    #[test]
    fn scheduled_presets_fuse_to_the_bits_of_a_preset_fused_alone() {
        let corpus = Corpus::generate(&SynthConfig::tiny(), 5);
        let bits = |output: &FusionOutput| {
            let scored = output.scored.iter();
            let scored: Vec<_> = scored
                .map(|s| (s.triple, s.probability.map(f64::to_bits), s.fallback))
                .collect();
            let deltas: Vec<u64> = output.round_deltas.iter().map(|d| d.to_bits()).collect();
            (scored, deltas, output.n_provenances(), output.stats)
        };
        for workers in [1, 2, 8] {
            let opts = ReproOptions {
                scale: "tiny".into(),
                workers: Some(workers),
                ..Default::default()
            };
            let diagnosis = build_diagnosis_context(&opts, &corpus);
            let keep_bits = |_: Preset, output: &FusionOutput, _: MethodEval| bits(output);
            let (scheduled, _) = fuse_presets(&opts, &corpus, diagnosis.as_ref(), keep_bits);
            for (preset, scheduled) in Preset::ALL.into_iter().zip(scheduled) {
                let gold = preset.needs_gold().then_some(&corpus.gold);
                let config = preset.config().with_workers(workers);
                let alone = Fuser::new(config).run(&corpus.batch, gold);
                assert!(scheduled == bits(&alone), "{preset:?} × {workers} workers");
            }
        }
    }

    #[test]
    fn methods_carry_traces_and_deterministic_quarantines_them() {
        let opts = ReproOptions {
            scale: "tiny".into(),
            seed: 5,
            out: None,
            workers: Some(2),
            deterministic: true,
            ..Default::default()
        };
        let report = run(&opts).unwrap();
        for m in &report.methods {
            assert_eq!(m.fuse_ms, 0.0, "{}: fuse_ms quarantined", m.name);
            let trace = m.trace.as_ref().expect("trace attached");
            // The method-level phases are all present...
            for phase in ["fuse", "eval", "diagnose"] {
                assert!(trace.root.child(phase).is_some(), "{}: {phase}", m.name);
            }
            // ...every span duration is quarantined to zero...
            assert!(trace.flat_timings().iter().all(|(_, ns)| *ns == 0));
            // ...the fusion counters made it across the crate seam, and
            // no grouping job ran for the method: its graph was shared and
            // diagnosis runs none.
            assert!(trace.counters.iter().any(|c| c.name == "fuse.rounds"));
            assert!(!trace.counters.iter().any(|c| c.name.starts_with("mr.")));
        }
    }

    #[test]
    fn no_diagnose_flag_omits_the_taxonomy() {
        let opts = ReproOptions {
            scale: "tiny".into(),
            seed: 5,
            out: None,
            workers: Some(2),
            ..ReproOptions::parse(["--no-diagnose"]).unwrap()
        };
        assert!(!opts.diagnose);
        let report = run(&opts).unwrap();
        assert!(report.methods.iter().all(|m| m.taxonomy.is_none()));
        assert!(!report.to_json_string().contains("\"taxonomy\""));
    }
}
