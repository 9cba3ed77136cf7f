//! Serializable evaluation reports.
//!
//! One fusion run produces a [`MethodEval`]; an ablation over the paper's
//! five presets produces an [`EvalReport`]. Reports serialize to JSON (via
//! the in-repo [`crate::json`] writer) so two runs' `report.json` files
//! can be diffed to catch quality regressions.
//!
//! # `report.json` schema (version 1)
//!
//! Everything except the wall-clock `fuse_ms` fields is deterministic for
//! a fixed corpus scale and seed.
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "corpus": {                      // CorpusSummary
//!     "scale": "paper",              // tiny | small | paper | large
//!     "seed": 42,                    // corpus generator seed (u64, exact)
//!     "n_records": …,                // extraction records fused
//!     "n_unique_triples": …,
//!     "n_data_items": …,
//!     "n_gold_items": …,             // items known to the gold KB
//!     "lcwa_accuracy": 0.0–1.0       // raw extraction accuracy under LCWA
//!   },
//!   "methods": [                     // one MethodEval per preset, in
//!     {                              // ablation order
//!       "name": "vote",              // preset id (vote | accu | popaccu |
//!                                    //   popaccu_plus_unsup | popaccu_plus)
//!       "label": "VOTE",             // display label from the paper
//!       "n_scored": …,               // scored unique triples
//!       "n_labelled": …,             // gold-labelled (true + false)
//!       "n_true": …,
//!       "n_unpredicted": …,          // labelled but no prediction
//!       "coverage": 0.0–1.0,         // labelled triples with a prediction
//!       "predicted_fraction": 0.0–1.0, // ALL triples with a prediction
//!       "wdev": …,                   // paper's weighted deviation
//!       "ece": …,                    // expected calibration error
//!       "auc_pr": …,                 // trapezoidal AUC-PR
//!       "precision_at": [ {"k": 100, "precision": …}, … ],
//!       "calibration_equal_width": { // CalibrationCurve
//!         "wdev": …, "ece": …,
//!         "bins": [ {"lo": …, "hi": …, "count": …,
//!                    "mean_predicted": …,
//!                    "observed_accuracy": …|null}, … ]  // null = empty bin
//!       },
//!       "calibration_equal_mass": {  // same shape, equal-mass binning
//!         …
//!       },
//!       "pr_curve": {
//!         "auc": …,
//!         "n_points": …,             // full in-memory curve size
//!         "points": [ {"threshold": …, "precision": …, "recall": …}, … ]
//!                                    // evenly strided subsample, at most
//!                                    // MAX_PR_POINTS_IN_REPORT + final point
//!       },
//!       "fuse_ms": …,                // wall clock; the one nondeterministic
//!                                    //   field
//!       "taxonomy": {                // Fig. 17 error taxonomy (kf-diagnose);
//!                                    //   omitted when diagnosis did not run
//!         "n_false_positives": …,    // classified FPs across all bands
//!         "n_labelled": …,           // labelled predicted triples in scope
//!         "bands": [                 // per confidence band, ascending
//!           {"lo": …, "hi": …, "n_labelled": …, "n_true": …,
//!            "categories": {"wrong_but_general": …, "lcwa_artifact": …,
//!                           "systematic_extraction": …, "linkage_error": …}},
//!           …                        // invariant: the four categories sum to
//!         ],                         //   n_labelled - n_true (exact partition)
//!         "predicates":  [ {"key": …, "label": …, "categories": {…}}, … ],
//!         "extractors":  [ … ],      // one FP counts toward EVERY supporting
//!                                    //   extractor (per-extractor attribution)
//!         "spread":      [ … ],      // support-shape classes (pages×extractors)
//!         "scenarios":   [ … ],      // injected hostile-scenario phenomena
//!                                    //   (copied/spam/drift/linkage); empty
//!                                    //   when no scenario truth was joined
//!         "confusion": [             // heuristic vs generator-injected category
//!           {"heuristic": "…", "injected": "…", "count": …}, …
//!         ],
//!         "mean_prov_accuracy": {"systematic_extraction": …, …},
//!         "systematic_attribution":  // the ≥0.9 CI gates (null when no
//!           {"correct": …, "total": …, "accuracy": …},  // ground truth)
//!         "generalized_attribution": {…}|null
//!       },
//!       "trace": {                   // kf-telemetry run trace for this
//!                                    //   method; omitted when not traced
//!         "deterministic": {         // byte-identical across same-seed runs
//!           "spans": {"name": "run", "calls": 1, "children": [ … ]},
//!           "counters": [ {"name": "mr.map_output", "value": …,
//!                          "merge": "add"|"max"}, … ],
//!           "series": [ {"name": "fuse.round_delta", "values": [ … ]}, … ],
//!           "histograms": [          // observation counts only
//!             {"name": "fuse.round_ns", "kind": "time"|"value",
//!              "count": …}, … ]
//!         },
//!         "timings": [               // wall clock, quarantined: all zero
//!           {"path": "run/fuse/round", "total_ns": …}, …  // under --deterministic
//!         ],
//!         "histograms": [            // the value ledger: full buckets and
//!           {"name": "fuse.round_ns",//   quantiles; time-kind entries are
//!            "kind": "time",         //   quarantined (empty) under
//!            "count": …, "sum": …,   //   --deterministic, value-kind
//!            "buckets": [            //   entries always survive
//!              {"lo": …, "hi": …, "count": …}, … ],
//!            "p50": …, "p95": …, "p99": …}, …
//!         ]
//!       }
//!     }, …
//!   ]
//! }
//! ```
//!
//! Numbers serialize via Rust's shortest-roundtrip float formatting;
//! non-finite values become `null`; counts and seeds are exact integers
//! (never f64-rounded). Bump `schema_version` when renaming or removing
//! fields — adding fields is backward-compatible.

use crate::calibration::{CalibrationBin, CalibrationCurve};
use crate::json::Json;
use crate::labels::LabeledOutput;
use crate::pr::PrCurve;
use kf_telemetry::{SpanNode, TraceReport};
use kf_types::{ErrorCategory, TaxonomyReport};

/// Maximum PR points serialized per method; the full curve (one point per
/// distinct probability) stays in memory, the report keeps an evenly
/// strided subsample plus the final point.
const MAX_PR_POINTS_IN_REPORT: usize = 200;

/// The evaluation of one fusion method over one corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodEval {
    /// Preset name (`vote`, `accu`, …).
    pub name: String,
    /// Display label as used in the paper (`VOTE`, `ACCU`, …).
    pub label: String,
    /// Triple counts and coverage from the gold join.
    pub n_scored: usize,
    /// Gold-labelled triples (true + false).
    pub n_labelled: usize,
    /// Labelled true.
    pub n_true: usize,
    /// Labelled but unpredicted.
    pub n_unpredicted: usize,
    /// Fraction of labelled triples with a prediction.
    pub coverage: f64,
    /// Fraction of *all* scored triples with a prediction.
    pub predicted_fraction: f64,
    /// Equal-width calibration curve (the paper's figures).
    pub calibration_width: CalibrationCurve,
    /// Equal-mass calibration curve.
    pub calibration_mass: CalibrationCurve,
    /// Precision–recall curve.
    pub pr: PrCurve,
    /// `(k, precision@k)` for the configured cut-offs (only cut-offs ≤ the
    /// number of predictions appear).
    pub precision_at: Vec<(usize, f64)>,
    /// Wall-clock milliseconds spent fusing (excludes evaluation). In a
    /// `repro` report, the rounds over a prebuilt claim graph only: the
    /// grouping job and the projections run once per corpus, before the
    /// presets.
    pub fuse_ms: f64,
    /// Fig. 17-style error taxonomy of the method's high-confidence false
    /// positives, when the diagnosis pass ran (`kf-diagnose`; the `repro`
    /// harness attaches one per preset). `None` omits the section.
    pub taxonomy: Option<TaxonomyReport>,
    /// `kf-telemetry` trace of this method's fuse + evaluate + diagnose
    /// work, when the harness recorded one (`repro` installs a per-method
    /// trace). `None` omits the section. Per-method traces ride through
    /// shard reports untouched, which is what lets `--merge` reassemble
    /// the whole-run trace exactly.
    pub trace: Option<TraceReport>,
}

impl MethodEval {
    /// The paper's weighted deviation, from the equal-width curve.
    pub fn wdev(&self) -> f64 {
        self.calibration_width.wdev
    }

    /// Expected calibration error, from the equal-width curve.
    pub fn ece(&self) -> f64 {
        self.calibration_width.ece
    }

    /// AUC-PR.
    pub fn auc_pr(&self) -> f64 {
        self.pr.auc
    }

    fn to_json(&self) -> Json {
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("name", Json::from(self.name.clone())),
            ("label", Json::from(self.label.clone())),
            ("n_scored", Json::from(self.n_scored)),
            ("n_labelled", Json::from(self.n_labelled)),
            ("n_true", Json::from(self.n_true)),
            ("n_unpredicted", Json::from(self.n_unpredicted)),
            ("coverage", Json::from(self.coverage)),
            ("predicted_fraction", Json::from(self.predicted_fraction)),
            ("wdev", Json::from(self.wdev())),
            ("ece", Json::from(self.ece())),
            ("auc_pr", Json::from(self.auc_pr())),
            (
                "precision_at",
                Json::arr(self.precision_at.iter().map(|&(k, p)| {
                    Json::obj([("k", Json::from(k)), ("precision", Json::from(p))])
                })),
            ),
            (
                "calibration_equal_width",
                curve_to_json(&self.calibration_width),
            ),
            (
                "calibration_equal_mass",
                curve_to_json(&self.calibration_mass),
            ),
            ("pr_curve", pr_to_json(&self.pr)),
            ("fuse_ms", Json::from(self.fuse_ms)),
        ];
        if let Some(taxonomy) = &self.taxonomy {
            fields.push(("taxonomy", taxonomy_to_json(taxonomy)));
        }
        if let Some(trace) = &self.trace {
            fields.push(("trace", trace_to_json(trace)));
        }
        Json::obj(fields)
    }

    /// Zero every wall-clock field of this evaluation — `fuse_ms` and all
    /// span timings in the trace — leaving the deterministic sections
    /// untouched. The `--deterministic` quarantine.
    pub fn quarantine_timings(&mut self) {
        self.fuse_ms = 0.0;
        if let Some(trace) = &mut self.trace {
            trace.quarantine_timings();
        }
    }
}

/// Serialize a [`TraceReport`] with its deterministic section (span
/// calls, counters, series, histogram observation counts) split
/// from the quarantined sections: flat span paths with `total_ns`, and
/// a `histograms` value ledger whose buckets/sums/quantiles survive for
/// `value`-kind histograms but are zeroed for `time`-kind ones under
/// `--deterministic` (mirroring `quarantine_timings`). See the module
/// docs for the shape.
pub fn trace_to_json(t: &TraceReport) -> Json {
    fn span_to_json(n: &SpanNode) -> Json {
        let mut fields = vec![
            ("name", Json::from(n.name.clone())),
            ("calls", Json::from(n.calls)),
        ];
        if !n.children.is_empty() {
            fields.push(("children", Json::arr(n.children.iter().map(span_to_json))));
        }
        Json::obj(fields)
    }
    let deterministic = Json::obj([
        ("spans", span_to_json(&t.root)),
        (
            "counters",
            Json::arr(t.counters.iter().map(|c| {
                Json::obj([
                    ("name", Json::from(c.name.clone())),
                    ("value", Json::from(c.value)),
                    ("merge", Json::from(c.rule.name())),
                ])
            })),
        ),
        (
            "series",
            Json::arr(t.series.iter().map(|s| {
                Json::obj([
                    ("name", Json::from(s.name.clone())),
                    ("values", Json::arr(s.values.iter().map(|&v| Json::from(v)))),
                ])
            })),
        ),
        // Observation counts are input-determined for both histogram
        // kinds; the value distributions live in the quarantined ledger
        // below.
        (
            "histograms",
            Json::arr(t.histograms.iter().map(|h| {
                Json::obj([
                    ("name", Json::from(h.name.clone())),
                    ("kind", Json::from(h.kind.name())),
                    ("count", Json::from(h.count)),
                ])
            })),
        ),
    ]);
    let timings = Json::arr(t.flat_timings().into_iter().map(|(path, total_ns)| {
        Json::obj([
            ("path", Json::from(path)),
            ("total_ns", Json::from(total_ns)),
        ])
    }));
    // The value ledger: full distributions. For time-kind histograms
    // under --deterministic these are already quarantined (empty
    // buckets, zero sum), exactly like the span timings above — the
    // counts in the deterministic section still pin how many
    // observations happened.
    let histograms = Json::arr(t.histograms.iter().map(|h| {
        Json::obj([
            ("name", Json::from(h.name.clone())),
            ("kind", Json::from(h.kind.name())),
            ("count", Json::from(h.count)),
            ("sum", Json::from(h.sum)),
            (
                "buckets",
                Json::arr(h.buckets.iter().map(|b| {
                    let (lo, hi) = kf_telemetry::bucket_bounds(b.index as usize);
                    Json::obj([
                        ("lo", Json::from(lo)),
                        ("hi", Json::from(hi)),
                        ("count", Json::from(b.count)),
                    ])
                })),
            ),
            ("p50", Json::from(h.quantile(0.50))),
            ("p95", Json::from(h.quantile(0.95))),
            ("p99", Json::from(h.quantile(0.99))),
        ])
    }));
    Json::obj([
        ("deterministic", deterministic),
        ("timings", timings),
        ("histograms", histograms),
    ])
}

/// One count per category as a JSON object keyed by category name.
fn counts_to_json(c: &kf_types::CategoryCounts) -> Json {
    Json::obj(
        ErrorCategory::ALL
            .into_iter()
            .map(|cat| (cat.name(), Json::from(c.get(cat)))),
    )
}

/// Serialize a [`TaxonomyReport`] (see the schema note in the module
/// docs).
pub fn taxonomy_to_json(t: &TaxonomyReport) -> Json {
    let group = |g: &kf_types::GroupBreakdown| {
        Json::obj([
            ("key", Json::from(g.key as u64)),
            ("label", Json::from(g.label.clone())),
            ("categories", counts_to_json(&g.counts)),
        ])
    };
    let accuracy = |a: &Option<kf_types::CategoryAccuracy>| match a {
        None => Json::Null,
        Some(a) => Json::obj([
            ("correct", Json::from(a.correct)),
            ("total", Json::from(a.total)),
            ("accuracy", Json::from(a.accuracy())),
        ]),
    };
    Json::obj([
        ("n_false_positives", Json::from(t.n_false_positives)),
        ("n_labelled", Json::from(t.n_labelled)),
        (
            "bands",
            Json::arr(t.bands.iter().map(|b| {
                Json::obj([
                    ("lo", Json::from(b.lo)),
                    ("hi", Json::from(b.hi)),
                    ("n_labelled", Json::from(b.n_labelled)),
                    ("n_true", Json::from(b.n_true)),
                    ("categories", counts_to_json(&b.counts)),
                ])
            })),
        ),
        ("predicates", Json::arr(t.predicates.iter().map(group))),
        ("extractors", Json::arr(t.extractors.iter().map(group))),
        ("spread", Json::arr(t.spread.iter().map(group))),
        ("scenarios", Json::arr(t.scenarios.iter().map(group))),
        (
            "confusion",
            Json::arr(t.confusion.iter().map(|c| {
                Json::obj([
                    ("heuristic", Json::from(c.heuristic.name())),
                    ("injected", Json::from(c.injected.name())),
                    ("count", Json::from(c.count)),
                ])
            })),
        ),
        (
            "mean_prov_accuracy",
            Json::obj(
                t.mean_prov_accuracy
                    .iter()
                    .map(|&(cat, acc)| (cat.name(), Json::from(acc))),
            ),
        ),
        (
            "systematic_attribution",
            accuracy(&t.systematic_attribution),
        ),
        (
            "generalized_attribution",
            accuracy(&t.generalized_attribution),
        ),
    ])
}

fn bin_to_json(b: &CalibrationBin) -> Json {
    Json::obj([
        ("lo", Json::from(b.lo)),
        ("hi", Json::from(b.hi)),
        ("count", Json::from(b.count)),
        ("mean_predicted", Json::from(b.mean_predicted)),
        // NaN (empty bin) serializes as null.
        ("observed_accuracy", Json::from(b.observed_accuracy)),
    ])
}

fn curve_to_json(c: &CalibrationCurve) -> Json {
    Json::obj([
        ("wdev", Json::from(c.wdev)),
        ("ece", Json::from(c.ece)),
        ("bins", Json::arr(c.bins.iter().map(bin_to_json))),
    ])
}

fn pr_to_json(pr: &PrCurve) -> Json {
    let n = pr.points.len();
    let stride = n.div_ceil(MAX_PR_POINTS_IN_REPORT).max(1);
    let points = pr
        .points
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0 || *i + 1 == n)
        .map(|(_, p)| {
            Json::obj([
                ("threshold", Json::from(p.threshold)),
                ("precision", Json::from(p.precision)),
                ("recall", Json::from(p.recall)),
            ])
        });
    Json::obj([
        ("auc", Json::from(pr.auc)),
        ("n_points", Json::from(n)),
        ("points", Json::arr(points)),
    ])
}

/// Corpus-level context recorded alongside the per-method results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusSummary {
    /// Scale preset name (`tiny`/`small`/`paper`/`large`).
    pub scale: String,
    /// Generator seed.
    pub seed: u64,
    /// Extraction records.
    pub n_records: usize,
    /// Unique triples.
    pub n_unique_triples: usize,
    /// Unique data items.
    pub n_data_items: usize,
    /// Gold-KB items.
    pub n_gold_items: usize,
    /// Raw extraction accuracy under LCWA (the paper's ~30%).
    pub lcwa_accuracy: f64,
}

impl CorpusSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scale", Json::from(self.scale.clone())),
            ("seed", Json::from(self.seed)),
            ("n_records", Json::from(self.n_records)),
            ("n_unique_triples", Json::from(self.n_unique_triples)),
            ("n_data_items", Json::from(self.n_data_items)),
            ("n_gold_items", Json::from(self.n_gold_items)),
            ("lcwa_accuracy", Json::from(self.lcwa_accuracy)),
        ])
    }
}

/// A full ablation report: one corpus, several methods.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalReport {
    /// Corpus context.
    pub corpus: CorpusSummary,
    /// Per-method evaluations, in ablation order.
    pub methods: Vec<MethodEval>,
}

impl EvalReport {
    /// The evaluation for `name`, if present.
    pub fn method(&self, name: &str) -> Option<&MethodEval> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// The report as a JSON tree.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(1usize)),
            ("corpus", self.corpus.to_json()),
            (
                "methods",
                Json::arr(self.methods.iter().map(|m| m.to_json())),
            ),
        ])
    }

    /// The report as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Zero every wall-clock field in the report (each method's `fuse_ms`
    /// and trace timings). One helper instead of per-field special cases:
    /// new timing fields are quarantined by construction.
    pub fn quarantine_timings(&mut self) {
        for m in &mut self.methods {
            m.quarantine_timings();
        }
    }

    /// The whole-run trace: per-method traces folded in ablation (=
    /// `methods`) order, each grafted under a phase named after its
    /// method. `None` when no method carries a trace. Because the fold
    /// order is the method order, a merged report reassembles exactly the
    /// trace a single-process run produces — series concatenate in
    /// ablation order either way.
    pub fn combined_trace(&self) -> Option<TraceReport> {
        let mut combined: Option<TraceReport> = None;
        for m in &self.methods {
            if let Some(trace) = &m.trace {
                combined
                    .get_or_insert_with(|| TraceReport::empty("run"))
                    .absorb(&m.name, trace);
            }
        }
        combined
    }

    /// Fixed-width summary table (one line per method) for terminal output.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>9}\n",
            "method", "coverage", "pred", "WDEV", "ECE", "AUC-PR", "P@100", "fuse_ms"
        ));
        for m in &self.methods {
            let p100 = m
                .precision_at
                .iter()
                .find(|&&(k, _)| k == 100)
                .map(|&(_, p)| format!("{p:8.3}"))
                .unwrap_or_else(|| format!("{:>8}", "-"));
            out.push_str(&format!(
                "{:<22} {:>9.3} {:>9.3} {:>8.4} {:>8.4} {:>8.3} {} {:>9.1}\n",
                m.label,
                m.coverage,
                m.predicted_fraction,
                m.wdev(),
                m.ece(),
                m.auc_pr(),
                p100,
                m.fuse_ms,
            ));
        }
        out
    }
}

/// Assemble a [`MethodEval`] from a labelled output, recording its `pr`
/// and `calibration` spans into the installed trace (under the caller's
/// `eval` span, which [`AblationRunner::fuse_preset`](crate::AblationRunner::fuse_preset)
/// and [`AblationRunner::evaluate`](crate::AblationRunner::evaluate) open).
pub fn evaluate_labeled(
    name: &str,
    label: &str,
    labeled: &LabeledOutput,
    predicted_fraction: f64,
    n_bins: usize,
    ks: &[usize],
    fuse_ms: f64,
) -> MethodEval {
    use crate::calibration::{calibration_curve, Binning};
    use crate::pr::{pr_curve_sorted, precision_at_k_sorted, sort_descending};

    kf_telemetry::add("eval.labelled", labeled.n_labelled() as u64);
    let preds = labeled.predictions();
    // One descending sort serves the PR curve and every precision@k.
    let (precision_at, pr) = {
        let _pr = kf_telemetry::span("pr");
        let sorted = sort_descending(preds);
        let precision_at: Vec<(usize, f64)> = ks
            .iter()
            .filter_map(|&k| precision_at_k_sorted(&sorted, k).map(|p| (k, p)))
            .collect();
        (precision_at, pr_curve_sorted(&sorted))
    };
    let (calibration_width, calibration_mass) = {
        let _cal = kf_telemetry::span("calibration");
        (
            calibration_curve(preds, Binning::EqualWidth(n_bins)),
            calibration_curve(preds, Binning::EqualMass(n_bins)),
        )
    };
    MethodEval {
        name: name.to_string(),
        label: label.to_string(),
        n_scored: labeled.n_scored,
        n_labelled: labeled.n_labelled(),
        n_true: labeled.n_true,
        n_unpredicted: labeled.n_unpredicted,
        coverage: labeled.coverage(),
        predicted_fraction,
        calibration_width,
        calibration_mass,
        pr,
        precision_at,
        fuse_ms,
        taxonomy: None,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{calibration_curve, Binning};
    use crate::pr::pr_curve;

    fn method(name: &str, wdev_gap: f64) -> MethodEval {
        // All predictions at 0.5 + gap with observed accuracy 0.5.
        let preds: Vec<(f64, bool)> = (0..100).map(|i| (0.5 + wdev_gap, i % 2 == 0)).collect();
        MethodEval {
            name: name.to_string(),
            label: name.to_uppercase(),
            n_scored: 100,
            n_labelled: 100,
            n_true: 50,
            n_unpredicted: 0,
            coverage: 1.0,
            predicted_fraction: 1.0,
            calibration_width: calibration_curve(&preds, Binning::EqualWidth(10)),
            calibration_mass: calibration_curve(&preds, Binning::EqualMass(10)),
            pr: pr_curve(&preds),
            precision_at: vec![(100, 0.5)],
            fuse_ms: 1.0,
            taxonomy: None,
            trace: None,
        }
    }

    fn report() -> EvalReport {
        EvalReport {
            corpus: CorpusSummary {
                scale: "tiny".into(),
                seed: 42,
                n_records: 1000,
                n_unique_triples: 500,
                n_data_items: 300,
                n_gold_items: 120,
                lcwa_accuracy: 0.3,
            },
            methods: vec![method("vote", 0.3), method("popaccu_plus", 0.05)],
        }
    }

    #[test]
    fn json_contains_required_fields() {
        let s = report().to_json_string();
        for field in [
            "\"schema_version\"",
            "\"corpus\"",
            "\"methods\"",
            "\"wdev\"",
            "\"ece\"",
            "\"auc_pr\"",
            "\"coverage\"",
            "\"calibration_equal_width\"",
            "\"calibration_equal_mass\"",
            "\"bins\"",
            "\"observed_accuracy\"",
            "\"pr_curve\"",
            "\"precision_at\"",
        ] {
            assert!(s.contains(field), "missing {field} in report JSON");
        }
    }

    #[test]
    fn method_lookup_and_wdev_ordering() {
        let r = report();
        let vote = r.method("vote").unwrap();
        let plus = r.method("popaccu_plus").unwrap();
        assert!(plus.wdev() < vote.wdev());
        assert!(r.method("nope").is_none());
    }

    #[test]
    fn summary_table_has_one_line_per_method() {
        let r = report();
        let table = r.summary_table();
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("VOTE"));
        assert!(table.contains("POPACCU_PLUS"));
    }

    #[test]
    fn taxonomy_section_serializes_when_present() {
        use kf_types::{
            BandBreakdown, CategoryAccuracy, CategoryCounts, ConfusionCell, GroupBreakdown,
        };
        let mut counts = CategoryCounts::default();
        counts.add(ErrorCategory::SystematicExtraction, 4);
        counts.add(ErrorCategory::LcwaArtifact, 6);
        let taxonomy = TaxonomyReport {
            bands: vec![BandBreakdown {
                lo: 0.9,
                hi: 1.0,
                n_labelled: 30,
                n_true: 20,
                counts,
            }],
            predicates: vec![GroupBreakdown {
                key: 7,
                label: "predicate_7".into(),
                counts,
            }],
            extractors: vec![GroupBreakdown {
                key: 1,
                label: "TXT2".into(),
                counts,
            }],
            spread: vec![],
            scenarios: vec![],
            confusion: vec![ConfusionCell {
                heuristic: ErrorCategory::SystematicExtraction,
                injected: ErrorCategory::SystematicExtraction,
                count: 4,
            }],
            mean_prov_accuracy: vec![(ErrorCategory::SystematicExtraction, 0.93)],
            systematic_attribution: Some(CategoryAccuracy {
                correct: 4,
                total: 4,
            }),
            generalized_attribution: None,
            n_false_positives: 10,
            n_labelled: 30,
        };
        let mut m = method("vote", 0.1);
        // Without a taxonomy the key is omitted entirely.
        assert!(!Json::obj([("m", m.to_json())])
            .to_string_compact()
            .contains("\"taxonomy\""));
        m.taxonomy = Some(taxonomy);
        let s = m.to_json().to_string_pretty();
        for field in [
            "\"taxonomy\"",
            "\"bands\"",
            "\"categories\"",
            "\"systematic_extraction\"",
            "\"lcwa_artifact\"",
            "\"wrong_but_general\"",
            "\"linkage_error\"",
            "\"confusion\"",
            "\"heuristic\"",
            "\"injected\"",
            "\"extractors\"",
            "\"TXT2\"",
            "\"mean_prov_accuracy\"",
            "\"systematic_attribution\"",
            "\"accuracy\"",
        ] {
            assert!(s.contains(field), "missing {field} in taxonomy JSON");
        }
        // The absent gate serializes as null.
        assert!(s.contains("\"generalized_attribution\": null"));
    }

    #[test]
    fn pr_points_are_capped_in_json() {
        let preds: Vec<(f64, bool)> = (0..5000).map(|i| (i as f64 / 5000.0, i % 2 == 0)).collect();
        let pr = pr_curve(&preds);
        assert!(pr.points.len() > MAX_PR_POINTS_IN_REPORT);
        let json = pr_to_json(&pr).to_string_compact();
        let n_points = json.matches("\"threshold\"").count();
        assert!(
            n_points <= MAX_PR_POINTS_IN_REPORT + 1,
            "serialized {n_points} points"
        );
    }
}
