//! `benchmark compare A.json B.json`: judge result set B against A under
//! the bounds `BENCHMARK.json` fixes.

use crate::json;
use crate::metrics::is_count;
use crate::stats::{median, spread};
use kf_eval::Json;
use std::collections::BTreeMap;

/// `BENCHMARK.json`, compiled in so `compare` judges by the contract the
/// binary was built against.
pub const CONTRACT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Run-to-run spread wider than the bound: the metric cannot resolve
    /// a change of the size the bound is about.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge medians `a` → `b` of a metric whose `higher_is_better`, given the
/// wider of the two sets' spreads and the metric's `bound` (all shares).
pub fn judge(a: f64, b: f64, higher_is_better: bool, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    // Share of A's median by which B is worse (negative: better).
    let worse = if higher_is_better { a - b } else { b - a } / a.abs();
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// name → (higher is better, bound) for the end-to-end metrics.
pub fn bounds(contract: &Json) -> BTreeMap<String, (bool, f64)> {
    json::get(contract, "end_to_end")
        .and_then(json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                json::as_str(json::get(m, "name")?)?.to_string(),
                (
                    json::as_str(json::get(m, "better")?)? == "higher",
                    json::as_f64(json::get(m, "bound")?)?,
                ),
            ))
        })
        .collect()
}

/// Protocol fields two result sets must share to be comparable. The git
/// sha is what a comparison is usually *about*, so it is not one of them.
const PROTOCOL_KEYS: [&str; 7] = [
    "seed",
    "runs",
    "run_seconds",
    "threads",
    "nproc",
    "scale",
    "rustc",
];

pub fn protocol_mismatch(a: &Json, b: &Json) -> Option<String> {
    let (pa, pb) = (json::get(a, "protocol")?, json::get(b, "protocol")?);
    PROTOCOL_KEYS.iter().find_map(|key| {
        let (va, vb) = (json::get(pa, key), json::get(pb, key));
        (va != vb).then(|| {
            let show = |v: Option<&Json>| v.map_or("missing".to_string(), Json::to_string_compact);
            format!(
                "protocol field {key:?} differs: {} vs {}",
                show(va),
                show(vb)
            )
        })
    })
}

/// (workload, metric) → samples in run order, and the metric's unit.
type Samples = BTreeMap<(String, String), (Vec<f64>, String)>;

fn samples(set: &Json, traced: bool) -> Samples {
    let mut out = Samples::new();
    for run in json::get(set, "runs")
        .and_then(json::as_array)
        .unwrap_or_default()
    {
        let is_traced = json::get(run, "trace").and_then(json::as_f64) == Some(1.0);
        let (Some(workload), Some(Json::Obj(metrics))) = (
            json::get(run, "workload").and_then(json::as_str),
            json::get(run, "metrics"),
        ) else {
            continue;
        };
        if is_traced != traced {
            continue;
        }
        for (name, entry) in metrics {
            let (Some(value), Some(unit)) = (
                json::get(entry, "value").and_then(json::as_f64),
                json::get(entry, "unit").and_then(json::as_str),
            ) else {
                continue;
            };
            let slot = out
                .entry((workload.to_string(), name.clone()))
                .or_insert_with(|| (Vec::new(), unit.to_string()));
            slot.0.push(value);
        }
    }
    out
}

pub struct Comparison {
    pub table: String,
    pub regressed: usize,
    pub unresolved: usize,
    pub count_mismatches: usize,
}

/// Compare two parsed result sets. `Err` when they are not comparable.
pub fn compare(a: &Json, b: &Json, contract: &Json) -> Result<Comparison, String> {
    if let Some(why) = protocol_mismatch(a, b) {
        return Err(format!("refusing to compare: {why}"));
    }
    let bounds = bounds(contract);
    let mut cmp = Comparison {
        table: format!(
            "{:<22} {:<11} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict\n",
            "metric", "workload", "A median", "B median", "change", "spread", "bound"
        ),
        regressed: 0,
        unresolved: 0,
        count_mismatches: 0,
    };
    let (ea, eb) = (samples(a, false), samples(b, false));
    for ((workload, metric), (va, _)) in &ea {
        let (Some((vb, _)), Some(&(higher, bound))) = (
            eb.get(&(workload.clone(), metric.clone())),
            bounds.get(metric),
        ) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let wide = spread(va).max(spread(vb));
        let verdict = judge(ma, mb, higher, wide, bound);
        cmp.regressed += usize::from(verdict == Verdict::Regressed);
        cmp.unresolved += usize::from(verdict == Verdict::Unresolved);
        cmp.table += &format!(
            "{metric:<22} {workload:<11} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}\n",
            (mb - ma) / ma * 100.0,
            wide * 100.0,
            bound * 100.0,
            verdict.label(),
        );
    }
    // Count-type layer metrics are the noise-free half: for the same seed
    // they must be exactly equal, run by run.
    let (la, lb) = (samples(a, true), samples(b, true));
    for ((workload, metric), (va, unit)) in &la {
        if !is_count(unit) {
            continue;
        }
        if let Some((vb, _)) = lb.get(&(workload.clone(), metric.clone())) {
            if va != vb {
                cmp.count_mismatches += 1;
                cmp.table +=
                    &format!("{metric:<22} {workload:<11} count differs: {va:?} vs {vb:?}\n");
            }
        }
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 10%.
        assert_eq!(judge(1.0, 1.05, false, 0.02, 0.1), Verdict::Unchanged);
        assert_eq!(judge(1.0, 1.2, false, 0.02, 0.1), Verdict::Regressed);
        assert_eq!(judge(1.0, 0.8, false, 0.02, 0.1), Verdict::Improved);
        // Higher is better flips the sign.
        assert_eq!(judge(100.0, 80.0, true, 0.02, 0.1), Verdict::Regressed);
        assert_eq!(judge(100.0, 120.0, true, 0.02, 0.1), Verdict::Improved);
        // A spread wider than the bound resolves nothing, whatever moved.
        assert_eq!(judge(1.0, 2.0, false, 0.15, 0.1), Verdict::Unresolved);
        // Exactly at the bound is still within it.
        assert_eq!(judge(1.0, 1.125, false, 0.125, 0.125), Verdict::Unchanged);
    }

    fn set(seed: u64, wall: &[f64], count: f64) -> Json {
        let run = |trace: u64, name: &str, value: f64, unit: &str| {
            Json::obj([
                ("workload", Json::Str("fuse_mem".into())),
                ("trace", Json::Uint(trace)),
                (
                    "metrics",
                    Json::Obj(vec![(
                        name.to_string(),
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )]),
                ),
            ])
        };
        let mut runs: Vec<Json> = wall.iter().map(|&w| run(0, "wall_s", w, "s")).collect();
        runs.push(run(1, "core.mr_map_output", count, "count"));
        Json::obj([
            (
                "protocol",
                Json::obj([
                    ("seed", Json::Uint(seed)),
                    ("git_sha", Json::Str(format!("{seed}{count}"))),
                ]),
            ),
            ("runs", Json::Arr(runs)),
        ])
    }

    fn contract() -> Json {
        json::parse(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn compare_counts_regressions_and_exact_count_mismatches() {
        let a = set(42, &[1.0, 1.01, 0.99, 1.0], 500.0);
        let same = compare(&a, &a, &contract()).unwrap();
        assert_eq!(
            (same.regressed, same.unresolved, same.count_mismatches),
            (0, 0, 0)
        );
        assert!(same.table.contains("unchanged"));

        let slower = set(42, &[1.3, 1.31, 1.29, 1.3], 501.0);
        let worse = compare(&a, &slower, &contract()).unwrap();
        assert_eq!((worse.regressed, worse.count_mismatches), (1, 1));

        let noisy = set(42, &[1.0, 1.4, 0.7, 1.2], 500.0);
        assert_eq!(compare(&a, &noisy, &contract()).unwrap().unresolved, 1);
    }

    #[test]
    fn differing_protocols_are_refused_but_the_sha_may_differ() {
        let a = set(42, &[1.0], 1.0);
        let err = compare(&a, &set(43, &[1.0], 1.0), &contract())
            .err()
            .unwrap();
        assert!(err.contains("seed"), "{err}");
        // Same protocol, different git sha: comparable.
        assert!(compare(&a, &set(42, &[1.0], 2.0), &contract()).is_ok());
    }

    #[test]
    fn the_compiled_in_contract_has_a_bound_for_every_end_to_end_metric() {
        let bounds = bounds(&json::parse(CONTRACT).unwrap());
        for def in crate::metrics::END_TO_END {
            let (_, bound) = bounds[def.name];
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
    }
}
