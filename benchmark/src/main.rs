//! The repo benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (the contract's form)
//! benchmark [--seed N] [--seconds S] [--runs R] [--traced] [--out FILE]
//!                                                           a result set over all workloads
//! benchmark compare A.json B.json                           judge set B against set A
//! ```
//!
//! A single run prints every metric by name with its unit and ends with the
//! contract's one-line JSON result; it exits non-zero when a correctness
//! check failed. See `README.md` next to this package for the protocol.

mod compare;
mod dist;
mod fixtures;
mod fuse;
mod json;
mod metrics;
mod probes;
mod queries;
mod serve;
mod stats;
mod trace;
mod workloads;

use fixtures::Workload;
use kf_eval::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use workloads::RunSpec;

const USAGE: &str = "usage:
  benchmark --workload fuse_mem|fuse_spill|dist_small --seed N --seconds S --trace 0|1
  benchmark [--seed N] [--seconds S] [--runs R] [--traced] [--out FILE]
  benchmark compare A.json B.json";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u64>,
    runs: Option<u64>,
    traced: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value\n{USAGE}"))
        };
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("bad number {v:?} for {flag}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = Some(number(value()?)?),
            "--runs" => parsed.runs = Some(number(value()?)?),
            "--trace" => parsed.trace = Some(number(value()?)?),
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {v} is out of range"));
                }
                parsed.seconds = Some(seconds);
            }
            "--traced" => parsed.traced = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// The contract's `run_seconds`, the default for `--seconds`.
fn contract_seconds() -> f64 {
    json::parse(compare::CONTRACT)
        .ok()
        .and_then(|c| json::get(&c, "run_seconds").and_then(json::as_f64))
        .expect("BENCHMARK.json names run_seconds")
}

/// Protocol fields of one run (the set adds git sha and `rustc -V`).
fn run_protocol(spec: &RunSpec, iterations: usize) -> Json {
    Json::obj([
        ("workload", Json::Str(spec.workload.name().into())),
        ("scale", Json::Str(fixtures::SCALE.into())),
        ("seed", Json::Uint(spec.seed)),
        ("seconds", Json::Num(spec.seconds)),
        ("trace", Json::Uint(u64::from(spec.traced))),
        ("threads", Json::Uint(fixtures::threads() as u64)),
        ("nproc", Json::Uint(fixtures::nproc() as u64)),
        ("iterations", Json::Uint(iterations as u64)),
    ])
}

/// One run: the contract's form.
fn single(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().expect("checked by the caller");
    let spec = RunSpec {
        workload: Workload::by_name(name)
            .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
        seed: args.seed.unwrap_or(42),
        seconds: args.seconds.unwrap_or_else(contract_seconds),
        traced: match args.trace.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    let outcome = workloads::run(&spec);
    let table = if spec.traced { PER_LAYER } else { END_TO_END };
    let metrics = outcome.metrics.to_json(table);
    for def in table {
        let value = outcome.metrics.get(def.name).expect("validated by to_json");
        println!("{:<34} {:>20.6} {}", def.name, value, def.unit);
    }
    let protocol = run_protocol(&spec, outcome.iterations);
    if spec.traced {
        let path = fixtures::out_dir().join(format!("trace_{}.json", spec.workload.name()));
        let doc = Json::obj([
            ("protocol", protocol.clone()),
            (
                "spans",
                trace::to_json(&outcome.spans, spec.workload.name()),
            ),
        ]);
        std::fs::write(&path, doc.to_string_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {} ({} spans)", path.display(), outcome.spans.len());
    }
    println!("protocol {}", protocol.to_string_compact());
    let correct = outcome.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Uint(outcome.attempted)),
        ("failed", Json::Uint(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_string_compact());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// A result set: every workload, each run in a fresh child process.
fn set(args: &Args) -> Result<ExitCode, String> {
    let seed = args.seed.unwrap_or(42);
    let runs = args.runs.unwrap_or(1).max(1);
    let seconds = args.seconds.unwrap_or_else(contract_seconds);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        // Untraced runs over consecutive seeds, then one traced run.
        let plan = (0..runs)
            .map(|i| (seed + i, 0))
            .chain(args.traced.then_some((seed, 1)));
        for (run_seed, trace) in plan {
            eprintln!("== {} seed {run_seed} trace {trace}", workload.name());
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            all_correct &= output.status.success();
            let mut lines = stdout.lines().rev();
            let result = lines
                .next()
                .and_then(|l| json::parse(l).ok())
                .ok_or_else(|| format!("the {} run printed no result", workload.name()))?;
            let protocol = lines
                .find_map(|l| l.strip_prefix("protocol "))
                .and_then(|l| json::parse(l).ok())
                .unwrap_or(Json::Null);
            let field = |doc: &Json, key: &str| json::get(doc, key).cloned().unwrap_or(Json::Null);
            records.push(Json::obj([
                ("workload", Json::Str(workload.name().into())),
                ("seed", Json::Uint(run_seed)),
                ("trace", Json::Uint(trace)),
                ("iterations", field(&protocol, "iterations")),
                ("correct", field(&result, "correct")),
                ("attempted", field(&result, "attempted")),
                ("failed", field(&result, "failed")),
                ("metrics", field(&result, "metrics")),
            ]));
        }
    }
    let doc = Json::obj([
        (
            "protocol",
            Json::obj([
                ("seed", Json::Uint(seed)),
                ("runs", Json::Uint(runs)),
                ("run_seconds", Json::Num(seconds)),
                ("threads", Json::Uint(fixtures::threads() as u64)),
                ("nproc", Json::Uint(fixtures::nproc() as u64)),
                ("scale", Json::Str(fixtures::SCALE.into())),
                (
                    "git_sha",
                    Json::Str(tool_version(
                        "git",
                        &["describe", "--always", "--dirty", "--abbrev=40"],
                    )),
                ),
                ("rustc", Json::Str(tool_version("rustc", &["-V"]))),
            ]),
        ),
        ("runs", Json::Arr(records)),
        ("claim", Json::Null),
    ]);
    let path = args.out.clone().map_or_else(
        || fixtures::out_dir().join(format!("results_seed{seed}.json")),
        std::path::PathBuf::from,
    );
    std::fs::create_dir_all(fixtures::out_dir()).map_err(|e| format!("cannot create out/: {e}"))?;
    std::fs::write(&path, doc.to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {} (\"claim\": null)", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_sets(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let contract = json::parse(compare::CONTRACT).expect("BENCHMARK.json parses");
    let cmp = compare::compare(&load(a)?, &load(b)?, &contract)?;
    print!("{}", cmp.table);
    println!(
        "{} regressed, {} unresolved, {} count metrics differ",
        cmp.regressed, cmp.unresolved, cmp.count_mismatches
    );
    Ok(if cmp.regressed + cmp.count_mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_sets(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&args).and_then(|parsed| {
            if parsed.workload.is_some() {
                single(&parsed)
            } else {
                set(&parsed)
            }
        }),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_contract_form_parses() {
        let parsed = parse_args(&args(&[
            "--workload",
            "fuse_mem",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("fuse_mem"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (Some(7), Some(15.0), Some(1))
        );
    }

    #[test]
    fn bad_arguments_are_named() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn default_seconds_come_from_the_contract() {
        let seconds = contract_seconds();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
