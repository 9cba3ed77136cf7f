//! The protocol's fixed points: workloads, scales, thread rule, scratch
//! space, and the process-level readings (`VmHWM`, `nproc`).

use kf_synth::SynthConfig;
use std::path::{Path, PathBuf};

/// The three workloads. Later issues refer to these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FuseMem,
    FuseSpill,
    DistSmall,
}

/// Scale label recorded in reports and protocol headers.
pub const SCALE: &str = "small";

/// Share of `--seconds` the batch slices (fusion iterations) get; the
/// read windows get the rest.
pub const BATCH_SHARE: f64 = 0.7;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::FuseMem, Workload::FuseSpill, Workload::DistSmall];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FuseMem => "fuse_mem",
            Workload::FuseSpill => "fuse_spill",
            Workload::DistSmall => "dist_small",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The corpus every workload fuses: `SynthConfig::small()` (≈56K
/// extractions, a five-preset iteration ≈0.3 s, a 1.3 MB KB). On the
/// shared host the benchmark runs on, the time of a cache miss that goes
/// past the core's own L2 drifts by ±30 % within tens of seconds with the
/// neighbours' load, while cache-resident work repeats within a few per
/// cent (see `baseline/spreads.txt`). The smaller the corpus, the more of
/// its hot state stays in L2: at a third of `large()` the same iteration
/// spread four times wider.
pub fn synth_config() -> SynthConfig {
    SynthConfig::small()
}

/// Cores the scheduler gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Load-generating threads, also passed explicitly as every MapReduce
/// worker count — nothing is left to `available_parallelism` defaults.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's own directory (`run.sh` exports it; the default is the
/// path from the repository root, where the contract runs the command).
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("KF_BENCHMARK_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// Where results, traces and scratch files go (git-ignored).
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

/// A per-run scratch directory under `out/`, removed on drop: spill runs,
/// KB and report files never leave the checkout and never outlive the run.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("tmp-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn threads_rule_is_min_two_nproc() {
        assert!(threads() >= 1 && threads() <= 2 && threads() <= nproc());
    }
}
