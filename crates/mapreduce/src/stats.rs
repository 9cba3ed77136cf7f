//! Execution counters.

/// Counters for one MapReduce job, in the spirit of Hadoop/MR task counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Input records handed to mappers.
    pub map_input: u64,
    /// Records emitted by mappers (shuffle volume).
    pub map_output: u64,
    /// Distinct keys seen by reducers.
    pub reduce_keys: u64,
    /// Records produced by reducers.
    pub reduce_output: u64,
    /// Peak number of raw (mapper-emitted, not yet grouped) shuffle records
    /// resident in memory at once: the largest single wave. Equals
    /// `map_output` for a one-wave job; with
    /// [`MrConfig::chunk_records`](crate::MrConfig) set it is bounded near
    /// the configured quota.
    pub peak_resident_records: u64,
    /// Peak number of *grouped* records — the shuffle's pending buffer —
    /// resident at once. Equals `map_output` when nothing spills
    /// (every grouped value waits in memory for its reducer); with
    /// [`MrConfig::spill_threshold_records`](crate::MrConfig) set it
    /// stays at or under the threshold as long as a single wave fits it.
    pub peak_grouped_records: u64,
    /// Total bytes written to spill run files (frames plus their length
    /// prefixes); `0` when the job never spilled. Every emitted record is
    /// written as emitted: nothing folds duplicates before a spill.
    pub spilled_bytes: u64,
    /// Sorted run files written by the external shuffle (mid-wave spills
    /// plus end-of-job tail flushes); `0` when the job never spilled.
    /// Compaction re-merges of existing runs do not count — like
    /// `spilled_bytes`, this counts shuffle output leaving memory.
    pub spill_runs: u64,
    /// Always `0`: the engine folds no group buffers before the reducer.
    /// The field stays only because the repository benchmark
    /// (`benchmark/src/workloads.rs`) still reads it.
    pub combiner_invocations: u64,
}

impl JobStats {
    /// Stats for a job over `map_input` records, other counters zeroed.
    pub fn new(map_input: u64) -> Self {
        JobStats {
            map_input,
            ..Default::default()
        }
    }

    /// Mapper fan-out ratio (`map_output / map_input`); 0 when no input.
    pub fn fanout(&self) -> f64 {
        if self.map_input == 0 {
            0.0
        } else {
            self.map_output as f64 / self.map_input as f64
        }
    }

    /// Mean records per reduce key; 0 when no keys.
    pub fn mean_group_size(&self) -> f64 {
        if self.reduce_keys == 0 {
            0.0
        } else {
            self.map_output as f64 / self.reduce_keys as f64
        }
    }

    /// Merge counters from another job (for multi-stage pipelines).
    /// Volume counters (including spilled bytes) add; the residency peaks
    /// take the max, because the stages of a pipeline run one after
    /// another.
    pub fn merge(&mut self, other: &JobStats) {
        self.map_input += other.map_input;
        self.map_output += other.map_output;
        self.reduce_keys += other.reduce_keys;
        self.reduce_output += other.reduce_output;
        self.peak_resident_records = self.peak_resident_records.max(other.peak_resident_records);
        self.peak_grouped_records = self.peak_grouped_records.max(other.peak_grouped_records);
        self.spilled_bytes += other.spilled_bytes;
        self.spill_runs += other.spill_runs;
        self.combiner_invocations += other.combiner_invocations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = JobStats {
            map_input: 10,
            map_output: 30,
            reduce_keys: 6,
            reduce_output: 6,
            peak_resident_records: 30,
            ..Default::default()
        };
        assert!((s.fanout() - 3.0).abs() < 1e-12);
        assert!((s.mean_group_size() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let s = JobStats::default();
        assert_eq!(s.fanout(), 0.0);
        assert_eq!(s.mean_group_size(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = JobStats::new(5);
        a.merge(&JobStats {
            map_input: 10,
            map_output: 20,
            reduce_keys: 2,
            reduce_output: 4,
            peak_resident_records: 20,
            peak_grouped_records: 15,
            spilled_bytes: 1_000,
            spill_runs: 3,
            combiner_invocations: 7,
        });
        assert_eq!(a.map_input, 15);
        assert_eq!(a.map_output, 20);
        assert_eq!(a.reduce_keys, 2);
        assert_eq!(a.reduce_output, 4);
        assert_eq!(a.peak_resident_records, 20);
        assert_eq!(a.peak_grouped_records, 15);
        assert_eq!(a.spilled_bytes, 1_000);
        assert_eq!(a.spill_runs, 3);
        assert_eq!(a.combiner_invocations, 7);
    }

    #[test]
    fn merge_takes_peak_maximum_and_adds_spill() {
        // Stages run sequentially: the pipeline's peak residency is the
        // worst stage, not the sum of stages — but spilled bytes are real
        // I/O volume and accumulate.
        let mut a = JobStats {
            peak_resident_records: 50,
            peak_grouped_records: 40,
            spilled_bytes: 100,
            ..JobStats::new(5)
        };
        a.merge(&JobStats {
            peak_resident_records: 30,
            peak_grouped_records: 60,
            spilled_bytes: 50,
            ..Default::default()
        });
        assert_eq!(a.peak_resident_records, 50);
        assert_eq!(a.peak_grouped_records, 60);
        assert_eq!(a.spilled_bytes, 150);
        a.merge(&JobStats {
            peak_resident_records: 80,
            ..Default::default()
        });
        assert_eq!(a.peak_resident_records, 80);
        assert_eq!(a.peak_grouped_records, 60);
        assert_eq!(a.spilled_bytes, 150);
    }
}
