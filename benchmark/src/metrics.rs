//! The metric tables. `BENCHMARK.json` is the contract; these tables are
//! what the binary reports. A unit test holds the two equal.

use kf_eval::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; reported by untraced runs, on every
/// workload, never zero.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("peak_rss_mb", "MB"),
    m("kb_bytes_per_triple", "B"),
    m("qps", "1/s"),
    m("query_ns_p50", "ns"),
];

/// Layers are the crates; reported by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    m("synth.generate_s", "s"),
    m("synth.save_s", "s"),
    m("synth.load_s", "s"),
    m("synth.checkpoint_bytes", "B"),
    m("types.corpus_encode_s", "s"),
    m("types.corpus_decode_s", "s"),
    m("types.wire_roundtrip_us", "us"),
    m("mapreduce.job_mem_s", "s"),
    m("mapreduce.job_spill_s", "s"),
    m("mapreduce.spill_slowdown_ratio", "ratio"),
    m("mapreduce.job_map_output", "count"),
    m("mapreduce.job_spilled_bytes", "B"),
    m("mapreduce.job_spill_runs", "count"),
    m("mapreduce.job_peak_grouped_records", "count"),
    m("core.group_coarse_s", "s"),
    m("core.group_fine_s", "s"),
    m("core.fuse_vote_s", "s"),
    m("core.fuse_accu_s", "s"),
    m("core.fuse_popaccu_s", "s"),
    m("core.fuse_popaccu_plus_unsup_s", "s"),
    m("core.fuse_popaccu_plus_s", "s"),
    m("core.rounds_vote_s", "s"),
    m("core.rounds_accu_s", "s"),
    m("core.rounds_popaccu_s", "s"),
    m("core.rounds_popaccu_plus_unsup_s", "s"),
    m("core.rounds_popaccu_plus_s", "s"),
    m("core.group_share", "ratio"),
    m("core.rounds_total", "count"),
    m("core.scored_triples", "count"),
    m("core.mr_map_output", "count"),
    m("core.mr_reduce_keys", "count"),
    m("core.mr_peak_resident_records", "count"),
    m("core.mr_peak_grouped_records", "count"),
    m("core.mr_spilled_bytes", "B"),
    m("core.mr_spill_runs", "count"),
    m("core.mr_combiner_invocations", "count"),
    m("core.traced_self_s", "s"),
    m("eval.evaluate_s", "s"),
    m("eval.to_json_s", "s"),
    m("eval.save_s", "s"),
    m("eval.load_s", "s"),
    m("eval.merge_s", "s"),
    m("eval.report_bytes", "B"),
    m("eval.traced_self_s", "s"),
    m("diagnose.support_index_s", "s"),
    m("diagnose.run_s", "s"),
    m("diagnose.classified_fp", "count"),
    m("serve.compile_index_s", "s"),
    m("serve.save_s", "s"),
    m("serve.open_s", "s"),
    m("serve.kb_bytes", "B"),
    m("serve.lookup_hit_ns", "ns"),
    m("serve.lookup_miss_ns", "ns"),
    m("serve.belief_ns", "ns"),
    m("serve.topk_ns", "ns"),
    m("serve.drilldown_ns", "ns"),
    m("serve.view_ns", "ns"),
    m("serve.query_ns_p99", "ns"),
    m("serve.batch_ns_p999", "ns"),
    m("serve.client_skew_ratio", "ratio"),
    m("serve.metrics_record_ns", "ns"),
    m("serve.metrics_overhead_ratio", "ratio"),
    m("serve.hit_ratio", "ratio"),
    m("serve.traced_self_s", "s"),
    m("dist.wall_s", "s"),
    m("dist.kill_wall_s", "s"),
    m("dist.corpus_ship_bytes", "B"),
    m("dist.first_task_delay_s", "s"),
    m("dist.task_s_sum", "s"),
    m("dist.task_s_max", "s"),
    m("dist.runner_busy_ratio", "ratio"),
    m("dist.tail_s", "s"),
    m("dist.single_process_s", "s"),
    m("dist.overhead_s", "s"),
    m("dist.runner_calls", "count"),
    m("dist.kill_redispatch_delay_s", "s"),
    m("telemetry.span_overhead_ratio", "ratio"),
    m("telemetry.counter_add_ns", "ns"),
    m("telemetry.hist_record_ns", "ns"),
    m("bench.run_on_corpus_s", "s"),
    m("bench.unattributed_s", "s"),
    m("bench.traced_iteration_s", "s"),
    m("bench.trace_overhead_ratio", "ratio"),
    m("bench.traced_self_s", "s"),
];

/// Units whose values must repeat exactly for one seed.
pub fn is_count(unit: &str) -> bool {
    matches!(unit, "count" | "B")
}

/// The values one run measured, checked against a table when reported.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            !self.values.iter().any(|(n, _)| n == name),
            "metric {name} set twice"
        );
        self.values.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every metric of `table`,
    /// in table order, with its unit. A missing, extra or non-finite value
    /// is a harness bug, not a measurement.
    pub fn to_json(&self, table: &[MetricDef]) -> Json {
        for (name, _) in &self.values {
            assert!(
                table.iter().any(|d| d.name == name),
                "metric {name} is not in the contract"
            );
        }
        Json::Obj(
            table
                .iter()
                .map(|def| {
                    let value = self
                        .get(def.name)
                        .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
                    assert!(value.is_finite(), "metric {} is {value}", def.name);
                    let entry = Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(def.unit.to_string())),
                    ]);
                    (def.name.to_string(), entry)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn contract_names(doc: &Json, key: &str) -> Vec<(String, String)> {
        json::as_array(json::get(doc, key).unwrap())
            .unwrap()
            .iter()
            .map(|e| {
                (
                    json::as_str(json::get(e, "name").unwrap())
                        .unwrap()
                        .to_string(),
                    json::as_str(json::get(e, "unit").unwrap())
                        .unwrap()
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(contract_names(&doc, key), ours, "{key}");
        }
        let workloads: Vec<String> = json::as_array(json::get(&doc, "workloads").unwrap())
            .unwrap()
            .iter()
            .map(|w| {
                json::as_str(json::get(w, "name").unwrap())
                    .unwrap()
                    .to_string()
            })
            .collect();
        let ours: Vec<&str> = crate::fixtures::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metrics_serialize_in_table_order_with_units() {
        let table = &[m("b", "s"), m("a", "count")];
        let mut metrics = Metrics::default();
        metrics.set("a", 3.0);
        metrics.set("b", 0.25);
        assert_eq!(
            metrics.to_json(table).to_string_compact(),
            r#"{"b":{"value":0.25,"unit":"s"},"a":{"value":3,"unit":"count"}}"#
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Metrics::default().to_json(&[m("a", "s")]);
    }
}
