#!/usr/bin/env python3
"""Unit tests for the CI bench plumbing: the tolerance bands, baseline
selection and exit codes of `bench_check.py`, the log-parse and
artifact-fold paths of `bench_json.py`, and the structural trace gate of
`trace_check.py`.

Run directly (CI's lint job does) or through unittest:

    python3 scripts/test_bench_scripts.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_check  # noqa: E402
import bench_json  # noqa: E402
import trace_check  # noqa: E402


def ns_row(row_id, mean_ns):
    return {"id": row_id, "min_ns": mean_ns, "mean_ns": mean_ns, "max_ns": mean_ns}


def qps_row(row_id, mean_qps):
    return {"id": row_id, "min_qps": mean_qps, "mean_qps": mean_qps, "max_qps": mean_qps}


def value_row(row_id, value):
    return {"id": row_id, "value": value}


def run_check(previous, latest):
    """Drive bench_check.check on row dicts, swallowing its table."""
    with contextlib.redirect_stdout(io.StringIO()):
        return bench_check.check(
            {r["id"]: r for r in previous}, {r["id"]: r for r in latest}
        )


class ToleranceBands(unittest.TestCase):
    def test_timing_band_is_30_percent_by_default(self):
        # +29% passes, +31% regresses; only slower counts.
        _, regressions = run_check([ns_row("group/x", 1e6)], [ns_row("group/x", 1.29e6)])
        self.assertEqual(regressions, [])
        _, regressions = run_check([ns_row("group/x", 1e6)], [ns_row("group/x", 1.31e6)])
        self.assertEqual(regressions, ["group/x"])
        _, regressions = run_check([ns_row("group/x", 1e6)], [ns_row("group/x", 0.5e6)])
        self.assertEqual(regressions, [], "getting faster is never a regression")

    def test_trace_and_hist_rows_get_the_wide_band(self):
        for prefix in ("trace/run/fuse", "hist/serve.latency_ns.point/p99"):
            _, regressions = run_check([ns_row(prefix, 1e6)], [ns_row(prefix, 1.45e6)])
            self.assertEqual(regressions, [], prefix)
            _, regressions = run_check([ns_row(prefix, 1e6)], [ns_row(prefix, 1.55e6)])
            self.assertEqual(regressions, [prefix])

    def test_qps_regresses_only_downward(self):
        _, regressions = run_check([qps_row("serve/qps", 1000)], [qps_row("serve/qps", 710)])
        self.assertEqual(regressions, [])
        _, regressions = run_check([qps_row("serve/qps", 1000)], [qps_row("serve/qps", 690)])
        self.assertEqual(regressions, ["serve/qps"])
        _, regressions = run_check([qps_row("serve/qps", 1000)], [qps_row("serve/qps", 5000)])
        self.assertEqual(regressions, [])

    def test_value_rows_drift_both_ways_scenario_band_tighter(self):
        # scenario/ rows: ±10%; other value rows: ±25%.
        _, regressions = run_check(
            [value_row("scenario/spam/vote/wdev", 0.100)],
            [value_row("scenario/spam/vote/wdev", 0.089)],
        )
        self.assertEqual(regressions, ["scenario/spam/vote/wdev"])
        _, regressions = run_check(
            [value_row("hist/serve.queries/total", 100)],
            [value_row("hist/serve.queries/total", 120)],
        )
        self.assertEqual(regressions, [])
        _, regressions = run_check(
            [value_row("hist/serve.queries/total", 100)],
            [value_row("hist/serve.queries/total", 130)],
        )
        self.assertEqual(regressions, ["hist/serve.queries/total"])

    def test_noise_floor_skips_sub_microsecond_rows(self):
        compared, regressions = run_check(
            [ns_row("group/tiny", 200.0)], [ns_row("group/tiny", 900.0)]
        )
        self.assertEqual((compared, regressions), (0, []))

    def test_new_dropped_and_reshaped_rows_never_regress(self):
        compared, regressions = run_check(
            [ns_row("a", 1e6), value_row("b", 1.0)],
            [ns_row("c", 1e6), value_row("a", 1.0)],  # a reshaped, b dropped, c new
        )
        self.assertEqual((compared, regressions), (0, []))


class BaselineSelection(unittest.TestCase):
    def test_best_of_takes_min_ns_and_max_qps_per_row(self):
        older = {r["id"]: r for r in [ns_row("t", 1e6), qps_row("q", 900)]}
        newer = {r["id"]: r for r in [ns_row("t", 2e6), qps_row("q", 700)]}
        best = bench_check.best_of(older, newer)
        self.assertEqual(best["t"]["mean_ns"], 1e6)
        self.assertEqual(best["q"]["mean_qps"], 900)
        # The other direction: the newer file wins where it is better.
        best = bench_check.best_of(newer, older)
        self.assertEqual(best["t"]["mean_ns"], 1e6)
        self.assertEqual(best["q"]["mean_qps"], 900)

    def test_best_of_value_rows_take_the_newer_file(self):
        older = {r["id"]: r for r in [value_row("v", 1.0)]}
        newer = {r["id"]: r for r in [value_row("v", 2.0)]}
        self.assertEqual(bench_check.best_of(older, newer)["v"]["value"], 2.0)

    def test_best_of_falls_back_to_the_older_file_for_dropped_rows(self):
        older = {r["id"]: r for r in [ns_row("only-old", 1e6)]}
        best = bench_check.best_of(older, {})
        self.assertEqual(best["only-old"]["mean_ns"], 1e6)


class ExitCodes(unittest.TestCase):
    """bench_check.py as CI runs it: a subprocess whose exit status is
    the sentinel verdict."""

    def run_script(self, *docs):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, rows in enumerate(docs):
                path = os.path.join(tmp, f"BENCH_{i}.json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump({"pr": i, "rows": rows}, f)
                paths.append(path)
            script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_check.py")
            return subprocess.run(
                [sys.executable, script, *paths], capture_output=True, text=True
            )

    def test_clean_run_exits_zero(self):
        result = self.run_script([ns_row("a", 1e6)], [ns_row("a", 1.1e6)])
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_regression_exits_one_and_names_the_row(self):
        result = self.run_script([ns_row("a", 1e6)], [ns_row("a", 2e6)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION a", result.stderr)

    def test_too_few_files_exits_two(self):
        result = self.run_script([ns_row("a", 1e6)])
        self.assertEqual(result.returncode, 2)

    def test_three_files_baseline_is_the_best_of_the_first_two(self):
        # Older run was fast (1ms), newer committed run was slow (2ms).
        # 1.5ms against the slow baseline alone would pass (-25%); the
        # best-of baseline (1ms) flags it (+50% > +30% band).
        result = self.run_script(
            [ns_row("a", 1e6)], [ns_row("a", 2e6)], [ns_row("a", 1.5e6)]
        )
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("best of", result.stdout)


class BenchJsonFolds(unittest.TestCase):
    def write(self, tmp, name, content):
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(content, str):
                f.write(content)
            else:
                json.dump(content, f)
        return path

    def test_log_lines_parse_times_and_throughput_with_units(self):
        log = (
            "group/large/espp    time: [612.3 ms 634.1 ms 671.9 ms]  (10 iters)\n"
            "corpus/load         time: [1.2 µs 2.4 µs 3.6 µs]\n"
            "noise line\n"
            "paper/point/c4      thrpt: [900.0 q/s 1000.0 q/s 1100.0 q/s]\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = self.write(tmp, "bench.log", log)
            rows = self.parse_main(["--pr", "1", path])
        by_id = {r["id"]: r for r in rows}
        self.assertEqual(by_id["group/large/espp"]["mean_ns"], 634.1e6)
        self.assertEqual(by_id["corpus/load"]["mean_ns"], 2.4e3)
        self.assertEqual(by_id["paper/point/c4"]["mean_qps"], 1000.0)

    def test_filter_keeps_only_matching_prefixes(self):
        log = (
            "group/a   time: [1.0 ms 1.0 ms 1.0 ms]\n"
            "other/b   time: [1.0 ms 1.0 ms 1.0 ms]\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = self.write(tmp, "bench.log", log)
            rows = self.parse_main(["--pr", "1", path, "--filter", "group/"])
        self.assertEqual([r["id"] for r in rows], ["group/a"])

    def test_trace_fold_bypasses_filter(self):
        trace = {"run": {"timings": [{"path": "run/fuse", "total_ns": 123456}]}}
        with tempfile.TemporaryDirectory() as tmp:
            path = self.write(tmp, "trace.json", trace)
            rows = self.parse_main(["--pr", "1", "--filter", "group/", "--trace", path])
        self.assertEqual(rows, [ns_row("trace/run/fuse", 123456.0)])

    def test_scenario_fold_emits_quality_and_leak_rows(self):
        scenarios = {
            "scenarios": [
                {
                    "scenario": "spam",
                    "methods": [
                        {
                            "method": "vote",
                            "wdev": 0.12,
                            "auc_pr": 0.9,
                            "phenomena": [
                                {"false_positives": 3},
                                {"false_positives": 4},
                            ],
                        }
                    ],
                }
            ]
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = self.write(tmp, "scenarios.json", scenarios)
            rows = self.parse_main(["--pr", "1", "--scenarios", path])
        by_id = {r["id"]: r["value"] for r in rows}
        self.assertEqual(by_id["scenario/spam/vote/wdev"], 0.12)
        self.assertEqual(by_id["scenario/spam/vote/auc_pr"], 0.9)
        self.assertEqual(by_id["scenario/spam/vote/injected_fp"], 7.0)

    def test_metrics_fold_splits_latency_ns_from_value_rows(self):
        snap = {
            "total_queries": 42,
            "kinds": [
                {
                    "kind": "point",
                    "latency_ns": {"count": 10, "p50": 100, "p95": 200, "p99": 300},
                    "result_size": {"count": 10, "p50": 1, "p95": 2, "p99": 3},
                },
                {"kind": "idle", "latency_ns": {"count": 0}},
            ],
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = self.write(tmp, "metrics.json", snap)
            rows = self.parse_main(["--pr", "1", "--metrics", path])
        by_id = {r["id"]: r for r in rows}
        self.assertEqual(by_id["hist/serve.queries/total"]["value"], 42.0)
        self.assertEqual(by_id["hist/serve.latency_ns.point/p99"]["mean_ns"], 300.0)
        self.assertEqual(by_id["hist/serve.result_size.point/p95"]["value"], 2.0)
        self.assertEqual(by_id["hist/serve.latency_ns.point/count"]["value"], 10.0)
        # Empty histograms contribute nothing.
        self.assertNotIn("hist/serve.latency_ns.idle/p50", by_id)

    def parse_main(self, argv):
        """Run bench_json.main under an argv/stdout harness, returning
        the emitted rows."""
        out = io.StringIO()
        old_argv = sys.argv
        sys.argv = ["bench_json.py", *argv]
        try:
            with contextlib.redirect_stdout(out):
                code = bench_json.main()
        finally:
            sys.argv = old_argv
        self.assertEqual(code, 0, out.getvalue())
        return json.loads(out.getvalue())["rows"]


class TraceCheck(unittest.TestCase):
    @staticmethod
    def trace(claims, builds, reuses, round_children):
        span = lambda name, *children: {"name": name, "calls": 1, "children": list(children)}
        fuse = span("fuse", span("group", span("shuffle")), span("round", *round_children))
        method = span("vote", fuse, span("diagnose", span("shuffle")))
        counters = [
            {"name": "fuse.claims_builds", "value": claims, "merge": "add"},
            {"name": "fuse.graph_builds", "value": builds, "merge": "add"},
            {"name": "fuse.graph_reuses", "value": reuses, "merge": "add"},
        ]
        return {"run": {"deterministic": {"spans": span("run", method), "counters": counters}}}

    def test_kernel_rounds_with_two_graphs_projected_from_one_shuffle_pass(self):
        leaf = {"name": "stage1", "calls": 1}
        self.assertEqual(trace_check.check(self.trace(1, 2, 3, [leaf])), [])

    def test_wrong_build_counts_and_shuffling_rounds_are_named(self):
        stage = {"name": "stage2", "calls": 5, "children": [{"name": "shuffle", "calls": 5}]}
        errors = trace_check.check(self.trace(5, 5, 0, [stage]))
        self.assertEqual(len(errors), 4, errors)
        self.assertIn("fuse.claims_builds = 5, expected 1", errors)
        self.assertIn("fuse.graph_builds = 5, expected 2", errors)
        self.assertIn("run/vote/fuse/round/stage2/shuffle", errors[3])


if __name__ == "__main__":
    unittest.main(verbosity=2)
