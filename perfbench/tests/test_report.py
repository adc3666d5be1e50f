"""Self-tests of the benchmark's reporting rules.

    python3 -m unittest discover -s perfbench/tests

They need no build: they exercise perfbench/report.py on hand-made raw
results and check BENCHMARK.json against what the reporter emits.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import report  # noqa: E402

BENCH = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def span(name, seq, parent, start_ms, end_ms, tid=0, op_id=1):
    return [name, seq, parent, op_id, tid, int(start_ms * 1e6),
            int(end_ms * 1e6)]


def raw_result(n_study=120, n_tick=120, folds=(), spans=()):
    return {
        "fingerprint": {"workload": "w", "seed": 1},
        "attempted": 5,
        "failed": 0,
        "checks": [{"name": "c", "ok": True, "detail": ""}],
        "setup_s": [0.3, 0.1, 0.2],
        "peak_rss_mb": 17.5,
        "series": {
            "study_ms": [float(i) for i in range(1, n_study + 1)],
            "tick_ms": [float(i) for i in range(1, n_tick + 1)],
            "fold_ms": list(folds),
            "op_ms": [10.0, 11.0] * 3,
            "op_obs": [8.0] * 6,
            "op_traced": [0.0, 1.0] * 3,
        },
        "values": {"model_err_pct": 2.0,
                   "staleness_err": 0.1, "core.serving.observations": 100.0,
                   "core.serving.batches": 8.0},
        "info": {},
        "spans": list(spans),
    }


class PercentileTest(unittest.TestCase):
    def test_quantile_interpolates(self):
        self.assertEqual(report.quantile([1, 2, 3, 4, 5], 0.5), 3)
        self.assertAlmostEqual(report.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertAlmostEqual(
            report.quantile([float(i) for i in range(1, 101)], 0.9), 90.1)
        self.assertEqual(report.quantile([7.0], 0.9), 7.0)

    def test_quantile_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            report.quantile([], 0.5)

    def test_tail_count(self):
        self.assertEqual(report.tail_count(100, 0.9), 10)
        self.assertEqual(report.tail_count(99, 0.9), 9)
        self.assertEqual(report.tail_count(20, 0.5), 10)
        self.assertEqual(report.tail_count(19, 0.5), 9)

    def test_only_percentiles_with_ten_samples_beyond_are_reported(self):
        values = [float(i) for i in range(100)]
        self.assertAlmostEqual(report.percentile_metric(values, 0.9), 89.1)
        with self.assertRaises(ValueError):
            report.percentile_metric(values[:99], 0.9)
        with self.assertRaises(ValueError):
            report.percentile_metric(values[:19], 0.5)
        self.assertEqual(report.percentile_metric(values[:20], 0.5), 9.5)

    def test_end_to_end_refuses_a_short_run(self):
        with self.assertRaises(ValueError):
            report.end_to_end(raw_result(n_study=99))
        metrics = report.end_to_end(raw_result())
        self.assertEqual(metrics["setup_s"], 0.2)
        self.assertAlmostEqual(metrics["study_ms.p50"], 60.5)
        self.assertAlmostEqual(metrics["study_ms.p90"], 108.1)
        self.assertAlmostEqual(metrics["obs_per_s"], 48 / 0.063)


class WindowTest(unittest.TestCase):
    def test_windows_hold_at_least_window_ops_and_cover_all(self):
        for n in (1, 99, 100, 199, 200, 1234):
            parts = report.windows(list(range(n)))
            self.assertEqual(sum(parts, []), list(range(n)))
            self.assertEqual(len(parts), max(1, n // report.WINDOW))
            if n >= report.WINDOW:
                self.assertGreaterEqual(min(map(len, parts)), report.WINDOW)

    def test_windowed_p90_is_the_median_of_window_p90s(self):
        # Three windows of 100: two fast, one slowed down by 10x.
        fast = [float(i % 100) for i in range(200)]
        slow = [10.0 * i for i in range(100)]
        self.assertAlmostEqual(report.windowed_p90(fast + slow), 89.1)
        self.assertAlmostEqual(report.windowed_p90(slow + fast), 89.1)
        self.assertAlmostEqual(report.windowed_p90(fast[:100]), 89.1)

    def test_windowed_p90_needs_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            report.windowed_p90([1.0] * 99)

    def test_windowed_rate(self):
        ms = [1.0] * 200 + [4.0] * 100
        self.assertAlmostEqual(report.windowed_rate([2.0] * 300, ms), 2000.0)
        with self.assertRaises(ValueError):
            report.windowed_rate([1.0], [1.0, 2.0])


class LayerTest(unittest.TestCase):
    SPANS = [
        span("op.setup", 1, 0, 0, 10),
        span("core.estimator.train", 2, 1, 1, 6),
        span("op.tick", 3, 0, 20, 40),
        span("core.serving.ingest", 4, 3, 20, 25),
        span("core.serving.fold", 5, 3, 25, 35),
        # Two concurrent children of the fold on other threads.
        span("ml.fit.rf", 6, 5, 26, 30, tid=1),
        span("ml.fit.rf", 7, 5, 28, 33, tid=2),
        span("core.query", 8, 3, 36, 38),
    ]

    def test_layer_times_sum_spans(self):
        times = report.layer_times(self.SPANS)
        self.assertAlmostEqual(times["ml.fit.rf"], 9.0)
        self.assertAlmostEqual(times["core.serving.fold"], 10.0)

    def test_self_time_subtracts_the_union_of_children(self):
        self_ms = report.self_times(self.SPANS)
        # The fold's children cover [26, 33): 7 of its 10 ms.
        self.assertAlmostEqual(self_ms["core.serving.fold"], 3.0)
        self.assertAlmostEqual(self_ms["op.tick"], 20.0 - 17.0)
        self.assertAlmostEqual(self_ms["ml.fit.rf"], 9.0)

    def test_top_level_spans_plus_unattributed_make_the_wall(self):
        wall, unattributed = report.wall_and_unattributed(self.SPANS)
        self.assertAlmostEqual(wall, 30.0)
        top = 5.0 + 5.0 + 10.0 + 2.0
        self.assertAlmostEqual(unattributed, wall - top)

    def test_per_layer_metrics(self):
        metrics = report.per_layer(
            raw_result(folds=[float(i) for i in range(100)],
                       spans=self.SPANS))
        self.assertAlmostEqual(metrics["core.serving.fold_ms"], 10.0)
        self.assertAlmostEqual(metrics["core.serving.rows_per_batch"], 12.5)
        self.assertAlmostEqual(metrics["trace.overhead_pct"], 10.0)
        self.assertEqual(metrics["core.dataset.rows"], 0.0)
        self.assertAlmostEqual(metrics["workload.wall_ms"], 30.0)

    def test_chrome_trace_has_one_event_per_span(self):
        trace = report.chrome_trace(raw_result(spans=self.SPANS))
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(len(complete), len(self.SPANS))
        self.assertEqual(complete[0]["ts"], 0.0)
        self.assertEqual(complete[0]["args"]["id"], 1)
        json.dumps(trace)


class BenchmarkFileTest(unittest.TestCase):
    def test_emitted_names_match_benchmark_json(self):
        raw = raw_result(folds=[1.0] * 100, spans=LayerTest.SPANS)
        for trace, metrics in ((False, report.end_to_end(raw)),
                               (True, report.per_layer(raw))):
            report.check_names(metrics, BENCH, trace)
            line = report.result_line(raw, BENCH, trace)
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            self.assertTrue(line["correct"])

    def test_name_mismatch_is_an_error(self):
        metrics = report.end_to_end(raw_result())
        metrics["surprise_ms"] = 1.0
        with self.assertRaises(ValueError):
            report.check_names(metrics, BENCH, False)
        del metrics["surprise_ms"]
        del metrics["setup_s"]
        with self.assertRaises(ValueError):
            report.check_names(metrics, BENCH, False)

    def test_failed_checks_make_the_result_incorrect(self):
        raw = raw_result()
        raw["checks"][0]["ok"] = False
        self.assertFalse(report.result_line(raw, BENCH, False)["correct"])

    def test_contract_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        e2e = {m["name"]: m for m in BENCH["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)
        names = [m["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for m in BENCH[key]]
        self.assertEqual(len(names), len(set(names)))
        for w in BENCH["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


if __name__ == "__main__":
    unittest.main()
