"""Self-test of the benchmark's own logic (no build needed):

    python3 benchmark/test_analysis.py
"""

import json
import os
import unittest

import analysis

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, start, end, parent=-1, id_=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "id": id_}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 90), 90)
        self.assertEqual(analysis.percentile(values, 99), 99)
        self.assertEqual(analysis.percentile(values, 100), 100)

    def test_order_and_small_samples(self):
        self.assertEqual(analysis.percentile([3, 1, 2], 50), 2)
        self.assertEqual(analysis.percentile([7], 99), 7)
        self.assertEqual(analysis.percentile([5, 1], 50), 1)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            analysis.percentile([], 50)
        with self.assertRaises(ValueError):
            analysis.percentile([1], 0)

    def test_per_call_medians(self):
        # two calls timed in each of three passes
        times = [1.0, 10.0, 3.0, 30.0, 2.0, 20.0]
        self.assertEqual(analysis.per_call_medians(times, 3), [2.0, 20.0])
        self.assertEqual(analysis.per_call_medians(times[:5], 3), times[:5])
        self.assertEqual(analysis.per_call_medians(times, 1), times)

    def test_geomean(self):
        self.assertAlmostEqual(analysis.geomean([1, 4, 16]), 4.0)
        with self.assertRaises(ValueError):
            analysis.geomean([1, 0])


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span("bench.pass", 0.0, 10.0),
                 span("kernels.spmm_octet", 1.0, 4.0, 0),
                 span("gpusim.costmodel.cycles", 4.0, 4.5, 0),
                 span("kernels.hgemm_tcu", 6.0, 9.0, 0)]
        own = analysis.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 3.0 - 0.5 - 3.0)
        self.assertAlmostEqual(own[1], 3.0)

    def test_overlapping_children_count_once(self):
        spans = [span("bench.pass", 0.0, 10.0),
                 span("kernels.a", 1.0, 5.0, 0),
                 span("kernels.b", 3.0, 6.0, 0)]
        self.assertAlmostEqual(analysis.self_times(spans)[0], 5.0)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [span("bench.setup", 0.0, 10.0),
                 span("formats.to_device", 1.0, 5.0, 0),
                 span("gpusim.device.alloc", 2.0, 3.0, 1)]
        own = analysis.self_times(spans)
        self.assertAlmostEqual(own[0], 6.0)
        self.assertAlmostEqual(own[1], 3.0)
        self.assertAlmostEqual(own[2], 1.0)

    def test_bad_nesting_is_rejected(self):
        with self.assertRaises(ValueError):  # child outlives parent
            analysis.self_times([span("bench.pass", 0.0, 1.0),
                                 span("kernels.a", 0.5, 2.0, 0)])
        with self.assertRaises(ValueError):  # parent after child
            analysis.self_times([span("kernels.a", 0.0, 1.0, 1),
                                 span("bench.pass", 0.0, 2.0)])
        with self.assertRaises(ValueError):  # ends before it starts
            analysis.self_times([span("bench.pass", 2.0, 1.0)])

    def test_layers_sum_to_roots(self):
        spans = [span("bench.pass", 0.0, 10.0, -1, 0),
                 span("bench.launch", 0.0, 6.0, 0, 0),
                 span("kernels.spmm_octet", 1.0, 4.0, 1, 0),
                 span("gpusim.costmodel.cycles", 4.0, 5.0, 1, 0),
                 span("bench.pass", 10.0, 14.0, -1, 1),
                 span("serve.run_load", 10.0, 12.0, 4, 0)]
        layers = analysis.ROOT_LAYERS["pass"]
        got = analysis.layer_self_times(spans, "bench.pass", layers)
        self.assertAlmostEqual(got["kernels"], 3.0 / 2)
        self.assertAlmostEqual(got["gpusim.costmodel"], 1.0 / 2)
        self.assertAlmostEqual(got["serve"], 2.0 / 2)
        self.assertAlmostEqual(got["unattributed"], (10.0 - 4.0 + 2.0) / 2)
        self.assertAlmostEqual(sum(got.values()), 14.0 / 2)

    def test_unknown_layer_is_rejected(self):
        spans = [span("bench.pass", 0.0, 1.0), span("mystery.call", 0.1, 0.2, 0)]
        with self.assertRaises(ValueError):
            analysis.layer_self_times(spans, "bench.pass",
                                      analysis.ROOT_LAYERS["pass"])


class MetricCheckTest(unittest.TestCase):
    SPEC = [{"name": "wall_s", "unit": "s"}, {"name": "model_cycles",
                                              "unit": "cycles"}]

    def test_exact_set_passes(self):
        analysis.check_metrics({"wall_s": {"value": 1.5, "unit": "s"},
                                "model_cycles": {"value": 9, "unit": "cycles"}},
                               self.SPEC)

    def test_missing_or_renamed_metric_fails(self):
        with self.assertRaises(ValueError):
            analysis.check_metrics({"wall_s": {"value": 1.5, "unit": "s"}},
                                   self.SPEC)
        with self.assertRaises(ValueError):
            analysis.check_metrics({"wall_s": {"value": 1.5, "unit": "s"},
                                    "model_cycle": {"value": 9,
                                                    "unit": "cycles"}},
                                   self.SPEC)

    def test_wrong_unit_or_value_fails(self):
        with self.assertRaises(ValueError):
            analysis.check_metrics({"wall_s": {"value": 1.5, "unit": "ms"},
                                    "model_cycles": {"value": 9,
                                                     "unit": "cycles"}},
                                   self.SPEC)
        with self.assertRaises(ValueError):
            analysis.check_metrics({"wall_s": {"value": float("nan"),
                                               "unit": "s"},
                                    "model_cycles": {"value": 9,
                                                     "unit": "cycles"}},
                                   self.SPEC)

    def test_benchmark_json_matches_analysis(self):
        """Every name analysis produces is declared, with its unit."""
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        phase = {"pass_wall_s": [2.0, 2.2], "launch_ms": [1.0, 2.0, 3.0],
                 "ctas": 10, "costmodel_s": 0.1, "costmodel_calls": 3,
                 "kernel_host_s": {"spmm_octet": 1.0}}
        raw = {"setup_s": [0.5], "untraced": phase, "traced": phase,
               "peak_rss_kb": 2048, "launch_cycles": [10.0, 30.0],
               "speedups": [2.0, 8.0]}
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in analysis.end_to_end(raw).items()}
        analysis.check_metrics(metrics, spec["end_to_end"])
        self.assertAlmostEqual(metrics["speedup_geomean"]["value"], 4.0)
        self.assertAlmostEqual(metrics["model_cycles"]["value"], 40.0)
        spans = [span("bench.pass", 0.0, 1.0)]
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in analysis.per_layer(raw, spans).items()}
        analysis.check_metrics(metrics, spec["per_layer"])


class ServeTest(unittest.TestCase):
    def test_latencies_and_ledger(self):
        ledger = [
            {"id": 0, "outcome": "completed", "arrival": 0, "deadline": 100,
             "latency": 25},
            {"id": 1, "outcome": "completed", "arrival": 10, "deadline": 60,
             "latency": 80},
            {"id": 2, "outcome": "shed_queue", "arrival": 20, "deadline": 70,
             "latency": 0},
        ]
        latencies, headroom = analysis.serve_latencies({"ledgers": [ledger]})
        self.assertEqual(latencies, [25, 80])
        self.assertEqual(headroom, [4.0])  # request 1 missed its SLO
        self.assertEqual(analysis.ledger_failures(
            {"requests": 3, "ledgers": [ledger]}), 0)
        self.assertEqual(analysis.ledger_failures(
            {"requests": 3, "ledgers": [ledger[:2]]}), 1)


if __name__ == "__main__":
    unittest.main()
