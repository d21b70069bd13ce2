"""Self-tests of the benchmark's statistics, gate and metric set.

    python3 -m unittest discover -s cxlbench -p 'test_*.py'
"""

import copy
import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402


def golden_run(workload, seconds=3.0):
    g = benchlib.GOLDENS[workload]
    return {"verdict": "HOLDS (%d states, %d transitions, diameter %d)"
                       % (g["states"], g["transitions"], g["diameter"]),
            "states": g["states"], "transitions": g["transitions"],
            "diameter": g["diameter"], "seconds": seconds,
            "call_s": seconds + 0.02, "threads": 1, "probe_collisions": 0,
            "mapped_bytes": 0, "file_bytes": 0}


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        self.assertEqual(benchlib.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(benchlib.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(1000, 99.0), 10)
        self.assertEqual(benchlib.samples_beyond(999, 99.0), 9)
        self.assertEqual(benchlib.samples_beyond(20, 50.0), 10)

    def test_tail_percentile_needs_ten_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(9999), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_percentile_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(benchlib.percentile(values, 50.0), 500)
        self.assertEqual(benchlib.percentile(values, 99.0), 990)
        self.assertEqual(benchlib.percentile([7.0], 99.0), 7.0)

    def test_p99_falls_back_to_median_without_a_tail(self):
        self.assertEqual(benchlib.latency_p99([1.0, 2.0, 30.0]), 2.0)
        values = [1.0] * 990 + [50.0] * 10
        self.assertEqual(benchlib.latency_p99(values), 1.0)
        values = [1.0] * 989 + [50.0] * 11
        self.assertEqual(benchlib.latency_p99(values), 50.0)


class Gate(unittest.TestCase):
    def test_golden_run_passes(self):
        for w in ("nosym3", "sym3"):
            self.assertEqual(benchlib.gate_exploration(w, golden_run(w)), [])

    def test_perturbed_golden_count_is_rejected(self):
        for key in ("states", "transitions", "diameter"):
            run = golden_run("nosym3")
            run[key] += 1
            problems = benchlib.gate_exploration("nosym3", run)
            self.assertEqual(len(problems), 1, key)
            self.assertIn(key, problems[0])

    def test_wrong_verdict_is_rejected(self):
        run = golden_run("sym3")
        run["verdict"] = "INCOMPLETE (state cap) after 144294 states"
        self.assertTrue(benchlib.gate_exploration("sym3", run))

    def test_failed_run_counts_toward_failed(self):
        good, bad = golden_run("nosym3"), golden_run("nosym3")
        bad["transitions"] -= 1
        raw = {"workload": "nosym3", "runs": [good, bad],
               "setup_s": [1e-4], "timed_s": 6.0,
               "peak_rss_bytes": 1 << 28}
        _, attempted, failed, problems = benchlib.summarize(
            "nosym3", raw, False)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertTrue(problems)

    def test_failed_warmup_counts_toward_failed(self):
        warm = golden_run("sym3")
        warm["states"] -= 1
        raw = {"workload": "sym3", "runs": [golden_run("sym3")],
               "warmup": warm, "setup_s": [1e-4], "timed_s": 3.0,
               "peak_rss_bytes": 1 << 28}
        _, attempted, failed, problems = benchlib.summarize(
            "sym3", raw, False)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("states", problems[0])

    def test_served_mismatch_counts_toward_failed(self):
        raw = {"workload": "served",
               "latency_s": [1e-3] * 1000, "ok": [1] * 999 + [0],
               "cached": [0] * 1000, "payload_seconds": [5e-4] * 1000,
               "failure_examples": ["verdict differs"],
               "reference_errors": [], "setup_s": [1e-4],
               "passes": [{"wall_s": 2.0, "requests": 1000,
                           "states": 10 ** 6, "peak_rss_bytes": 1 << 27}]}
        _, attempted, failed, problems = benchlib.summarize(
            "served", raw, False)
        self.assertEqual((attempted, failed), (1000, 1))
        self.assertTrue(problems)


class ServedRound(unittest.TestCase):
    def test_each_slice_counts_once_at_its_median(self):
        def p(slice_, wall, states):
            return {"slice": slice_, "wall_s": wall, "requests": 150,
                    "states": states, "peak_rss_bytes": 1 << 24}
        # Slice 0 ran three times, one pass stalled; slice 1 ran once.
        passes = [p(0, 1.0, 100), p(1, 3.0, 500), p(0, 9.0, 100),
                  p(0, 1.2, 100)]
        self.assertEqual(benchlib.served_round(passes), (4.2, 300, 600))
        raw = {"workload": "served", "latency_s": [1e-3] * 1000,
               "ok": [1] * 1000, "cached": [0] * 1000,
               "payload_seconds": [5e-4] * 1000, "failure_examples": [],
               "reference_errors": [], "setup_s": [1e-4],
               "passes": passes}
        metrics, _, _, _ = benchlib.summarize("served", raw, False)
        self.assertAlmostEqual(metrics["wall_s"]["value"], 2.1)
        self.assertAlmostEqual(metrics["checks_per_s"]["value"], 300 / 4.2)
        self.assertAlmostEqual(metrics["states_per_s"]["value"], 600 / 4.2)


class MetricSet(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_benchmark_json_names_every_metric(self):
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.bench["end_to_end"]},
                         benchlib.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in self.bench["per_layer"]},
                         benchlib.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]),
                         benchlib.WORKLOADS)

    def test_untraced_exploration_reports_every_end_to_end_metric(self):
        raw = {"workload": "nosym3",
               "runs": [golden_run("nosym3", s) for s in (3.0, 3.2, 2.9)],
               "setup_s": [2e-4, 1e-4, 1.5e-4], "timed_s": 9.5,
               "peak_rss_bytes": 1 << 28}
        metrics, attempted, failed, problems = benchlib.summarize(
            "nosym3", raw, False)
        self.assertEqual(set(metrics), set(benchlib.END_TO_END))
        self.assertTrue(all(m["value"] > 0 for m in metrics.values()))
        self.assertEqual(metrics["wall_s"]["value"], 3.0)
        self.assertAlmostEqual(metrics["checks_per_s"]["value"],
                               1 / 3.02)
        self.assertEqual((attempted, failed, problems), (3, 0, []))

    def test_traced_exploration_reports_every_layer(self):
        run = golden_run("sym3", 20.0)
        run["threads"] = 4
        g = benchlib.GOLDENS["sym3"]
        layers = dict(fetch=1.0, generate=13.0, tid_canon=3.0,
                      sym_canon=26.0, hash=2.0, insert=16.0,
                      invariants=13.0, seal=0.1)
        raw = {"workload": "sym3", "runs": [run], "setup_s": [1e-4],
               "model_build_s": [1e-4],
               "render_s": 5e-5, "model_builds": 1,
               "peak_rss_bytes": 1 << 28,
               "replay": {"states": g["states"],
                          "transitions": g["transitions"],
                          "diameter": g["diameter"],
                          "generate_calls": g["states"],
                          "sym_canon_calls": g["transitions"],
                          "inserted": g["states"] - 1,
                          "invariant_evals": g["states"],
                          "probe_collisions": 0, "wall_s": 80.0,
                          "layers_s": layers}}
        metrics, attempted, failed, _ = benchlib.summarize("sym3", raw, True)
        self.assertEqual(set(metrics), set(benchlib.PER_LAYER))
        busy = sum(layers.values())
        self.assertAlmostEqual(metrics["trace.layer_coverage"]["value"],
                               busy / 80.0)
        self.assertAlmostEqual(
            metrics["explorer.parallel_efficiency"]["value"],
            busy / (4 * 20.0))
        self.assertAlmostEqual(metrics["trace.overhead_s"]["value"], 60.0)
        self.assertEqual((attempted, failed), (2, 0))

    def test_served_traced_hit_and_miss_split(self):
        n = 1000
        raw = {"workload": "served",
               "latency_s": [1e-4] * 500 + [2e-3] * 500, "ok": [1] * n,
               "cached": [1] * 500 + [0] * 500,
               "payload_seconds": [5e-4] * n, "failure_examples": [],
               "reference_errors": [], "setup_s": [1e-4],
               "passes": [{"wall_s": 2.0, "requests": n, "states": 10 ** 6,
                           "peak_rss_bytes": 1 << 27}],
               "server_errors": 0,
               "server_rejected": 0,
               "api": {"model_build_s": [1e-4], "model_builds": 3,
                       "session_overhead_s": [5e-5], "render_s": [2e-5],
                       "engine_s": 1.5}}
        metrics, _, failed, problems = benchlib.summarize("served",
                                                          copy.deepcopy(raw),
                                                          True)
        self.assertEqual(set(metrics), set(benchlib.PER_LAYER))
        self.assertEqual(metrics["serve.cache_hit_ratio"]["value"], 0.5)
        self.assertAlmostEqual(metrics["serve.hit_p50_ms"]["value"], 0.1)
        self.assertAlmostEqual(metrics["serve.miss_p50_ms"]["value"], 2.0)
        self.assertAlmostEqual(metrics["serve.overhead_p50_ms"]["value"],
                               1.5)
        self.assertEqual((failed, problems), (0, []))


if __name__ == "__main__":
    unittest.main()
