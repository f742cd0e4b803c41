"""Tests for the benchmark's own logic (metrics.py) and its agreement with
BENCHMARK.json. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import metrics

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def fake_raw(trace):
    """A raw record shaped like the binary's, for a daemon-like run."""
    raw = {
        "workload": "daemon", "seed": 7, "trace": trace,
        "env.nproc": 4, "env.gemm_isa": "avx2", "env.build_type": "Release",
        "env.cxx_flags": "-O3", "env.compiler": "GNU-12",
        "setup.wall_s": [0.5, 0.4, 0.6],
        "setup.cpu_s": [0.45, 0.35, 0.55],
        "op.ms": [float(i % 10 + 1) for i in range(250)],
        "op.cpu_s": [0.002 * (i % 10 + 1) for i in range(250)],
        "op.inferences": [30.0] * 250,
        "op.kind": ["fresh"] * 250,
        "op.ok": [1.0] * 250,
        "op.wall_s": 1.5,
        "peak_rss_mb": 99.0,
        "attempted": 250, "failed": 0, "correct": 1,
    }
    if trace:
        raw.update({
            "trace.op.ms": [2.0] * 10,
            "trace.replay_us": [3.0, 100.0, 900.0, 5000.0],
            "trace.replay_flips": [0.0, 4.0, 20.0, 70.0],
            "trace.dist.single_s": [2.0],
        })
    return raw


class PercentileChoice(unittest.TestCase):
    def test_p95_needs_200_samples(self):
        self.assertEqual(metrics.tail_quantile(200), 0.95)
        self.assertEqual(metrics.samples_beyond(200, 0.95), 10)
        self.assertEqual(metrics.tail_quantile(199), 0.9)
        self.assertEqual(metrics.tail_quantile(150), 0.9)

    def test_p99_needs_a_thousand(self):
        self.assertEqual(metrics.tail_quantile(1000), 0.99)
        self.assertEqual(metrics.tail_quantile(999), 0.95)

    def test_few_samples_qualify_nothing(self):
        self.assertEqual(metrics.tail_quantile(20), 0.5)
        self.assertIsNone(metrics.tail_quantile(19))
        self.assertIsNone(metrics.tail_quantile(0))

    def test_interpolated_percentile(self):
        values = [float(v) for v in range(1, 101)]
        self.assertAlmostEqual(metrics.percentile(values, 0.5), 50.5)
        self.assertAlmostEqual(metrics.percentile(values, 0.95), 95.05)
        self.assertEqual(metrics.percentile([], 0.95), 0.0)


class FlipBands(unittest.TestCase):
    def test_band_edges(self):
        cases = {0: "flips_0", 1: "flips_1-8", 8: "flips_1-8",
                 9: "flips_9-64", 64: "flips_9-64", 65: "flips_65-",
                 10 ** 6: "flips_65-"}
        for flips, band in cases.items():
            self.assertEqual(metrics.flip_band(flips), band, flips)

    def test_negative_is_rejected(self):
        with self.assertRaises(ValueError):
            metrics.flip_band(-1)

    def test_median_per_band(self):
        bands = metrics.replay_by_band([1.0, 3.0, 10.0, 20.0, 30.0],
                                       [0, 0, 5, 5, 100])
        self.assertEqual(bands, {"flips_0": 2.0, "flips_1-8": 15.0,
                                 "flips_9-64": 0.0, "flips_65-": 30.0})


class FailureAccounting(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(metrics.failed_frac(200, 0), 0.0)
        self.assertEqual(metrics.failed_frac(200, 3), 0.015)

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(metrics.failed_frac(0, 0), 1.0)

    def test_failures_never_exceed_attempts(self):
        self.assertEqual(metrics.failed_frac(4, 9), 1.0)

    def test_failed_operation_misses_every_percentile(self):
        ms = [1.0] * 19 + [2.0]
        ok = [1.0] * 19 + [0.0]
        latencies = metrics.effective_latencies(ms, ok, whole_run=5000.0)
        self.assertEqual(latencies[-1], 5000.0)
        self.assertEqual(metrics.percentile(latencies, 1.0), 5000.0)

    def test_result_line_carries_counts(self):
        raw = fake_raw(0)
        raw.update({"attempted": 250, "failed": 2, "correct": 0})
        line = metrics.result_line(raw, load_spec(), 0)
        self.assertEqual((line["correct"], line["attempted"], line["failed"]),
                         (False, 250, 2))


class Naming(unittest.TestCase):
    def test_every_declared_name_is_well_formed(self):
        spec = load_spec()
        for section in ("end_to_end", "per_layer"):
            for name in metrics.spec_names(spec, section):
                self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
                self.assertTrue(metrics.NAME_RE.match(name), name)

    def test_names_are_unique(self):
        spec = load_spec()
        names = (metrics.spec_names(spec, "end_to_end") +
                 metrics.spec_names(spec, "per_layer") +
                 [w["name"] for w in spec["workloads"]])
        self.assertEqual(len(names), len(set(names)))

    def test_malformed_name_is_reported(self):
        problems = metrics.check_names({"bad name": 1.0}, load_spec(),
                                       "end_to_end")
        self.assertTrue(any("malformed" in p for p in problems))


class AgreesWithBenchmarkJson(unittest.TestCase):
    def test_untraced_metrics_match_end_to_end(self):
        spec = load_spec()
        values = metrics.end_to_end(fake_raw(0))
        self.assertEqual(metrics.check_names(values, spec, "end_to_end"), [])
        line = metrics.result_line(fake_raw(0), spec, 0)
        self.assertEqual(list(line), ["correct", "attempted", "failed",
                                      "metrics"])
        for m in spec["end_to_end"]:
            self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])

    def test_traced_metrics_match_per_layer(self):
        spec = load_spec()
        values = metrics.per_layer(fake_raw(1))
        self.assertEqual(metrics.check_names(values, spec, "per_layer"), [])
        self.assertEqual(values["nn.replay_us.flips_65-"], 5000.0)
        sharded_ms = statistics.median(fake_raw(1)["op.ms"] + [2.0] * 10)
        self.assertEqual(values["dist.speedup_vs_single"],
                         2.0 / (sharded_ms / 1e3))

    def test_end_to_end_metrics_are_bounded_and_setup_is_largest(self):
        spec = load_spec()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_gated_figures_are_wall_clock(self):
        raw = fake_raw(0)
        values = metrics.end_to_end(raw)
        busy_s = sum(raw["op.ms"]) / 1e3
        self.assertAlmostEqual(values["submits_per_s"], 250 / busy_s)
        self.assertAlmostEqual(values["inferences_per_s"], 7500 / busy_s)
        self.assertEqual(values["submit_p50_ms"], 5.5)
        self.assertEqual(values["setup_s"], 0.5)

    def test_cpu_time_figures_ride_with_the_traced_run(self):
        raw = fake_raw(1)
        values = metrics.per_layer(raw)
        cpu_s = sum(raw["op.cpu_s"])
        self.assertAlmostEqual(values["cpu.submits_per_s"], 250 / cpu_s)
        self.assertAlmostEqual(values["cpu.inferences_per_s"], 7500 / cpu_s)
        self.assertAlmostEqual(values["cpu.submit_p50_ms"], 11.0)
        self.assertEqual(values["cpu.setup_s"], 0.45)


class LayerFigures(unittest.TestCase):
    def test_service_split_by_kind(self):
        raw = fake_raw(1)
        raw.update({
            "trace.op.ms": [30.0, 0.5, 32.0, 0.7],
            "trace.op.kind": ["fresh", "stored", "fresh", "stored"],
            "trace.inproc.ms": [20.0, 0.3, 22.0, 0.1],
            "trace.inproc.kind": ["fresh", "stored", "fresh", "stored"],
            "trace.plain.ms": [12.0, 14.0],
        })
        values = metrics.per_layer(raw)
        self.assertEqual(values["service.fresh_submit_ms"], 31.0)
        self.assertEqual(values["service.stored_submit_ms"], 0.6)
        self.assertEqual(values["service.overhead_ms"], 10.0)
        self.assertEqual(values["store.overhead_ms"], 8.0)
        self.assertAlmostEqual(values["store.read_ms"], 0.2)

    def test_pool_idle_is_parked_share_of_workers(self):
        raw = fake_raw(1)
        raw.update({"pool.idle_us": 3e6, "pool.wall_s": 10.0,
                    "pool.workers": 3})
        self.assertAlmostEqual(metrics.per_layer(raw)["pool.idle_frac"], 0.1)

    def test_layers_a_workload_skips_read_zero(self):
        values = metrics.per_layer(fake_raw(1))
        self.assertEqual(values["pool.idle_frac"], 0.0)
        self.assertEqual(values["service.fresh_submit_ms"], 0.0)


if __name__ == "__main__":
    unittest.main()
