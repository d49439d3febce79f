"""Tests for the benchmark's metric arithmetic and comparison tool (stdlib unittest).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import array
import json
import os
import struct
import tempfile
import types
import unittest

import compare
import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class PercentileRuleTest(unittest.TestCase):
    def test_samples_beyond_uses_nearest_rank(self):
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)
        self.assertEqual(metrics.samples_beyond(999, 99), 9)
        self.assertEqual(metrics.samples_beyond(10000, 99.9), 10)

    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1000))  # 999 samples: only 9 beyond p99.
        self.assertIsNone(metrics.percentile(values, 99))
        values = list(range(1, 1001))  # 1000 samples: 10 beyond.
        self.assertEqual(metrics.percentile(values, 99), 990)

    def test_p999_needs_ten_thousand_samples(self):
        self.assertIsNone(metrics.percentile(list(range(9999)), 99.9))
        self.assertEqual(metrics.percentile(list(range(1, 10001)), 99.9), 9990)

    def test_median_needs_one_sample(self):
        self.assertEqual(metrics.percentile([7], 50), 7)
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 50), 2)
        self.assertIsNone(metrics.percentile([], 50))


class FailedFracTest(unittest.TestCase):
    def test_share_of_attempted(self):
        self.assertEqual(metrics.failed_frac(10, 0), 0.0)
        self.assertEqual(metrics.failed_frac(8, 2), 0.25)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (5, 6), (5, -1)):
            with self.assertRaises(ValueError):
                metrics.failed_frac(attempted, failed)

    def test_end_to_end_pools_counts_across_processes(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = write_worker(tmp, "a", attempted=100, failed=1)
            b = write_worker(tmp, "b", attempted=300, failed=3)
            common, detail = metrics.end_to_end("classic_fork", [a, b])
        self.assertEqual(detail["failed_frac"].value, 4 / 400)
        self.assertEqual(detail["failed_frac"].n, 400)


class HostSpeedScalingTest(unittest.TestCase):
    def test_slow_windows_are_scaled_back(self):
        with tempfile.TemporaryDirectory() as tmp:
            # Eight 0.25 s windows per process; the host ran ten times slower in windows 2
            # and 3 of one process and window 0 of the other, HostRef units included.
            a = write_worker(tmp, "a", attempted=10, failed=0, slow_windows=(2, 3))
            b = write_worker(tmp, "b", attempted=10, failed=0, slow_windows=(0,))
            steady = write_worker(tmp, "c", attempted=10, failed=0)
            forks = metrics.pooled([a, b], "measured", "fork")
            expected = metrics.pooled([steady, steady], "measured", "fork")
        self.assertEqual(len(forks), 2 * COUNTS["fork"])
        for got, want in zip(forks, expected):
            self.assertAlmostEqual(got, want)

    def test_exponent_scales_partially(self):
        with tempfile.TemporaryDirectory() as tmp:
            result = write_worker(tmp, "a", attempted=10, failed=0, slow_windows=range(8),
                                  slowdown=4, workload="snapshot_server")
            forks = metrics.pooled([result], "measured", "fork")
        # The server's exponent is 0.5: a 4x slower unit halves its samples.
        self.assertEqual(metrics.REF_EXPONENT["snapshot_server"], 0.5)
        raw = sorted((1000 + i) * 4 for i in range(COUNTS["fork"]))
        for got, want in zip(forks, raw):
            self.assertAlmostEqual(got, want / 2)

    def test_throughput_at_nominal_speed(self):
        with tempfile.TemporaryDirectory() as tmp:
            steady = write_worker(tmp, "a", attempted=10, failed=0)
            # Twice as slow throughout: half the rounds, HostRef units twice as long.
            slow = write_worker(tmp, "b", attempted=10, failed=0, slow_windows=range(8),
                                slowdown=2, ops=10, op_samples=80)
            fast, _ = metrics.end_to_end("classic_fork", [steady])
            scaled, _ = metrics.end_to_end("classic_fork", [slow])
        # 20 rounds in 2 s.
        self.assertAlmostEqual(fast["throughput_per_s"].value, 10.0)
        self.assertAlmostEqual(scaled["throughput_per_s"].value, 10.0)

    def test_open_loop_throughput_is_service_capacity(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = write_worker(tmp, "a", attempted=10, failed=0)
            b = write_worker(tmp, "b", attempted=10, failed=0)
            common, _ = metrics.end_to_end("snapshot_server", [a, b])
        # Set samples are 1000..1079 ns (mean 1039.5), Get samples 1000..1159 (mean 1079.5);
        # each kind was called 320 times over both processes: the Set store kept half.
        capacity = 640 / (320 * 1039.5 + 320 * 1079.5) * 1e9
        self.assertAlmostEqual(common["throughput_per_s"].value, capacity)
        self.assertEqual(common["throughput_per_s"].n, 640)

    def test_samples_are_assigned_to_their_threads(self):
        result = types.SimpleNamespace(phases={"measured": {
            "series": {"op": 5}, "series_threads": {"op": [2, 0, 3]}}})
        self.assertEqual(metrics.thread_of_samples(result, "measured", "op"), [0, 0, 2, 2, 2])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [
            (0, -1, "bench.round", 0, 100),
            (0, 0, "proc.fork", 10, 40),
            (0, 1, "core.copy", 10, 30),
            (0, 0, "mm.write", 50, 90),
            (0, 3, "mm.read", 60, 70),
        ]
        totals, root_ns = metrics.self_times(spans)
        self.assertEqual(totals, {"bench.round": 30, "proc.fork": 10, "core.copy": 20,
                                  "mm.write": 30, "mm.read": 10})
        self.assertEqual(root_ns, 100)
        self.assertEqual(sum(totals.values()), root_ns)
        layers = metrics.layer_self_times(totals)
        self.assertEqual(layers, {"bench": 30, "proc": 10, "core": 20, "mm": 40})

    def test_parent_indices_are_per_thread(self):
        spans = [
            (0, -1, "bench.round", 0, 50),
            (1, -1, "bench.round", 0, 80),
            (0, 0, "mm.write", 10, 20),
            (1, 0, "mm.write", 10, 70),
        ]
        totals, root_ns = metrics.self_times(spans)
        self.assertEqual(totals, {"bench.round": 40 + 20, "mm.write": 10 + 60})
        self.assertEqual(root_ns, 130)

    def test_window_clips_roots(self):
        spans = [(0, -1, "idle.wait", -20, 30), (0, -1, "bench.round", 30, 130)]
        _, covered = metrics.self_times(spans, (0, 100))
        self.assertEqual(covered, 100)


class CompareVerdictTest(unittest.TestCase):
    def test_within_bound(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [102, 103, 101, 102, 104, 100, 102, 103, 101, 102]
        self.assertEqual(compare.verdict(base, new, 0.1, "lower"), "within")

    def test_worse_beyond_bound(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [v * 1.2 for v in base]
        self.assertEqual(compare.verdict(base, new, 0.1, "lower"), "worse")
        self.assertEqual(compare.verdict(base, new, 0.1, "higher"), "better")

    def test_better_needs_nine_of_ten_paired_wins(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [v - 5 for v in base]
        self.assertEqual(compare.verdict(base, new, 0.1, "lower"), "better")
        new[0] = new[1] = 150  # Two lost pairs: 8/10 wins.
        self.assertEqual(compare.verdict(base, new, 0.5, "lower"), "within")

    def test_better_needs_change_beyond_base_spread(self):
        base = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
        new = [v - 1 for v in base]  # Wins every pair, but by far less than the spread.
        self.assertEqual(compare.verdict(base, new, 0.25, "lower"), "within")

    def test_wide_spread_is_unresolved(self):
        base = [100, 150, 60, 120, 80, 140, 70, 110, 90, 130]
        new = list(reversed(base))
        self.assertEqual(compare.verdict(base, new, 0.1, "lower"), "unresolved")
        far = [v / 10 for v in base]
        self.assertEqual(compare.verdict(base, far, 0.1, "lower"), "better")

    def test_loads_run_output(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.out")
            with open(path, "w") as f:
                f.write("# perfbench workload=classic_fork seed=7 seconds=10 trace=0 "
                        "processes=3\n# env {}\n")
                f.write(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
                    "fork_ms_p50": {"value": 1.5, "unit": "ms"}}}) + "\n")
            runs = compare.load_set(tmp)
        self.assertEqual(runs, {("classic_fork", 0): [(7, {"fork_ms_p50": 1.5})]})


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics run.py reports."""

    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.benchmark = json.load(f)

    def test_end_to_end_names(self):
        with tempfile.TemporaryDirectory() as tmp:
            result = write_worker(tmp, "a", attempted=10, failed=0)
            common, _ = metrics.end_to_end("classic_fork", [result])
        self.assertEqual([m["name"] for m in self.benchmark["end_to_end"]], list(common))
        for m in self.benchmark["end_to_end"]:
            self.assertEqual(m["unit"], common[m["name"]].unit)

    def test_per_layer_names(self):
        with tempfile.TemporaryDirectory() as tmp:
            result = write_worker(tmp, "t", attempted=10, failed=0, traced=True)
            layer = metrics.per_layer(result)
        self.assertEqual([m["name"] for m in self.benchmark["per_layer"]], list(layer))
        for m in self.benchmark["per_layer"]:
            self.assertEqual(m["unit"], layer[m["name"]].unit)


SERIES = ("fork", "exit", "wait", "op", "snapshot", "set", "get", "queue", "ref")
COUNTS = {"fork": 20, "exit": 20, "wait": 20, "op": 160, "set": 80, "get": 160, "ref": 80}
# Calls per series; the Set store is thinned to every second call.
SEEN = dict(COUNTS, set=160)


PHASE_NS = 2_000_000_000


def write_series(prefix, phase, name, count, slow_windows=(), slowdown=10):
    """`count` samples spread evenly over the phase; those falling in `slow_windows` read
    `slowdown` times slower. HostRef units take REF_NOMINAL_NS at full speed."""
    at = [i * PHASE_NS // count for i in range(count)]
    values = [(metrics.REF_NOMINAL_NS if name == "ref" else 1000 + i)
              * (slowdown if t // metrics.WINDOW_NS in slow_windows else 1)
              for i, t in enumerate(at)]
    for suffix, data in (("", values), (".at", at)):
        with open(f"{prefix}.{phase}.{name}{suffix}.u64", "wb") as f:
            array.array("Q", data).tofile(f)


def write_worker(directory, name, attempted, failed, traced=False, slow_windows=(), slowdown=10,
                 workload="classic_fork", ops=20, op_samples=COUNTS["op"]):
    """A minimal one-thread worker output: a 2 s phase with 20 forks, `ops` rounds timed by
    `op_samples` op samples, and a HostRef unit every 25 ms."""
    prefix = os.path.join(directory, name)
    phase_names = ("untraced", "traced") if traced else ("measured",)
    counts = dict(COUNTS, op=op_samples)
    phases = []
    for phase in phase_names:
        phases.append({
            "name": phase, "traced": phase == "traced", "wall_s": 2.0, "start_ns": 0,
            "end_ns": PHASE_NS, "threads": 1, "attempted": attempted, "failed": failed,
            "ops": ops, "writes": 160, "check_failures": {}, "scalars": {"offered_rate": 80.0},
            "vm": {"pgfault_cow_page": 160, "frames_allocated": 170},
            "series": {s: counts.get(s, 0) for s in SERIES},
            "series_threads": {s: [counts.get(s, 0)] for s in SERIES},
            "series_seen": {s: SEEN.get(s, 0) for s in SERIES},
            "fork_profile": {"forks": 20, "upper_level_ns": 1, "meta_resolve_ns": 2,
                             "refcount_ns": 3, "entry_copy_ns": 4, "table_alloc_ns": 5,
                             "total_ns": 20},
        })
        for series in SERIES:
            write_series(prefix, phase, series, counts.get(series, 0), slow_windows, slowdown)
    span_names = ["bench.round", "proc.fork", "core.copy"]
    doc = {
        "workload": workload, "seed": 1, "seconds": 2.0, "trace": traced, "env": {},
        "setup_s": 0.5, "populate_s": 0.1, "peak_rss_kib": 1024, "all_free_after_teardown": True,
        "gauges": {"rmap_locations": 1, "lru_pages": 1, "page_table_frames": 1,
                   "materialized_bytes": 4096, "mm_lock_wait_p99_us": 0.0,
                   "mm_lock_wait_count": 0, "direct_reclaim_probe_ms": 0.5},
        "span_names": span_names, "phases": phases,
    }
    with open(prefix + ".json", "w") as f:
        json.dump(doc, f)
    if traced:
        with open(prefix + ".spans.bin", "wb") as f:
            for record in ((0, 0, -1, 0, 0, 100), (1, 0, 0, 0, 10, 40), (2, 0, 1, 0, 10, 30)):
                f.write(struct.pack(metrics.SPAN_FORMAT, *record))
    return metrics.WorkerResult(prefix)


if __name__ == "__main__":
    unittest.main()
