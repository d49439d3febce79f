"""Turns the worker's raw results into the benchmark's metrics (stdlib only).

The worker (perfbench/worker) writes, per process, a JSON document plus one little-endian
u64 file of nanosecond samples per series and, when traced, a binary span array. This module
holds the arithmetic run.py applies to them and the tests check: percentiles with the
ten-samples-beyond rule, failed-operation accounting, host-speed scaling and span self time.
"""

import array
import json
import math
import statistics
import struct

# Percentiles are reported only when at least this many samples lie beyond them.
MIN_BEYOND = 10

# End-to-end timings are scaled to a nominal host speed. The host this benchmark runs on is
# shared, and each core's speed for memory-bound work drifts by up to 1.6x over seconds, with
# the library's calls and the worker's HostRef unit slowed alike. Every load thread runs a
# HostRef unit every 2 ms between its operations (the "ref" series); each measured phase is
# cut into windows of WINDOW_S, and a sample a thread took in a window is scaled by how much
# slower than nominal that thread's HostRef units ran in the same window (REF_EXPONENT says
# how strongly). A library change leaves HostRef alone, so it moves the scaled figures as
# much as the raw ones.
WINDOW_S = 0.25
WINDOW_NS = int(WINDOW_S * 1e9)
# About what one HostRef unit takes on a 4-vCPU Xeon in its fast state, so that scaled times
# read close to wall-clock times there.
REF_NOMINAL_NS = 100_000
# How strongly each workload's operation times follow the HostRef unit: samples are scaled by
# (REF_NOMINAL_NS / unit median) ** exponent. Fitted on the host above by regressing the log
# of each window's operation medians on the log of its unit median, and checked against the
# spread of whole runs: classic fork and exit are memory-bound as the unit is; the others
# spend part of their time in work the slow state does not touch (short accesses, locks,
# waits), and the server's request latency includes its idle wait.
REF_EXPONENT = {"classic_fork": 1.0, "odf_fault_storm": 0.6, "snapshot_server": 0.5,
                "reclaim_pressure": 0.6}

# struct layout of perfbench::SpanRecord (harness.h): name u16, thread u16, parent i32,
# round u64, start_ns i64, end_ns i64.
SPAN_FORMAT = "<HHiQqq"

# Built-in vmstat counters that count a page fault of some kind (the per-fault denominator).
FAULT_COUNTERS = ("pgfault_demand_zero", "pgfault_file", "pgfault_cow_page", "pgfault_cow_huge",
                  "pgfault_cow_reuse", "pgfault_swap_in")


def samples_beyond(n, p):
    """Number of samples strictly above the p-th percentile of n samples (nearest rank)."""
    return n - rank(n, p)


def rank(n, p):
    """1-based nearest-rank position of the p-th percentile among n samples."""
    # Rounded first so that e.g. 99.9 % of 10000 is 9990, not 9990.000000000002.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(sorted_values, p):
    """Nearest-rank p-th percentile of an ascending list, or None when fewer than
    MIN_BEYOND samples lie beyond it (the median needs only one sample)."""
    n = len(sorted_values)
    if n == 0:
        return None
    if p > 50 and samples_beyond(n, p) < MIN_BEYOND:
        return None
    return sorted_values[rank(n, p) - 1]


def failed_frac(attempted, failed):
    """Share of attempted operations that failed."""
    if attempted < 1 or failed < 0 or failed > attempted:
        raise ValueError(f"bad operation counts: attempted={attempted} failed={failed}")
    return failed / attempted


def self_times(spans, window=None):
    """Self time per span name, in ns, and the total of root spans (clipped to the
    (start_ns, end_ns) `window` when one is given).

    `spans` is a list of (thread, parent, name, start_ns, end_ns) in recording order, where
    `parent` indexes the same thread's spans (in order of appearance) or is -1 for a root.
    A span's self time is its duration minus the durations of its direct children; children
    nest inside their parent and do not overlap each other.
    """
    per_thread = {}
    for span in spans:
        per_thread.setdefault(span[0], []).append(span)
    totals = {}
    root_ns = 0
    for thread_spans in per_thread.values():
        child_ns = [0] * len(thread_spans)
        for _, parent, _, start, end in thread_spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (_, parent, name, start, end) in enumerate(thread_spans):
            duration = end - start
            totals[name] = totals.get(name, 0) + duration - child_ns[i]
            if parent < 0:
                if window is not None:
                    start, end = max(start, window[0]), min(end, window[1])
                root_ns += max(0, end - start)
    return totals, root_ns


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def layer_self_times(name_totals):
    layers = {}
    for name, ns in name_totals.items():
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0) + ns
    return layers


def read_series(prefix, phase, series):
    values = array.array("Q")
    path = f"{prefix}.{phase}.{series}.u64"
    with open(path, "rb") as f:
        values.frombytes(f.read())
    return values


def read_spans(prefix, span_names):
    """Spans as (thread, parent, name, start_ns, end_ns) tuples, recording order kept."""
    with open(prefix + ".spans.bin", "rb") as f:
        data = f.read()
    return [(thread, parent, span_names[name], start, end)
            for name, thread, parent, _, start, end in struct.iter_unpack(SPAN_FORMAT, data)]


class WorkerResult:
    """One worker process's output."""

    def __init__(self, prefix):
        self.prefix = prefix
        with open(prefix + ".json") as f:
            self.doc = json.load(f)
        self.phases = {p["name"]: p for p in self.doc["phases"]}
        self.window_cache = {}

    def series(self, phase, name):
        return read_series(self.prefix, phase, name)

    def series_at(self, phase, name):
        return read_series(self.prefix, phase, name + ".at")

    def spans(self):
        return read_spans(self.prefix, self.doc["span_names"])

    def check_failures(self):
        failures = {}
        for phase in self.phases.values():
            for name, count in phase["check_failures"].items():
                failures[name] = failures.get(name, 0) + count
        if not self.doc["all_free_after_teardown"]:
            failures["all_free_after_teardown"] = 1
        return failures

    def counts(self):
        attempted = sum(p["attempted"] for p in self.phases.values())
        failed = sum(p["failed"] for p in self.phases.values())
        return attempted, failed


def thread_of_samples(result, phase, name):
    """The load thread of each sample of one series, in file order."""
    counts = result.phases[phase].get("series_threads", {}).get(name)
    if counts is None:
        counts = [result.phases[phase]["series"][name]]
    return [t for t, n in enumerate(counts) for _ in range(n)]


def windows(result, phase, name):
    """{(thread, window index): sorted samples} for one series: the phase cut into WINDOW_S
    slices by each sample's timestamp (a trailing partial window is dropped)."""
    key = (phase, name)
    if key not in result.window_cache:
        ph = result.phases[phase]
        start = ph["start_ns"]
        count = int((ph["end_ns"] - start) // WINDOW_NS)
        by_window = {}
        for value, at, thread in zip(result.series(phase, name), result.series_at(phase, name),
                                     thread_of_samples(result, phase, name)):
            index = (at - start) // WINDOW_NS
            if 0 <= index < count:
                by_window.setdefault((thread, index), []).append(value)
        for values in by_window.values():
            values.sort()
        result.window_cache[key] = by_window
    return result.window_cache[key]


def speed_factors(result, phase):
    """{(thread, window index): REF_NOMINAL_NS / median HostRef unit}, with each thread's
    whole-phase median under the key (thread, None) for windows it ran no unit in."""
    exponent = REF_EXPONENT[result.doc["workload"]]
    factors = {}
    per_thread = {}
    for (thread, index), values in windows(result, phase, "ref").items():
        factors[(thread, index)] = (REF_NOMINAL_NS / statistics.median(values)) ** exponent
        per_thread.setdefault(thread, []).extend(values)
    for thread, values in per_thread.items():
        factors[(thread, None)] = (REF_NOMINAL_NS / statistics.median(values)) ** exponent
    return factors


def factor_for(factors, thread, index):
    return factors.get((thread, index)) or factors.get((thread, None)) or 1.0


def pooled(results, phase, name):
    """Samples of one series from every process, each scaled to the nominal host speed,
    ascending."""
    values = []
    for result in results:
        factors = speed_factors(result, phase)
        for (thread, index), samples in windows(result, phase, name).items():
            factor = factor_for(factors, thread, index)
            values.extend(v * factor for v in samples)
    values.sort()
    return values


def scaled_throughput(results, phase, ops_per_sample):
    """Units of work per second at the nominal host speed: each op sample stands for
    `ops_per_sample` units and counts as done in 1/factor of the time it took."""
    done = 0.0
    wall_ns = 0
    for result in results:
        factors = speed_factors(result, phase)
        ph = result.phases[phase]
        wall_ns += (ph["end_ns"] - ph["start_ns"]) // WINDOW_NS * WINDOW_NS
        for (thread, index), samples in windows(result, phase, "op").items():
            done += len(samples) * ops_per_sample / factor_for(factors, thread, index)
    return done / wall_ns * 1e9


def scaled(value, divisor):
    return None if value is None else value / divisor


class Metric:
    """A computed metric: value (None when the percentile rule withholds it), unit and the
    number of samples it was computed from."""

    def __init__(self, value, unit, n):
        self.value = value
        self.unit = unit
        self.n = n

    def as_json(self):
        return {"value": self.value, "unit": self.unit, "n": self.n}


def latency(values, p, divisor, unit):
    return Metric(scaled(percentile(values, p), divisor), unit, len(values))


def service_capacity(results, phase):
    """Requests per second of the server's own work: requests served divided by their
    summed Set and Get service time, with the mean service time of each kind taken from the
    scaled samples and weighted by how many requests of that kind were served."""
    served = busy_ns = 0
    for name in ("set", "get"):
        samples = pooled(results, phase, name)
        calls = sum(r.phases[phase]["series_seen"][name] for r in results)
        if not samples:
            return Metric(None, "1/s", calls)
        busy_ns += calls * statistics.fmean(samples)
        served += calls
    return Metric(served / busy_ns * 1e9, "1/s", served)


def end_to_end(workload, results, phase="measured"):
    """The benchmark's end-to-end metrics and the workload-named details, from the measured
    phase of one or more worker processes (samples scaled to the nominal host speed and
    pooled across processes)."""
    fork = pooled(results, phase, "fork")
    exits = pooled(results, phase, "exit")
    ops = pooled(results, phase, "op")
    # A full sample store keeps an even share of its samples, so each kept op sample stands
    # for ops / kept units of the workload's throughput unit.
    ops_total = sum(r.phases[phase]["ops"] for r in results)
    ops_per_sample = ops_total / max(1, sum(r.phases[phase]["series"]["op"] for r in results))
    setups = [r.doc["setup_s"] for r in results]
    rss = [r.doc["peak_rss_kib"] / 1024.0 for r in results]
    attempted = sum(r.phases[phase]["attempted"] for r in results)
    failed = sum(r.phases[phase]["failed"] for r in results)
    completed = Metric(scaled_throughput(results, phase, ops_per_sample), "1/s", ops_total)
    common = {
        "setup_s": Metric(statistics.median(setups), "s", len(setups)),
        "fork_ms_p50": latency(fork, 50, 1e6, "ms"),
        "op_us_p50": latency(ops, 50, 1e3, "us"),
        # The open loop completes the offered rate whatever the server costs, so there the
        # throughput is the server's capacity.
        "throughput_per_s": (service_capacity(results, phase)
                             if workload == "snapshot_server" else completed),
        "peak_rss_mb": Metric(statistics.median(rss), "MiB", len(rss)),
    }
    detail = {
        "setup_s": common["setup_s"],
        "fork_ms_p50": common["fork_ms_p50"],
        "failed_frac": Metric(failed_frac(attempted, failed), "failed/attempted", attempted),
        "peak_rss_mb": common["peak_rss_mb"],
    }
    if workload in ("classic_fork", "odf_fault_storm"):
        detail["fork_ms_p99"] = latency(fork, 99, 1e6, "ms")
        detail["exit_ms_p50"] = latency(exits, 50, 1e6, "ms")
        detail["first_write_us_p50"] = common["op_us_p50"]
        detail["first_write_us_p99"] = latency(ops, 99, 1e3, "us")
    if workload == "classic_fork":
        detail["rounds_per_s"] = common["throughput_per_s"]
    if workload == "odf_fault_storm":
        detail["faults_per_s"] = common["throughput_per_s"]
    if workload == "snapshot_server":
        detail["request_us_p50"] = common["op_us_p50"]
        detail["request_us_p99"] = latency(ops, 99, 1e3, "us")
        detail["request_us_p999"] = latency(ops, 99.9, 1e3, "us")
        detail["snapshot_ms_p50"] = latency(pooled(results, phase, "snapshot"), 50, 1e6, "ms")
        detail["capacity_per_s"] = common["throughput_per_s"]
        detail["requests_per_s"] = completed
        rates = [r.phases[phase]["scalars"]["offered_rate"] for r in results]
        detail["offered_rate"] = Metric(rates[0], "1/s", len(rates))
    if workload == "reclaim_pressure":
        detail["accesses_per_s"] = common["throughput_per_s"]
        detail["access_us_p99"] = latency(ops, 99, 1e3, "us")
    detail["ref_us_p50"] = latency(sorted(v for r in results for v in r.series(phase, "ref")),
                                   50, 1e3, "us")
    return common, detail


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _or_zero(value):
    return 0.0 if value is None else value


def per_layer(result):
    """Per-layer metrics from a traced worker run (its "traced" phase; the "untraced" phase
    of the same process gives the tracing overhead). Every metric is present on every
    workload; a layer the workload does not exercise reads 0, as does a percentile with
    too few samples beyond it."""
    doc = result.doc
    traced = result.phases["traced"]
    untraced = result.phases["untraced"]
    vm = traced["vm"]
    gauges = doc["gauges"]
    profile = traced["fork_profile"]
    forks = max(profile["forks"], 1)
    writes = traced["writes"]
    faults = sum(vm.get(c, 0) for c in FAULT_COUNTERS)

    spans = result.spans()
    durations = {}
    for _, _, name, start, end in spans:
        durations.setdefault(name, []).append(end - start)
    for values in durations.values():
        values.sort()

    def span_pct(name, p, divisor):
        return _or_zero(scaled(percentile(durations.get(name, []), p), divisor))

    def series_pct(name, p, divisor):
        return _or_zero(scaled(percentile(sorted(result.series("traced", name)), p), divisor))

    name_totals, _ = self_times(spans)
    layers = layer_self_times(name_totals)
    self_ns = sum(name_totals.values())
    _, covered_ns = self_times(spans, (traced["start_ns"], traced["end_ns"]))
    window_ns = (traced["end_ns"] - traced["start_ns"]) * traced["threads"]
    attributed = sum(profile[k] for k in ("upper_level_ns", "meta_resolve_ns", "refcount_ns",
                                          "entry_copy_ns", "table_alloc_ns"))
    fork_samples = result.series("traced", "fork")
    fork_mean_ns = statistics.fmean(fork_samples) if fork_samples else 0.0
    # Scaled to the nominal host speed, so that the host's state does not pass for overhead.
    op_traced = percentile(pooled([result], "traced", "op"), 50)
    op_untraced = percentile(pooled([result], "untraced", "op"), 50)
    attempted, failed = traced["attempted"], traced["failed"]
    per_1k = lambda counter: _ratio(vm.get(counter, 0) * 1000.0, writes)
    cow = vm.get("pgfault_cow_page", 0)
    reuse = vm.get("pgfault_cow_reuse", 0)

    m = {
        "core.fork_pte_entries_copied": (vm.get("fork_pte_entries_copied", 0), "count"),
        "core.fork_pte_tables_shared": (vm.get("pte_tables_shared", 0), "count"),
        "core.phase_upper_level_ms": (profile["upper_level_ns"] / forks / 1e6, "ms"),
        "core.phase_meta_resolve_ms": (profile["meta_resolve_ns"] / forks / 1e6, "ms"),
        "core.phase_refcount_ms": (profile["refcount_ns"] / forks / 1e6, "ms"),
        "core.phase_entry_copy_ms": (profile["entry_copy_ns"] / forks / 1e6, "ms"),
        "core.phase_table_alloc_ms": (profile["table_alloc_ns"] / forks / 1e6, "ms"),
        "core.phase_unattributed_ms": ((profile["total_ns"] - attributed) / forks / 1e6, "ms"),
        "core.fork_rollback": (vm.get("fork_rollback", 0), "count"),
        "core.fork_degrade_classic": (vm.get("fork_degrade_classic", 0), "count"),
        "proc.exit_ms": (series_pct("exit", 50, 1e6), "ms"),
        "proc.wait_us": (series_pct("wait", 50, 1e3), "us"),
        "proc.fork_outside_copy_ms": ((fork_mean_ns - profile["total_ns"] / forks) / 1e6, "ms"),
        "mm.pgfault_cow_page": (per_1k("pgfault_cow_page"), "1/1k_writes"),
        "mm.pgfault_cow_reuse": (per_1k("pgfault_cow_reuse"), "1/1k_writes"),
        "mm.pgfault_demand_zero": (per_1k("pgfault_demand_zero"), "1/1k_writes"),
        "mm.pgfault_swap_in": (per_1k("pgfault_swap_in"), "1/1k_writes"),
        "mm.pte_table_cow": (per_1k("pte_table_cow"), "1/1k_writes"),
        "mm.pte_table_fixup": (per_1k("pte_table_fixup"), "1/1k_writes"),
        "mm.cow_reuse_ratio": (_ratio(reuse, reuse + cow), "ratio"),
        "mm.write_us_p50": (span_pct("mm.write", 50, 1e3), "us"),
        "mm.write_us_p99": (span_pct("mm.write", 99, 1e3), "us"),
        "mm.read_us_p50": (span_pct("mm.read", 50, 1e3), "us"),
        "mm.read_us_p99": (span_pct("mm.read", 99, 1e3), "us"),
        "mm.populate_s": (doc["populate_s"], "s"),
        "mm.pgfault_oom": (vm.get("pgfault_oom", 0), "count"),
        "mm.pgfault_retry_exhausted": (vm.get("pgfault_retry_exhausted", 0), "count"),
        "pt.lock_contended": (vm.get("lock_contended", 0), "count"),
        "pt.mm_lock_wait_us_p99": (gauges["mm_lock_wait_p99_us"]
                                   if samples_beyond(gauges["mm_lock_wait_count"], 99) >= MIN_BEYOND
                                   else 0.0, "us"),
        "pt.tlb_flushes": (vm.get("tlb_flushes", 0), "count"),
        "pt.tlb_shootdowns": (vm.get("tlb_shootdowns", 0), "count"),
        "pt.page_table_frames": (gauges["page_table_frames"], "count"),
        "phys.frames_allocated": (_ratio(vm.get("frames_allocated", 0), faults), "1/fault"),
        "phys.frames_freed": (_ratio(vm.get("frames_freed", 0), faults), "1/fault"),
        "phys.pcp_hit_ratio": (_ratio(vm.get("pcp_hit", 0),
                                      vm.get("pcp_hit", 0) + vm.get("pcp_miss", 0)), "ratio"),
        "phys.pcp_refill": (vm.get("pcp_refill", 0), "count"),
        "phys.pcp_drain": (vm.get("pcp_drain", 0), "count"),
        "phys.batch_free": (vm.get("batch_free", 0), "count"),
        "phys.materialized_mb": (gauges["materialized_bytes"] / 2**20, "MiB"),
        "reclaim.rmap_locations": (gauges["rmap_locations"], "count"),
        "reclaim.lru_pages": (gauges["lru_pages"], "count"),
        "reclaim.pgscan": (vm.get("pgscan", 0), "count"),
        "reclaim.pgsteal": (vm.get("pgsteal", 0), "count"),
        "reclaim.steal_ratio": (_ratio(vm.get("pgsteal", 0), vm.get("pgscan", 0)), "ratio"),
        "reclaim.pgrefault": (vm.get("pgrefault", 0), "count"),
        "reclaim.pgactivate": (vm.get("pgactivate", 0), "count"),
        "reclaim.pgdeactivate": (vm.get("pgdeactivate", 0), "count"),
        "reclaim.kswapd_wake": (vm.get("kswapd_wake", 0), "count"),
        "reclaim.direct_reclaim": (vm.get("direct_reclaim", 0), "count"),
        "reclaim.swap_reads": (vm.get("swap_reads", 0), "count"),
        "reclaim.swap_writes": (vm.get("swap_writes", 0), "count"),
        "reclaim.swap_io_errors": (vm.get("swap_io_errors", 0), "count"),
        "reclaim.direct_reclaim_ms": (gauges["direct_reclaim_probe_ms"], "ms"),
        "reclaim.oom_kills": (vm.get("oom_kills", 0), "count"),
        "apps.set_us_p50": (series_pct("set", 50, 1e3), "us"),
        "apps.set_us_p99": (series_pct("set", 99, 1e3), "us"),
        "apps.get_us_p50": (series_pct("get", 50, 1e3), "us"),
        "apps.get_us_p99": (series_pct("get", 99, 1e3), "us"),
        "apps.queue_us_p99": (series_pct("queue", 99, 1e3), "us"),
        "apps.save_ms": (series_pct("snapshot", 50, 1e6), "ms"),
        "apps.snapshots_skipped": (traced["scalars"].get("snapshots_skipped", 0), "count"),
        "apps.generator_lag_ms_max": (traced["scalars"].get("generator_lag_ms_max", 0), "ms"),
        "bench.tracing_overhead_frac": (_ratio(op_traced - op_untraced, op_untraced)
                                        if op_traced and op_untraced else 0.0, "ratio"),
        "bench.failed_frac": (failed_frac(attempted, failed) if attempted else 0.0, "ratio"),
        "bench.span_coverage": (_ratio(covered_ns, window_ns), "ratio"),
    }
    for layer in ("bench", "idle", "proc", "core", "mm", "apps"):
        m[f"self.{layer}_frac"] = (_ratio(layers.get(layer, 0), self_ns), "ratio")
    return {name: Metric(float(value), unit, None) for name, (value, unit) in m.items()}
