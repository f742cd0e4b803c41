"""Turns the perfbench binary's raw record into the metrics of BENCHMARK.json.

The binary measures; this module only computes. Every function here is
pure, so test_metrics.py can pin the rules: percentile choice, flip bands,
failure accounting and metric naming.
"""

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Percentiles considered for a latency tail, highest first. A percentile
# qualifies when at least MIN_BEYOND samples lie above it.
TAIL_LADDER = (0.99, 0.95, 0.9, 0.75, 0.5)
MIN_BEYOND = 10

# Flip-count bands of the per-trial replay time (inclusive bounds).
FLIP_BANDS = (("flips_0", 0, 0), ("flips_1-8", 1, 8), ("flips_9-64", 9, 64),
              ("flips_65-", 65, None))

POLICIES = ("direct", "winograd2")


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Linear-interpolated q-quantile of the samples (0 when empty)."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(n, q):
    """Samples above the q-quantile of n samples: the top n * (1 - q)."""
    return int(n * (1 - q) + 1e-9) if n > 0 else 0


def tail_quantile(n):
    """Highest percentile of TAIL_LADDER with MIN_BEYOND samples beyond it,
    or None when even the median has fewer."""
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def flip_band(flips):
    for name, lo, hi in FLIP_BANDS:
        if flips >= lo and (hi is None or flips <= hi):
            return name
    raise ValueError("negative flip count: %r" % flips)


def replay_by_band(replay_us, replay_flips):
    """Median replay microseconds per flip band (0 for an empty band)."""
    bands = {name: [] for name, _, _ in FLIP_BANDS}
    for us, flips in zip(replay_us, replay_flips):
        bands[flip_band(int(flips))].append(us)
    return {name: median(v) for name, v in bands.items()}


def failed_frac(attempted, failed):
    """Share of attempted operations that failed, were refused or differed
    from their reference. Nothing attempted counts as total failure."""
    if attempted <= 0:
        return 1.0
    return min(failed, attempted) / attempted


def rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def effective_latencies(values, ok, whole_run):
    """Per-operation costs where a failed operation counts as having taken
    the whole run, so it misses every percentile."""
    return [v if good else max(whole_run, v) for v, good in zip(values, ok)]


def _operation_figures(ms, ok, whole_run_ms, inferences, setup_s, prefix):
    costs = effective_latencies(ms, ok, whole_run_ms)
    busy_s = sum(ms) / 1e3
    return {
        prefix + "setup_s": median(setup_s),
        prefix + "inferences_per_s": rate(sum(inferences), busy_s),
        prefix + "submits_per_s": rate(len(ms), busy_s),
        prefix + "submit_p50_ms": median(costs),
        prefix + "submit_p95_ms": percentile(costs, 0.95),
    }


def end_to_end(raw):
    """The untraced metrics, in wall-clock time as a user sees them; every
    workload reports all of them. A submission is one operation: a daemon
    submission, a campaign run (deep) or a sharded run (shards)."""
    out = _operation_figures(raw["op.ms"], raw["op.ok"],
                             raw["op.wall_s"] * 1e3, raw["op.inferences"],
                             raw["setup.wall_s"], "")
    out["peak_rss_mb"] = raw["peak_rss_mb"]
    return out


def cpu_time(raw):
    """The same figures in CPU seconds of the workload process and its
    shard processes, which a co-tenant stealing cores does not inflate but
    idle cores do not show in (reported with the per-layer metrics)."""
    cpu_ms = [c * 1e3 for c in raw["op.cpu_s"]]
    return _operation_figures(cpu_ms, raw["op.ok"], sum(cpu_ms),
                              raw["op.inferences"], raw["setup.cpu_s"],
                              "cpu.")


def _by_kind(ms, kinds, kind):
    return [v for v, k in zip(ms, kinds) if k == kind]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw):
    """The traced metrics. A layer the workload does not exercise reads 0."""
    get = raw.get
    out = cpu_time(raw)
    for policy in POLICIES:
        out["nn.golden_build_us." + policy] = median(
            get("trace.golden_us." + policy, []))
        out["conv.golden_gops." + policy] = median(
            get("trace.golden_gops." + policy, []))
    busy = get("trace.busy_us", 0.0)
    out["nn.golden_share"] = _ratio(get("trace.golden_total_us", 0.0), busy)
    out["nn.replay_share"] = _ratio(get("trace.replay_total_us", 0.0), busy)
    replay_us = get("trace.replay_us", [])
    flips = get("trace.replay_flips", [])
    for band, value in replay_by_band(replay_us, flips).items():
        out["nn.replay_us." + band] = value
    out["fault.plan_us"] = median(get("trace.plan_us", []))
    out["fault.flips_per_trial"] = _ratio(sum(flips), len(flips))
    out["nn.replay_skip_frac"] = _ratio(sum(1 for f in flips if f == 0),
                                        len(flips))
    out["nn.masked_frac"] = _ratio(get("trace.masked_trials", 0.0),
                                   get("trace.faulted_trials", 0.0))
    builds = get("trace.campaign.golden_builds", [])
    out["campaign.golden_builds"] = median(builds)
    out["campaign.golden_builds_range"] = (max(builds) - min(builds)
                                           if builds else 0.0)
    out["campaign.golden_hits"] = median(get("trace.campaign.golden_hits", []))
    out["campaign.golden_evictions"] = median(
        get("trace.campaign.golden_evictions", []))
    out["pool.idle_frac"] = _ratio(
        get("pool.idle_us", 0.0),
        get("pool.wall_s", 0.0) * 1e6 * get("pool.workers", 0.0))
    out.update(service_split(raw))
    for name in ("worker_setup_s", "exec_s", "merge_s", "buckets_stolen",
                 "cells_healed"):
        out["dist." + name] = median(get("trace.dist." + name, []))
    single = get("trace.dist.single_s", [])
    sharded_s = median(raw["op.ms"] + get("trace.op.ms", [])) / 1e3
    out["dist.speedup_vs_single"] = _ratio(median(single), sharded_s)
    traced_ms = get("trace.op.ms", [])
    out["trace_overhead_frac"] = (
        _ratio(statistics.fmean(traced_ms), statistics.fmean(raw["op.ms"]))
        - 1.0 if traced_ms and raw["op.ms"] else 0.0)
    out["failed_frac"] = failed_frac(raw["attempted"], raw["failed"])
    n = len(raw["op.ms"])
    out["op_samples"] = float(n)
    out["op_tail_q"] = tail_quantile(n) or 0.0
    return out


def service_split(raw):
    """Daemon latency by kind, split into store and service shares: the
    traced daemon submissions, the same stream in-process with the store
    (inproc) and every distinct spec in-process without it (plain)."""
    get = raw.get
    kinds = get("trace.op.kind", [])
    fresh = median(_by_kind(get("trace.op.ms", []), kinds, "fresh"))
    stored = median(_by_kind(get("trace.op.ms", []), kinds, "stored"))
    inproc_kinds = get("trace.inproc.kind", [])
    inproc_fresh = median(_by_kind(get("trace.inproc.ms", []), inproc_kinds,
                                   "fresh"))
    inproc_stored = median(_by_kind(get("trace.inproc.ms", []), inproc_kinds,
                                    "stored"))
    return {
        "service.fresh_submit_ms": fresh,
        "service.stored_submit_ms": stored,
        "service.overhead_ms": fresh - inproc_fresh,
        "service.queue_ms": get("trace.service.queue_ms", 0.0),
        "store.overhead_ms": inproc_fresh - median(get("trace.plain.ms", [])),
        "store.read_ms": inproc_stored,
        "store.journal_appends": get("trace.store.journal_appends", 0.0),
        "store.journal_bytes": get("trace.store.journal_bytes", 0.0),
    }


def spec_names(spec, section):
    return [m["name"] for m in spec[section]]


def check_names(metrics, spec, section):
    """Problems with `metrics` against BENCHMARK.json's `section`: every
    declared name printed, nothing undeclared, every name well formed."""
    declared = spec_names(spec, section)
    problems = ["malformed metric name %r" % n for n in metrics
                if not NAME_RE.match(n)]
    problems += ["missing metric %r" % n for n in declared if n not in metrics]
    problems += ["undeclared metric %r" % n for n in metrics
                 if n not in declared]
    return problems


def result_line(raw, spec, trace):
    """The final JSON object printed by run.py."""
    section = "per_layer" if trace else "end_to_end"
    values = per_layer(raw) if trace else end_to_end(raw)
    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in spec_names(spec, section) if name in values}
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
