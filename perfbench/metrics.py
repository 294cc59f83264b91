"""Metric arithmetic of the repository benchmark.

Pure functions over the raw records perfbench_measure prints, kept apart
from run.py so that perfbench/test_metrics.py can pin them down.
"""

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Outcome codes of one operation, as perfbench/measure.cc writes them.
OK, HTTP_ERROR, TRANSPORT, STATUS_ERROR, IDENTITY, REPLAY = range(6)


def valid_metric_name(name):
    return bool(METRIC_NAME.fullmatch(name)) and len(name) <= 64


def tail_percentile(samples, q, min_beyond=10):
    """The nearest-rank q-quantile of `samples`, or None when fewer than
    `min_beyond` samples lie beyond it: a tail figure is only reported when
    the run has enough samples past it, so it is never simply the maximum.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def samples_beyond(n, q):
    return n - max(1, math.ceil(q * n)) if n else 0


def error_share(codes):
    """Failed operations (any non-zero outcome code) over attempts."""
    return sum(1 for c in codes if c != OK) / len(codes) if codes else 1.0


def slo_share(latencies_ms, codes, limit_ms):
    """Operations that succeeded within `limit_ms`, over attempts. Failures
    and refusals count as misses whatever their latency."""
    if not codes:
        return 0.0
    met = sum(1 for ms, c in zip(latencies_ms, codes)
              if c == OK and ms <= limit_ms)
    return met / len(codes)


def middle_mean(values):
    """Mean of the middle half of `values` (the quarter lowest and the
    quarter highest left out). Set-up times switch between a fast and a
    slow level as the shared host's state changes; with the two levels
    near half and half, a median jumps from one to the other, while this
    moves with the share of each."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


# The timed phase is cut into this many equal windows; p50_ms, p90_ms,
# ops_per_s and cpu_ms_per_op are medians over the windows, so a burst of
# load from outside the benchmark that covers less than half the phase does
# not move them. slo_share and success_share count every operation.
WINDOWS = 10


def _cpu_at(cpu_samples, t_ms):
    """Process CPU seconds at `t_ms`, interpolated between samples."""
    prev_t, prev_cpu = cpu_samples[0]
    if t_ms <= prev_t:
        return prev_cpu
    for t, cpu in cpu_samples[1:]:
        if t >= t_ms:
            return prev_cpu + (cpu - prev_cpu) * (t_ms - prev_t) / (t - prev_t)
        prev_t, prev_cpu = t, cpu
    return prev_cpu


def windows(ops, cpu_samples, count=WINDOWS):
    """Per-window figures of a timed phase, cut into `count` equal windows
    by completion time: dicts of p50_ms and p90_ms (of successful
    operations; inf when none succeeded), ops_per_s (successful operations
    per second) and cpu_ms_per_op (process CPU per attempted operation)."""
    length = cpu_samples[-1][0] / count
    buckets = [[] for _ in range(count)]
    attempted = [0] * count
    for ms, code, end in zip(ops["latency_ms"], ops["code"], ops["end_ms"]):
        k = min(int(end / length), count - 1)
        attempted[k] += 1
        if code == OK:
            buckets[k].append(ms)
    out = []
    for k in range(count):
        cpu_s = (_cpu_at(cpu_samples, (k + 1) * length)
                 - _cpu_at(cpu_samples, k * length))
        good = sorted(buckets[k])
        out.append({
            "p50_ms": statistics.median(good) if good else math.inf,
            "p90_ms": (good[max(1, math.ceil(0.9 * len(good))) - 1]
                       if good else math.inf),
            "ops_per_s": 1000.0 * len(good) / length,
            "cpu_ms_per_op": (1000.0 * cpu_s / attempted[k]
                              if attempted[k] else math.inf),
        })
    return out


def end_to_end(raw, limit_ms):
    """The end-to-end metrics of one timed run, as {name: (value, unit)}.
    Also returns the figures printed beside them (not in the result)."""
    timed = raw["timed"]
    if timed.get("schedule_exhausted"):
        # The run stopped early, so it is shorter than the runs it is
        # compared with.
        raise ValueError("the event schedule ran out before the timed phase "
                         "ended")
    ops = timed["ops"]
    latencies = ops["latency_ms"]
    codes = ops["code"]
    good = [ms for ms, c in zip(latencies, codes) if c == OK]
    attempted = len(codes)
    if not good:
        raise ValueError("the run has no successful operation")
    if raw["kind"] == "http":
        out_bytes = statistics.fmean(ops["bytes"])
        bytes_label = "report_bytes"
    else:
        out_bytes = timed["journal_bytes"] / attempted
        bytes_label = "journal_bytes"
    per_window = windows(ops, timed["cpu_samples"])

    def window_median(name):
        return statistics.median(w[name] for w in per_window)

    metrics = {
        "p50_ms": (window_median("p50_ms"), "ms"),
        "p90_ms": (window_median("p90_ms"), "ms"),
        "ops_per_s": (window_median("ops_per_s"), "1/s"),
        "slo_share": (slo_share(latencies, codes, limit_ms), "share"),
        "success_share": (1.0 - error_share(codes), "share"),
        "cpu_ms_per_op": (window_median("cpu_ms_per_op"), "ms"),
        "peak_rss_mb": (statistics.median(timed["peak_rss_kb"]) / 1024.0,
                        "MB"),
        "setup_s": (middle_mean(timed["setup_s"]), "s"),
        "bytes_per_op": (out_bytes, "B"),
    }
    # p99 is printed (with its sample count) but not a gated metric: on a
    # shared 4-vCPU VM its run-to-run spread exceeds any usable bound.
    p99 = tail_percentile(good, 0.99)
    extra = {
        "p99_ms": p99 if p99 is not None else float("nan"),
        "error_share": error_share(codes),
        bytes_label: out_bytes,
        "samples": len(good),
        "p99_samples_beyond": samples_beyond(len(good), 0.99),
        "slo_limit_ms": limit_ms,
    }
    return metrics, extra


def _span_ms(spans, name):
    return {op: end - start for op, n, start, end in spans if n == name}


def _median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(raw):
    """The per-layer metrics of one traced run, as {name: (value, unit)}."""
    http, stream = raw["http"], raw["stream"]
    spans = http["spans"]
    layer = {name: _span_ms(spans, name) for name in (
        "net.rtt", "codec.decode", "router.solve", "service.solve",
        "codec.encode", "codec.dump")}
    rtt = layer["net.rtt"]
    server_side = ("codec.decode", "router.solve", "codec.encode",
                   "codec.dump")
    residual = [rtt[op] - sum(layer[s][op] for s in server_side)
                for op in rtt]
    c = http["counters"]
    executor_tasks = c["steals"] + c["local_hits"]
    lookups = c["cache_hits"] + c["cache_misses"]

    median = {name: _median_or_zero(values.values())
              for name, values in layer.items()}
    by_kind = {"stream.arrival": [], "stream.release": [],
               "stream.window": []}
    stream_traced = []
    for _, name, start, end in stream["spans"]:
        by_kind[name].append(end - start)
        stream_traced.append(end - start)
    s = stream["counters"]
    absorbed = s["delta_updates"] + s["rebuilds"]

    if raw["kind"] == "http":
        trace_overhead = (_median_or_zero(rtt.values())
                          - _median_or_zero(http["untraced_ms"]))
    else:
        trace_overhead = (_median_or_zero(stream_traced)
                          - _median_or_zero(stream["untraced_ms"]))
    return {
        "codec.decode_ms": (median["codec.decode"], "ms"),
        "codec.encode_ms": (median["codec.encode"], "ms"),
        "codec.dump_ms": (median["codec.dump"], "ms"),
        "router.solve_ms": (median["router.solve"], "ms"),
        "service.solve_ms": (median["service.solve"], "ms"),
        "router.overhead_ms": (median["router.solve"]
                               - median["service.solve"], "ms"),
        "executor.threads": (c["threads"], "count"),
        "executor.steal_share": (c["steals"] / executor_tasks
                                 if executor_tasks else 0.0, "share"),
        "service.cache_hit_share": (c["cache_hits"] / lookups
                                    if lookups else 0.0, "share"),
        "service.cache_lookups_per_op": (lookups / c["ops"], "count"),
        "service.cold_solve_ms": (
            _median_or_zero(http["cold_minus_warm_ms"]), "ms"),
        "net.rtt_ms": (median["net.rtt"], "ms"),
        "net.residual_ms": (_median_or_zero(residual), "ms"),
        "net.bytes_per_op": (statistics.fmean(http["bytes"]), "B"),
        "stream.arrival_ms": (_median_or_zero(by_kind["stream.arrival"]),
                              "ms"),
        "stream.release_ms": (_median_or_zero(by_kind["stream.release"]),
                              "ms"),
        # Window changes are a mix of delta updates (microseconds) and
        # re-estimations; the mean weighs both as a session pays them.
        "stream.window_ms": (statistics.fmean(by_kind["stream.window"])
                             if by_kind["stream.window"] else 0.0, "ms"),
        "stream.delta_share": (s["delta_updates"] / absorbed
                               if absorbed else 0.0, "share"),
        "stream.admit_share": (s["admitted"] / s["arrivals"]
                               if s["arrivals"] else 0.0, "share"),
        "journal.overhead_ms": (statistics.fmean(stream["untraced_ms"])
                                - statistics.fmean(stream["unjournaled_ms"]),
                                "ms"),
        "journal.bytes_per_event": (s["journal_bytes"] / s["events"], "B"),
        "trace.overhead_ms": (trace_overhead, "ms"),
    }
