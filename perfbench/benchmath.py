"""Arithmetic of the end-to-end benchmark, kept free of I/O so
test_benchmath.py can pin it: percentiles over raw samples, the log-log
scaling fit, host-speed probe windows, span self times, and parsing of the
daemon's HTTP plane.
"""

import bisect
import json
import math
import statistics


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of raw samples, and how
    many samples lie strictly beyond the rank it picks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values):
    return statistics.median(values)


def probe_near(probe_at, probe_ms, start, end, window):
    """Median of the probes taken within `window` seconds of the interval
    [start, end]; `probe_at` holds the probes' times in ascending order. With
    no probe that near, the median of all probes."""
    lo = bisect.bisect_left(probe_at, start - window)
    hi = bisect.bisect_right(probe_at, end + window)
    return statistics.median(probe_ms[lo:hi] or probe_ms)


def loglog_slope(points):
    """Least-squares slope of log(y) against log(x) over (x, y) points:
    the exponent k of y ~ x^k."""
    if len(points) < 2:
        raise ValueError("a slope needs at least two points")
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("a slope needs two distinct sizes")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover. `spans` holds (name, start, end, parent,
    item) tuples; parent is an index into `spans` or -1."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_table(spans, roots=("item", "replay")):
    """Per span name: count, total and self time (in span units). The self
    time of the root spans is reported as `other`, so the self times of all
    rows add up to the total of the spans without a parent."""
    selfs = self_times(spans)
    table = {}
    for span, own in zip(spans, selfs):
        name = "other" if span[0] in roots else span[0]
        row = table.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += span[2] - span[1]
        row["self"] += own
    return table


def parse_requests(text):
    """Records of `GET /requests?n=K`, newest first, as dicts with the
    numeric fields converted to int."""
    doc = json.loads(text)
    out = []
    for rec in doc["requests"]:
        out.append({
            "id": int(rec["id"]),
            "kind": rec["kind"],
            "status": rec["status"],
            "target": rec["target"],
            "bytes_in": int(rec["bytes-in"]),
            "queue_us": int(rec["queue-us"]),
            "wall_us": int(rec["wall-us"]),
        })
    return out


def parse_stat_counters(text):
    """`pdgc_stat_total{stat="group.name"} V` lines of `GET /metrics`."""
    out = {}
    prefix = 'pdgc_stat_total{stat="'
    for line in text.splitlines():
        if line.startswith(prefix):
            key, _, rest = line[len(prefix):].partition('"}')
            out[key] = int(float(rest.strip()))
    return out


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives
    the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")
