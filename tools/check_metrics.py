#!/usr/bin/env python3
"""Validate pdgc-serve's /metrics output as Prometheus text exposition 0.0.4.

Two modes, both used by tools/serve_smoke.sh:

  check_metrics.py SCRAPE            validate one scrape file
  check_metrics.py SCRAPE1 SCRAPE2   additionally check counter monotonicity
                                     between two scrapes of the same process
                                     (SCRAPE1 taken first)

What "valid" means here, in the order it is checked:

  * Every non-comment line parses as `name{labels} value` or `name value`,
    with a float value (Prometheus accepts NaN; we forbid it — no pdgc
    metric is ever NaN).
  * Every sample's family (the name minus `_sum`/`_count`/`_total` etc. is
    NOT stripped — the family is what the preceding # TYPE names) was
    declared by a `# TYPE` line earlier in the file: untyped samples are
    how scrapes silently rot.
  * Declared types are limited to counter | gauge | summary.
  * The families this repo promises are present: pdgc_stat_total,
    pdgc_request_latency_microseconds, and the liveness gauges.
  * Summary quantiles are ordered: q0.5 <= q0.9 <= q0.99, and _count *
    q-values are consistent (all zero when _count is zero).
  * With two scrapes: every counter sample present in both must not
    decrease, and pdgc_server_uptime_seconds must not go backwards.

Exit 0 on success; exit 1 with one line per violation on stderr.
"""

import re
import sys

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+"
    r"([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|NaN|[-+]?Inf)$"
)
TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary)$")
HELP_RE = re.compile(r"^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$")

REQUIRED_FAMILIES = [
    "pdgc_stat_total",
    "pdgc_request_latency_microseconds",
    "pdgc_server_queue_depth",
    "pdgc_server_conn_threads",
    "pdgc_server_draining",
    "pdgc_server_uptime_seconds",
    "pdgc_flight_recorded_total",
]


def family_of(name, types):
    """Maps a sample name to the # TYPE family that owns it.

    Summary families own `<family>{quantile=...}`, `<family>_sum` and
    `<family>_count`; counters and gauges own their exact name.
    """
    if name in types:
        return name
    for suffix in ("_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return None


def parse(path, errors):
    """Returns {sample_key: float} plus {family: type}; appends to errors."""
    types = {}
    samples = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# TYPE "):
                    m = TYPE_RE.match(line)
                    if not m:
                        errors.append(f"{path}:{lineno}: malformed TYPE: {line}")
                        continue
                    if m.group(1) in types:
                        errors.append(f"{path}:{lineno}: duplicate TYPE {m.group(1)}")
                    types[m.group(1)] = m.group(2)
                elif line.startswith("# HELP "):
                    if not HELP_RE.match(line):
                        errors.append(f"{path}:{lineno}: malformed HELP: {line}")
                # Other comments are legal and ignored.
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                errors.append(f"{path}:{lineno}: unparseable sample: {line}")
                continue
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            try:
                v = float(value)
            except ValueError:
                errors.append(f"{path}:{lineno}: bad value {value!r}")
                continue
            if v != v:  # NaN
                errors.append(f"{path}:{lineno}: NaN value for {name}")
                continue
            fam = family_of(name, types)
            if fam is None:
                errors.append(
                    f"{path}:{lineno}: sample {name} has no preceding # TYPE"
                )
                continue
            key = name + labels
            if key in samples:
                errors.append(f"{path}:{lineno}: duplicate sample {key}")
            samples[key] = v
    return samples, types


def check_one(path, samples, types, errors):
    for fam in REQUIRED_FAMILIES:
        if fam not in types:
            errors.append(f"{path}: required family {fam} missing")

    lat = "pdgc_request_latency_microseconds"
    if types.get(lat) == "summary":
        q = {
            p: samples.get(lat + '{quantile="%s"}' % p)
            for p in ("0.5", "0.9", "0.99")
        }
        count = samples.get(lat + "_count")
        if None in q.values() or count is None or samples.get(lat + "_sum") is None:
            errors.append(f"{path}: {lat} summary is missing quantiles/_sum/_count")
        else:
            if not (q["0.5"] <= q["0.9"] <= q["0.99"]):
                errors.append(f"{path}: {lat} quantiles not ordered: {q}")
            if count == 0 and any(v != 0 for v in q.values()):
                errors.append(f"{path}: {lat} has quantiles but _count is 0")

    # Counters cannot be negative even within one scrape.
    for key, v in samples.items():
        fam = family_of(key.split("{", 1)[0], types)
        if types.get(fam) == "counter" and v < 0:
            errors.append(f"{path}: negative counter {key} = {v}")


def check_monotone(path1, s1, path2, s2, types, errors):
    shared = sorted(set(s1) & set(s2))
    if not shared:
        errors.append(f"{path1}/{path2}: no shared samples to compare")
    compared = 0
    for key in shared:
        fam = family_of(key.split("{", 1)[0], types)
        if types.get(fam) != "counter":
            continue
        compared += 1
        if s2[key] < s1[key]:
            errors.append(
                f"counter {key} went backwards: {s1[key]} -> {s2[key]}"
            )
    if compared == 0:
        errors.append(f"{path1}/{path2}: no counters in common")
    up = "pdgc_server_uptime_seconds"
    if up in s1 and up in s2 and s2[up] < s1[up]:
        errors.append(f"{up} went backwards: {s1[up]} -> {s2[up]}")
    print(f"check_metrics: {compared} counters monotone across scrapes")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    errors = []
    s1, t1 = parse(argv[1], errors)
    check_one(argv[1], s1, t1, errors)
    print(f"check_metrics: {argv[1]}: {len(s1)} samples, {len(t1)} families")
    if len(argv) == 3:
        s2, t2 = parse(argv[2], errors)
        check_one(argv[2], s2, t2, errors)
        print(f"check_metrics: {argv[2]}: {len(s2)} samples, {len(t2)} families")
        check_monotone(argv[1], s1, argv[2], s2, t2, errors)
    for e in errors:
        print(f"check_metrics: FAIL: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
