#!/usr/bin/env python3
"""End-to-end benchmark of the PDGC allocator and its daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the library,
pdgc-serve and the measuring binary (perfbench/pdgc_perfbench.cpp) in
Release mode under $CARGO_TARGET_DIR (default .bench_build). Workloads:

  suite           the 76 SPECjvm98-like functions, one thread, closed loop
  mega            the mega profile at four sizes (1.2k-10k vregs), one thread
  serve           pdgc-serve --workers=2, 4 closed-loop connections
  serve_isolated  the same traffic with --isolate-workers=2 (not declared in
                  BENCHMARK.json: too noisy on a shared host; serve's traced
                  run drives an isolated daemon for the worker layer)

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (spans recorded around the
public calls from outside; Chrome trace JSON and a layer table are written
under .bench_out/). Every item is gated: served by the requested tier,
checker-valid, interpreter-equal to the unallocated function, and identical
(simulated cost, spill instructions, surviving moves, assignment) to its
first allocation. See perfbench/README.md for the metric definitions.
"""

import argparse
import http.client
import json
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

import benchmath

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("suite", "mega", "serve", "serve_isolated")
SERVE_WORKERS = 2
# Daemon starts per run; setup_s takes the median start-to-PING.
DAEMON_STARTS = 3
# The tail percentile of each workload, fixed so it has well over ten
# samples beyond it at the benchmark's run length. Mega's smallest class
# gets ~16 samples a pass, too few for a p99. The serve p99 moved 12-48%
# (quartile spread) between 5-run sets as other tenants' load came and went
# on a shared 4-CPU host, queueing amplifying every scheduling delay; its
# p90 moved ~6%.
TAIL_PERCENTILE = {"suite": 99, "mega": 75, "serve": 90, "serve_isolated": 90}
# Timings are reported at a reference host speed: the speed at which one
# host-speed probe (probeMs in pdgc_perfbench.cpp) takes this long. Each
# time is multiplied by PROBE_REF_MS / (a median probe time): for suite and
# mega that of the probes within PROBE_WINDOW_S of the sample, because the
# host's speed drifts within a run (quartile spread of suite p50 over 10
# runs 1.7% this way, 5.6% with the run's median probe); for serve that of
# the whole run, because its probes come only once a second, in idle
# pauses, and a local window made serve no steadier; for setup_s that of
# the probes taken during set-up, because a set-up of a fraction of a
# second sees the host speed of its own moment.
PROBE_REF_MS = 3.8
PROBE_WINDOW_S = 1.0

# Metric names and units are declared once, in BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
# Replay spans whose mean time per item is a per-layer metric.
REPLAY_LAYERS = {
    "core.cpg": "core.cpg_ms", "core.rpg": "core.rpg_ms",
    "regalloc.simplify": "regalloc.simplify_ms",
    "regalloc.round": "regalloc.round_ms",
    "regalloc.checker": "regalloc.checker_ms",
    "analysis.ig_build": "analysis.ig_build_ms",
    "analysis.liveness": "analysis.liveness_ms",
    "analysis.loopinfo": "analysis.loopinfo_ms",
    "analysis.costs": "analysis.costs_ms",
    "analysis.ig_rebuild": "analysis.ig_rebuild_ms",
    "ir.verify": "ir.verify_ms", "ir.phi_elim": "ir.phi_elim_ms",
    "ir.parse": "ir.parse_ms", "ir.print": "ir.print_ms",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the two binaries; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no PDGC sources next to perfbench/ (need src/)")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "pdgc-perfbench", "pdgc-serve"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(bdir, "pdgc-perfbench"),
            os.path.join(bdir, "pdgc-serve"))


def run_measurer(binary, args, timeout, raw_name):
    """Runs pdgc-perfbench; its raw JSON is also kept as
    .bench_out/<raw_name>.json for later analysis."""
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise BenchError("pdgc-perfbench exited with %d" % done.returncode)
    text = done.stdout.strip().splitlines()[-1]
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, raw_name + ".json"), "w") as f:
        f.write(text)
    return json.loads(text)


# --------------------------------------------------------------------------
# The daemon


def frame(payload):
    data = payload.encode()
    return struct.pack(">I", len(data)) + data


def read_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise BenchError("daemon closed the connection")
        buf += chunk
    return buf


def ping(port):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(frame("PDGC/1 PING\n\n"))
        (length,) = struct.unpack(">I", read_exact(sock, 4))
        reply = read_exact(sock, length).decode()
    if not reply.startswith("PDGC/1 OK"):
        raise BenchError("PING answered %r" % reply.split("\n")[0])


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read().decode()
        if resp.status != 200:
            raise BenchError("GET %s answered %d" % (path, resp.status))
        return body
    finally:
        conn.close()


def proc_kb(pid, field):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def wait_gone(pid, timeout=10.0):
    """Waits until process `pid` (not our child) has exited or is a
    zombie."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open("/proc/%d/stat" % pid) as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except OSError:
            return
        time.sleep(0.01)


def child_pids(pid):
    out = []
    try:
        for tid in os.listdir("/proc/%d/task" % pid):
            with open("/proc/%d/task/%s/children" % (pid, tid)) as f:
                out += [int(p) for p in f.read().split()]
    except OSError:
        pass
    return out


class Daemon:
    """One pdgc-serve on an ephemeral loopback port. Readiness is the
    `listening on port` line followed by an answered PING."""

    def __init__(self, binary, isolated, flight_records=None):
        args = [binary, "--port=0", "--workers=%d" % SERVE_WORKERS]
        if isolated:
            args.append("--isolate-workers=%d" % SERVE_WORKERS)
        if flight_records:
            args.append("--flight-records=%d" % flight_records)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.errlog = open(os.path.join(OUT_DIR, "daemon.log"), "a")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                     stderr=self.errlog, text=True,
                                     cwd=OUT_DIR)
        self.port = None
        for line in self.proc.stdout:
            if "listening on port" in line:
                self.port = int(line.split("listening on port")[1].split()[0])
                break
        if self.port is None:
            self.stop()
            raise BenchError("pdgc-serve exited before listening")
        self.drain = threading.Thread(target=self.proc.stdout.read,
                                      daemon=True)
        self.drain.start()
        try:
            ping(self.port)
        except (BenchError, OSError):
            self.stop()
            raise
        self.start_s = time.perf_counter() - t0

    def peak_rss_kb(self):
        pid = self.proc.pid
        return proc_kb(pid, "VmHWM") + sum(proc_kb(c, "VmHWM")
                                           for c in child_pids(pid))

    def stop(self):
        children = child_pids(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
            wait_gone(pid)
        if hasattr(self, "drain"):
            self.drain.join(timeout=10)
        self.proc.stdout.close()
        self.errlog.close()


# --------------------------------------------------------------------------
# Metrics


def size_classes(workload, items):
    """Class index per item, smallest class first. The suite's classes are
    the quartiles of its functions by vreg count."""
    if workload != "suite":
        return [it["class"] for it in items]
    order = sorted(range(len(items)), key=lambda i: (items[i]["vregs"], i))
    cls = [0] * len(items)
    for rank, i in enumerate(order):
        cls[i] = rank * 4 // len(items)
    return cls


def timings(workload, items, cls, samples, factors, timed_s):
    """Latencies, rate and size-class fit of (item, ms, ok, at_s) samples,
    each sample's time multiplied by its factor; and the sample counts."""
    scaled = [(item, ms * f, ok) for (item, ms, ok, _), f
              in zip(samples, factors)]
    per_class = {}
    for item, ms, _ in scaled:
        per_class.setdefault(cls[item], []).append(ms)
    top = max(per_class)
    small = per_class[0] if workload != "suite" else [s[1] for s in scaled]
    tail, beyond = benchmath.percentile(small, TAIL_PERCENTILE[workload])
    points = []
    for c in sorted(per_class):
        sizes = [it["vregs"] for i, it in enumerate(items) if cls[i] == c]
        points.append((statistics.median(sizes),
                       statistics.median(per_class[c])))
    ok_vregs = sum(items[item]["vregs"] for item, _, ok in scaled if ok)
    if workload in ("suite", "mega"):
        # Per second of allocation, the timed calls only.
        per_s = ok_vregs / (sum(ms for _, ms, _ in scaled) / 1000.0)
    else:
        per_s = ok_vregs / timed_s / statistics.median(factors)
    out = {"p50_ms": benchmath.median(small), "tail_ms": tail,
           "big_ms": benchmath.median(per_class[top]), "vregs_per_s": per_s,
           "scale_exp": benchmath.loglog_slope(points)}
    counts = {"tail_samples": len(small), "tail_beyond": beyond,
              "big_samples": len(per_class[top])}
    return out, counts


def end_to_end(workload, r, samples, timed_s, setup_s, rss_kb):
    """The end-to-end metrics from (item, ms, ok, at_s) samples."""
    items = r["items"]
    cls = size_classes(workload, items)
    probe = statistics.median(r["probe_ms"])
    if workload in ("suite", "mega"):
        factors = [PROBE_REF_MS / benchmath.probe_near(
            r["probe_at_s"], r["probe_ms"], at - ms / 1000.0, at,
            PROBE_WINDOW_S) for _, ms, _, at in samples]
    else:
        factors = [PROBE_REF_MS / probe] * len(samples)
    raw, _ = timings(workload, items, cls, samples, [1.0] * len(samples),
                     timed_s)
    metrics, counts = timings(workload, items, cls, samples, factors,
                              timed_s)
    raw["setup_s"] = setup_s
    setup_probe = statistics.median(r["setup_probe_ms"])
    attempted = len(samples)
    ok = sum(1 for s in samples if s[2])
    metrics.update({
        "setup_s": setup_s * PROBE_REF_MS / setup_probe,
        "ok_ratio": ok / attempted,
        "peak_rss_mb": rss_kb / 1024.0,
        "sim_cost": sum(it["sim_cost"] for it in items),
        "spill_insts": sum(it["spill_insts"] for it in items),
        "moves_left": sum(it["moves_left"] for it in items),
    })
    info = dict(counts, tail_percentile=TAIL_PERCENTILE[workload],
                attempted=attempted, ok=ok, probe_ms=probe,
                setup_probe_ms=setup_probe, probes=len(r["probe_ms"]),
                unscaled=raw)
    return metrics, info


def check_fingerprint(workload, seed, r, binary):
    """Cross-run determinism: the per-item outputs of this seed must equal
    those of every earlier run of the same build. Returns error strings."""
    st = os.stat(binary)
    key = "%d-%d" % (st.st_mtime_ns, st.st_size)
    prints = {it["name"]: [it["sim_cost"], it["spill_insts"], it["moves_left"]]
              for it in r["items"]}
    path = os.path.join(build_dir(), "fingerprints",
                        "%s-%d.json" % (workload, seed))
    try:
        with open(path) as f:
            old = json.load(f)
    except (OSError, ValueError):
        old = None
    if old and old.get("build") == key:
        return ["%s: %s in this run, %s in an earlier run" %
                (name, prints.get(name), want)
                for name, want in sorted(old["items"].items())
                if prints.get(name) != want]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"build": key, "items": prints}, f)
    return []


def layer_metrics(r, spans, counters):
    """Per-layer metrics (mean per item over the replay/gate spans)."""
    n_items = len(r["items"])
    table = benchmath.layer_table(spans)
    out = {name: 0.0 for name, _ in PER_LAYER}
    for span_name, metric in REPLAY_LAYERS.items():
        row = table.get(span_name)
        if row:
            out[metric] = row["self"] / 1000.0 / row["count"]
    out["core.select_ms"] = (out["regalloc.round_ms"] - out["core.cpg_ms"] -
                             out["core.rpg_ms"] -
                             out["regalloc.simplify_ms"])
    replay = r.get("replay", {})
    out["core.cpg_edges"] = replay.get("cpg_edges", 0) / n_items
    edges = replay.get("ig_edges", 0)
    wasted = replay.get("ig_wasted", 0)
    out["analysis.ig_useful_ratio"] = (edges / (edges + wasted)
                                       if edges + wasted else 0.0)
    out["regalloc.rounds"] = sum(it["rounds"] for it in r["items"]) / n_items
    out["regalloc.spilled_ranges"] = (
        sum(it["spilled_ranges"] for it in r["items"]) / n_items)
    out["regalloc.degraded"] = counters.get(
        "fallback.degraded_allocations", 0)
    return out, table


def write_trace(workload, seed, spans, table, counters, extra_lines):
    """Chrome trace JSON plus the layer table and the counter diffs, under
    .bench_out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    events = [{"name": s[0], "ph": "X", "ts": s[1], "dur": s[2] - s[1],
               "pid": 1, "tid": 1, "args": {"item": s[4], "parent": s[3]}}
              for s in spans]
    base = os.path.join(OUT_DIR, "trace-%s-%d" % (workload, seed))
    with open(base + ".json", "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    total = sum(row["self"] for row in table.values())
    lines = ["%-22s %7s %12s %12s %7s" %
             ("layer", "count", "total_ms", "self_ms", "share")]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self"]):
        lines.append("%-22s %7d %12.3f %12.3f %6.1f%%" %
                     (name, row["count"], row["total"] / 1000.0,
                      row["self"] / 1000.0,
                      100.0 * row["self"] / total if total else 0.0))
    lines.append("%-22s %7s %12s %12.3f %6.1f%%" %
                 ("sum of self", "", "", total / 1000.0, 100.0))
    lines.append("counter diffs over the timed window:")
    lines += ["  %s = %d" % kv for kv in sorted(counters.items()) if kv[1]]
    lines += extra_lines
    with open(base + ".layers.txt", "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print("trace: %s.json" % base)


def overhead_lines(untraced, traced):
    """Tracing overhead: traced against untraced end-to-end numbers."""
    lines = ["tracing overhead (traced vs untraced, same run):"]
    for key in ("p50_ms", "tail_ms", "big_ms", "vregs_per_s"):
        a, b = untraced[key], traced[key]
        lines.append("  %-12s untraced %.4f traced %.4f (%+.2f%%)" %
                     (key, a, b, 100.0 * (b - a) / a))
    pct = 100.0 * (traced["p50_ms"] - untraced["p50_ms"]) / untraced["p50_ms"]
    return lines, pct


# --------------------------------------------------------------------------
# Workloads


def run_local(workload, seed, seconds, trace, binary):
    r = run_measurer(binary, ["local", "--workload=" + workload,
                              "--seed=%d" % seed, "--seconds=%g" % seconds,
                              "--trace=%d" % trace], 170,
                     "raw-%s-%d-t%d" % (workload, seed, trace))
    setup_s = (statistics.median(r["gen_print_s"]) +
               statistics.median(r["warmup_s"]))
    errors = list(r["failures"])
    errors += check_fingerprint(workload, seed, r, binary)
    samples = [(s[0], s[1], bool(s[2]), s[4]) for s in r["samples"]
               if not s[3]]
    metrics, info = end_to_end(workload, r, samples, r["timed_s"], setup_s,
                               r["rss_kb"])
    result = {"correct": not errors and r["failure_count"] == 0 and
              r["determinism_errors"] == 0 and r["ok"] == r["attempted"],
              "attempted": r["attempted"],
              "failed": r["attempted"] - r["ok"], "errors": errors,
              "info": info}
    if not trace:
        result["metrics"] = metrics
        return result
    traced = [(s[0], s[1], bool(s[2]), s[4]) for s in r["samples"] if s[3]]
    tmetrics, _ = end_to_end(workload, r, traced, r["timed_s"], setup_s,
                             r["rss_kb"])
    lines, pct = overhead_lines(metrics, tmetrics)
    layers, table = layer_metrics(r, r["spans"], r["counters"])
    layers["trace.overhead_pct"] = pct
    write_trace(workload, seed, r["spans"], table, r["counters"], lines)
    result["metrics"] = layers
    return result


def serve_session(workload, seed, seconds, binary, serve_binary, isolated,
                  trace):
    """One daemon for one run: DAEMON_STARTS starts (the last stays up),
    then one client run. Returns the client's result, the start times, the
    counter diff and final values from /metrics, the flight records (traced
    runs) and the daemon's peak RSS."""
    starts = []
    daemon = None
    try:
        for i in range(DAEMON_STARTS):
            daemon = Daemon(serve_binary, isolated,
                            flight_records=32768 if trace else None)
            starts.append(daemon.start_s)
            if i + 1 < DAEMON_STARTS:
                daemon.stop()
                daemon = None
        before = benchmath.parse_stat_counters(http_get(daemon.port,
                                                        "/metrics"))
        r = run_measurer(
            binary, ["client", "--port=%d" % daemon.port, "--seed=%d" % seed,
                     "--seconds=%g" % seconds, "--trace=%d" % trace], 170,
            "raw-%s-%d-t%d%s" % (workload, seed, trace,
                                 "-isolated" if isolated else ""))
        after = benchmath.parse_stat_counters(http_get(daemon.port,
                                                       "/metrics"))
        records = (benchmath.parse_requests(
            http_get(daemon.port, "/requests?n=32768")) if trace else [])
        rss_kb = daemon.peak_rss_kb()
    finally:
        if daemon:
            daemon.stop()
    diff = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    return r, starts, diff, after, records, rss_kb


def serve_metrics(workload, r, starts, rss_kb, traced=False):
    """End-to-end metrics of client run `r` over its untraced (or traced)
    requests; set-up takes the median of every repeated part."""
    setup_s = (statistics.median(starts) +
               statistics.median(r["gen_print_s"]) +
               statistics.median(r["reference_s"]) +
               statistics.median(r["warmup_s"]))
    samples = [(s[0], s[1], bool(s[2]), s[4]) for s in r["samples"]
               if bool(s[3]) == traced]
    return end_to_end(workload, r, samples, r["timed_s"], setup_s, rss_kb)


def run_serve(workload, seed, seconds, trace, binary, serve_binary):
    isolated = workload == "serve_isolated"
    # Traced: two thirds of the run with every other request of each
    # connection traced (and the replay); serve's last third drives an
    # isolated daemon for the worker-process layer.
    r, starts, counters, stats, records, rss_kb = serve_session(
        workload, seed, seconds * 2.0 / 3.0 if trace else seconds, binary,
        serve_binary, isolated, trace)
    runs = [r]
    metrics, info = serve_metrics(workload, r, starts, rss_kb)
    iso_lines = []
    if trace and not isolated:
        iso_r, iso_starts, _, stats, _, iso_rss = serve_session(
            workload, seed, seconds / 3.0, binary, serve_binary, True, 0)
        runs.append(iso_r)
        iso, _ = serve_metrics("serve_isolated", iso_r, iso_starts, iso_rss)
        iso_lines = ["isolated daemon (--isolate-workers=%d), untraced:" %
                     SERVE_WORKERS] + [
            "  %-12s %.4f" % (k, iso[k])
            for k in ("p50_ms", "tail_ms", "big_ms", "vregs_per_s",
                      "peak_rss_mb")]
    errors = []
    for x in runs:
        errors += x["failures"]
    errors += check_fingerprint(workload, seed, r, binary)
    degraded = counters.get("fallback.degraded_allocations", 0)
    if degraded:
        errors.append("daemon degraded %d allocations" % degraded)
    attempted = sum(x["attempted"] for x in runs)
    ok = sum(x["ok"] for x in runs)
    result = {"correct": not errors and ok == attempted,
              "attempted": attempted, "failed": attempted - ok,
              "errors": errors, "info": info}
    if not trace:
        result["metrics"] = metrics
        return result
    traced, _ = serve_metrics(workload, r, starts, rss_kb, traced=True)
    lines, pct = overhead_lines(metrics, traced)
    layers, table = layer_metrics(r, r["spans"], counters)
    layers["trace.overhead_pct"] = pct
    layers.update(server_layers(r, records, stats))
    lines.append("flight records: %d alloc" %
                 sum(1 for x in records if x["kind"] == "alloc"))
    write_trace(workload, seed, r["spans"], table, counters,
                lines + iso_lines)
    result["metrics"] = layers
    return result


def server_layers(r, records, stats):
    """Server-side layers from the flight recorder (/requests), the client's
    raw round trips, and the daemon's counters (/metrics)."""
    limit = r["small_max_bytes"] + 512
    small = [x for x in records if x["kind"] == "alloc" and
             x["bytes_in"] <= limit]
    if not small:
        raise BenchError("no small ALLOC requests in the flight recorder")
    queue = [x["queue_us"] / 1000.0 for x in small]
    walls = [x["wall_us"] / 1000.0 for x in small]
    cls = [it["class"] for it in r["items"]]
    rtts = [s[1] for s in r["samples"] if cls[s[0]] == 0]
    return {
        "server.queue_p50_ms": benchmath.percentile(queue, 50)[0],
        "server.queue_p99_ms": benchmath.percentile(queue, 99)[0],
        "server.exec_ms": benchmath.median(
            [(x["wall_us"] - x["queue_us"]) / 1000.0 for x in small]),
        "server.wire_ms": benchmath.median(rtts) - benchmath.median(walls),
        "server.rejected": r["rejected"],
        "worker.spawns": stats.get("worker.spawns", 0),
        "worker.replays": stats.get("worker.replays", 0),
        "worker.crashes": stats.get("worker.crashes", 0),
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        binary, serve_binary = build()
        if args.workload in ("suite", "mega"):
            result = run_local(args.workload, args.seed, args.seconds,
                               args.trace, binary)
        else:
            result = run_serve(args.workload, args.seed, args.seconds,
                               args.trace, binary, serve_binary)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    for err in result["errors"]:
        log("perfbench: FAILED %s" % err)
    print("info: " + json.dumps(result["info"]))
    declared = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
