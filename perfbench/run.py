#!/usr/bin/env python3
"""Runs one workload of the Sentinel repository benchmark.

    python3 perfbench/run.py --workload stream_tcp --seed 7 --seconds 10 --trace 0

Builds perfbench/ (the server program, load generator and self-test) against
../src with CMake, starts the server program and the load generator as two
processes pinned to disjoint CPU halves, checks every output against the
reference computation, and prints a human-readable report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the workload runs twice, untraced then traced, and the
metrics are the per-layer metrics plus the tracing overhead (traced minus
untraced) on every end-to-end metric; the spans and the per-layer self-time
summary stay under <build dir>/trace/. See perfbench/README.md.

Exit status: 0 when every check passed; 1 when a check failed (the JSON line
is still printed); 2 when the benchmark could not run (no JSON line).
"""

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_tcp", "stream_shm", "notify_rpc", "durable_replicated")
END_TO_END = (
    ("setup_s", "s"),
    ("raise_throughput_eps", "1/s"),
    ("server_cpu_us_per_raise", "us"),
    ("server_rss_peak_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def log(msg):
    print(msg, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT if not os.path.isabs(base) else "", base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) are missing")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logf = os.path.join(out, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(logf, "w") as f:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                raise BenchError("cmake configure failed; see " + logf)
        if subprocess.call(["cmake", "--build", out, "-j", jobs],
                           stdout=f, stderr=subprocess.STDOUT) != 0:
            raise BenchError("build failed; see " + logf)
    return out


def cpu_split():
    """Generator on the last allowed CPU, server on the others: the server
    runs an IO thread, a worker per raise shard and (durable_replicated) the
    follower, while the generator's threads mostly wait on replies."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    return cpus[:-1], cpus[-1:]


def run_metadata(args, bindir, server_cpus, load_cpus):
    cache = {}
    try:
        with open(os.path.join(bindir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "server_cpus": server_cpus,
        "load_cpus": load_cpus,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "compiler": version,
        "git_sha": sha,
        "host": platform.node(),
    }


def wait_line(proc, timeout):
    deadline = time.monotonic() + timeout
    buf = b""
    fd = proc.stdout.fileno()
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.2)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buf += chunk
            if b"\n" in buf:
                return buf.split(b"\n", 1)[0].decode()
        elif proc.poll() is not None:
            break
    return None


def tail(path, lines=15):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def stop(proc):
    if proc is not None and proc.poll() is None:
        proc.kill()
    if proc is not None:
        proc.wait()


def run_pass(args, bindir, workdir, trace, cpus):
    """One server + generator pass; returns (server report, load report)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    server_cpus, load_cpus = cpus
    shm = "/perfbench-%d-%d" % (os.getpid(), int(time.monotonic() * 1000))
    server_cmd = [os.path.join(bindir, "perfbench_server"),
                  "--workload", args.workload, "--dir", workdir,
                  "--report", os.path.join(workdir, "server.json"),
                  "--spans", os.path.join(workdir, "server_spans.csv"),
                  "--trace", "1" if trace else "0",
                  "--shm", shm]
    expect = os.path.join(workdir, "expect.txt")
    server = load = None
    try:
        server = subprocess.Popen(
            server_cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=open(os.path.join(workdir, "server.err"), "w"),
            preexec_fn=lambda: os.sched_setaffinity(0, server_cpus))
        line = wait_line(server, 150)
        if not line or not line.startswith("READY "):
            raise BenchError("server did not start:\n"
                             + tail(os.path.join(workdir, "server.err")))
        port = line.split()[1]
        load_cmd = [os.path.join(bindir, "perfbench_load"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--port", port, "--seconds", str(args.seconds),
                    "--out", os.path.join(workdir, "load.json"),
                    "--shm", shm, "--trace", "1" if trace else "0",
                    "--spans", os.path.join(workdir, "load_spans.csv"),
                    "--expect", expect,
                    "--acks", os.path.join(workdir, "acks.txt")]
        load = subprocess.Popen(
            load_cmd, stderr=open(os.path.join(workdir, "load.err"), "w"),
            preexec_fn=lambda: os.sched_setaffinity(0, load_cpus))
        try:
            rc = load.wait(timeout=args.seconds + 60)
        except subprocess.TimeoutExpired:
            raise BenchError("load generator timed out")
        if rc != 0:
            raise BenchError("load generator failed:\n"
                             + tail(os.path.join(workdir, "load.err")))
        server.stdin.write(("STOP %s\n" % expect).encode())
        server.stdin.close()
        try:
            rc = server.wait(timeout=120)
        except subprocess.TimeoutExpired:
            raise BenchError("server did not stop")
        if rc != 0:
            raise BenchError("server failed:\n"
                             + tail(os.path.join(workdir, "server.err")))
        with open(os.path.join(workdir, "server.json")) as f:
            srv = json.load(f)
        with open(os.path.join(workdir, "load.json")) as f:
            gen = json.load(f)
        return srv, gen
    finally:
        stop(load)
        stop(server)
        # A killed server cannot unlink its shared-memory segment.
        if os.path.exists("/dev/shm" + shm):
            os.unlink("/dev/shm" + shm)


# --- Metric helpers -----------------------------------------------------------

def counter(stats, name):
    return stats.get("db", {}).get("counters", {}).get(name, 0)


def hist(stats, name):
    return stats.get("db", {}).get("histograms", {}).get(name, {})


def gateway(stats, name):
    gw = stats.get("gateway", {})
    if name.startswith("shm."):
        return gw.get("shm", {}).get(name[4:], 0)
    return gw.get(name, 0)


def ratio(num, den):
    return num / den if den else 0.0


def pct(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * (len(s) - 1) + 0.5))]


def sliced(samples, window_s):
    """Tail-robust percentiles of window samples [[t_ms, value], ...].

    The window is cut into equal slices, as many as leave each slice
    expected to hold >= 1000 samples (and last >= 0.5 s), so every slice
    p99 has >= 10 samples beyond it. Returns (median of slice p50s, median of
    slice p99s, samples, slices, whole-window p50, whole-window p99).
    A host stall then moves the figure of one slice, not of the run."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0, 0, 0.0, 0.0
    slice_s = max(0.5, math.ceil(1000 * window_s / n / 0.5) * 0.5)
    k = max(1, int(window_s // slice_s))
    slice_s = window_s / k
    buckets = [[] for _ in range(k)]
    for t, v in samples:
        buckets[min(k - 1, max(0, int(t / 1000 / slice_s)))].append(v)
    buckets = [b for b in buckets if b]
    values = [v for _, v in samples]
    return (statistics.median(pct(b, 0.5) for b in buckets),
            statistics.median(pct(b, 0.99) for b in buckets), n, len(buckets),
            pct(values, 0.5), pct(values, 0.99))


def throughput(samples, weight, window_s):
    """(median slice rate, mean rate) of acked raises per second. The window
    is cut into equal slices, as many as leave each slice expected to hold
    >= 1000 raises (and last >= 100 ms)."""
    total = len(samples) * weight
    slice_s = max(1, math.ceil(1000 * window_s / max(1, total) / 0.1)) * 0.1
    k = max(1, int(window_s / slice_s + 1e-9))
    slice_s = window_s / k
    counts = [0] * k
    for t, _ in samples:
        counts[min(k - 1, max(0, int(t / 1000 / slice_s)))] += weight
    return statistics.median(counts) / slice_s, total / window_s


def replica_lag_ms(workdir, srv, gen):
    """[[t_ms, lag_ms]] for raises acked in the window: time from the
    primary's ack to the follower applying the occurrence (0 when the
    follower applied it before the client saw the ack)."""
    applied = {}
    with open(srv["applied_file"]) as f:
        for line in f:
            seq, ns = line.split()
            applied[int(seq)] = int(ns)
    start = gen["t_start_ns"]
    lags = []
    with open(os.path.join(workdir, "acks.txt")) as f:
        for line in f:
            seq, ack = (int(x) for x in line.split())
            if ack >= start and int(seq) in applied:
                lags.append([(ack - start) / 1e6,
                             max(0, applied[seq] - ack) / 1e6])
    return lags


def checks(args, srv, gen):
    """Correctness checks; returns (failures, failed count, attempted)."""
    problems = list(gen["failures"]) + list(srv["errors"])
    failed = gen["failed"] + gen["scans_failed"]
    attempted = gen["attempted"] + gen["scans"]
    ref = gen["reference"]
    s0, s2 = gen["stats0"], gen["stats2"]

    def expect(what, got, want):
        nonlocal failed
        if got != want:
            problems.append("%s: got %d, reference %d" % (what, got, want))
            failed += max(1, abs(got - want))

    expect("acked + failed raises", gen["acked"] + gen["failed"],
           gen["attempted"])
    expect("reference raises", ref["raises"], gen["acked"])
    occ = counter(s2, "events.occurrences") - counter(s0, "events.occurrences")
    expect("events.occurrences delta", occ, gen["acked"])
    trig = sum(counter(s2, "rules.dispatch." + k) - counter(s0, "rules.dispatch." + k)
               for k in ("immediate", "deferred", "detached"))
    expect("rules triggered delta", trig, ref["triggered"])
    for kind, want in ref["fired"].items():
        expect("rules fired (%s)" % kind, srv["fired"][kind], want)
    n = gen["notify"]
    for key in ("missing", "duplicate", "unexpected"):
        if n[key]:
            problems.append("%d %s notifications" % (n[key], key))
            failed += n[key]
    if args.workload == "notify_rpc" and n["owed"] == 0:
        problems.append("reference owed no notifications")
        failed += 1
    failed += len(srv["errors"]) + len(gen["failures"])
    return problems, failed, attempted


def cpu_per_raise(samples, gen):
    """(median, slices) of the server's CPU time per executed raise over the
    250 ms sampling slices that lie in the measured window, each slice's CPU
    time scaled by the host's speed in it (probe iterations per ns). The
    result is in reference-speed microseconds, one being the CPU time of
    1000 probe iterations, so a slowed vCPU moves the probe and the server
    alike instead of the figure. Set-up times are scaled the same way."""
    t0 = gen["t_start_ns"]
    t1 = t0 + gen["window_s"] * 1e9
    values = [(b[1] - a[1]) / 1e3 / (b[2] - a[2]) * b[3]
              for a, b in zip(samples, samples[1:])
              if a[0] >= t0 and b[0] <= t1 and b[2] > a[2]]
    if not values:
        raise BenchError("no CPU sample fell in the measured window")
    return statistics.median(values), len(values)


def end_to_end(args, workdir, srv, gen):
    """Every end-to-end figure: {name: (value, unit, samples, note)}."""
    m = {}
    window = gen["window_s"]
    setup = srv["setup_s"]
    scaled = [t * speed for t, speed in zip(setup, srv["setup_speed"])]
    m["setup_s"] = (statistics.median(scaled), "s", len(setup),
                    "median of set-ups, reference-speed s; as timed: median %.6f "
                    "min %.6f max %.6f" % (statistics.median(setup), min(setup), max(setup)))
    p50, p99, n, k, w50, w99 = sliced(gen["raise_ack_us"], window)
    m["raise_ack_p50_us"] = (p50, "us", n, "median of %d slices; window p50 %.1f" % (k, w50))
    m["raise_ack_p99_us"] = (p99, "us", n, "median of %d slices; window p99 %.1f" % (k, w99))
    weight = gen["batch"]
    rate, mean_rate = throughput(gen["raise_ack_us"], weight, window)
    m["raise_throughput_eps"] = (rate, "1/s", gen["window_acked"],
                                 "median of slices; mean %.1f" % mean_rate)
    cpu, k = cpu_per_raise(srv["cpu_samples"], gen)
    m["server_cpu_us_per_raise"] = (
        cpu, "us", gen["window_acked"],
        "median of %d slices, reference-speed us; user+sys %.3f us over the run"
        % (k, srv["cpu_s"] * 1e6 / max(1, gen["acked"])))
    m["server_rss_peak_mb"] = (srv["rss_peak_mb"], "MB", 1, "")
    if args.workload == "notify_rpc":
        p50, p99, n, k, w50, w99 = sliced(gen["notify_us"], window)
        m["notify_p50_us"] = (p50, "us", n, "median of %d slices; window p50 %.1f" % (k, w50))
        m["notify_p99_us"] = (p99, "us", n, "median of %d slices; window p99 %.1f" % (k, w99))
    if args.workload == "durable_replicated":
        lags = replica_lag_ms(workdir, srv, gen)
        p50, p99, n, k, w50, w99 = sliced(lags, window)
        m["replica_lag_p50_ms"] = (p50, "ms", n, "median of %d slices; window p50 %.3f" % (k, w50))
        m["replica_lag_p99_ms"] = (p99, "ms", n, "median of %d slices; window p99 %.3f" % (k, w99))
        p50, p99, n, k, w50, w99 = sliced(gen["scan_ms"], window)
        m["history_scan_p50_ms"] = (p50, "ms", n, "median of %d slices; window p50 %.3f" % (k, w50))
        m["history_scan_p99_ms"] = (p99, "ms", n, "median of %d slices; window p99 %.3f" % (k, w99))
    if gen["lateness_us"]:
        p50, p99, n, k, w50, w99 = sliced(gen["lateness_us"], window)
        m["generator_lateness_p99_us"] = (p99, "us", n, "median of %d slices; window p99 %.1f" % (k, w99))
    return m


# --- Traced run ---------------------------------------------------------------

# Span name -> parent span name (joined on the request id).
PARENT = {
    "core.raise": "client.raise",
    "events.detect": "core.raise",
    "rules.condition": "core.raise",
    "rules.action": "core.raise",
    "oodb.persist": "rules.action",
}


def read_spans(path):
    spans = []
    if os.path.isfile(path):
        with open(path) as f:
            for line in f:
                name, seq, start, end = line.rstrip("\n").split(",")
                spans.append((name, int(seq), int(start), int(end)))
    return spans


def self_times(spans):
    """{name: [(duration_ns, self_ns)]}: self = duration minus the part of
    the span covered by its children (clipped to the span, overlaps merged)."""
    by_key = {}
    for s in spans:
        by_key.setdefault((s[0], s[1]), []).append(s)
    children = {}
    for name, seq, start, end in spans:
        parent = PARENT.get(name)
        if parent is None:
            continue
        for p in by_key.get((parent, seq), ()):
            if p[2] <= end and start <= p[3]:
                children.setdefault(id(p), []).append((start, end))
    out = {}
    for s in spans:
        name, _, start, end = s
        covered, cursor = 0, start
        for c0, c1 in sorted(children.get(id(s), ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.setdefault(name, []).append((end - start, end - start - covered))
    return out


def per_layer(args, srv, gen, spans, untraced, traced):
    s0, s1, s2 = gen["stats0"], gen["stats1"], gen["stats2"]
    acked = max(1, gen["acked"])

    def d(name, a=s1, b=s2):
        return counter(b, name) - counter(a, name)

    def g(name):
        return gateway(s2, name) - gateway(s1, name)

    st = self_times(spans)

    def span_p50(name, self_time=False):
        vals = [v[1] if self_time else v[0] for v in st.get(name, ())]
        return pct(vals, 0.5) / 1e3

    h = lambda name, q: hist(s2, name).get(q, 0) / 1e3
    shards = srv.get("shard_raises") or [0]
    trig = sum(d("rules.dispatch." + k, s0) for k in ("immediate", "deferred", "detached"))
    gcb_n = hist(s2, "storage.group_commit_batch").get("count", 0) - \
        hist(s1, "storage.group_commit_batch").get("count", 0)
    gcb_sum = hist(s2, "storage.group_commit_batch").get("sum", 0) - \
        hist(s1, "storage.group_commit_batch").get("sum", 0)
    catchups = srv.get("repl_catchups", 0)
    empty = srv.get("repl_empty_catchups", 0)
    layer = {
        "net.decode_ns": (gen["decode_ns"], "ns"),
        "net.ingress_depth_p99": (pct(gen["depth"], 0.99), "count"),
        "net.batched_ack_share": (ratio(g("batched_acks"), g("requests_processed")), "ratio"),
        "net.inline_share": (ratio(g("inline_raises"), g("requests_processed")), "ratio"),
        "net.reject_share": (ratio(g("backpressure_rejections"),
                                   g("frames_received") + g("shm.frames")), "ratio"),
        "net.notify_drop_share": (ratio(d("net.notifications.dropped"),
                                        d("net.notifications.enqueued")
                                        + d("net.notifications.dropped")), "ratio"),
        "net.client_ack_wait_us": (span_p50("client.raise", True), "us"),
        "shmtp.frames_per_batch": (ratio(g("shm.frames"), g("shm.batches")), "count"),
        "shmtp.parks_per_kframe": (1000 * ratio(g("shm.parks"), g("shm.frames")), "count"),
        "shmtp.wakeup_share": (ratio(g("shm.wakeups"), g("shm.parks")), "ratio"),
        "core.shard_skew": (ratio(max(shards), statistics.mean(shards)), "ratio"),
        "core.raise_us": (span_p50("core.raise"), "us"),
        "events.occurrences_per_raise": (d("events.occurrences", s0) / acked, "ratio"),
        "events.raise_notify_p50_us": (h("events.raise_notify_ns", "p50"), "us"),
        "events.raise_notify_p99_us": (h("events.raise_notify_ns", "p99"), "us"),
        "events.detect_us": (span_p50("events.detect"), "us"),
        "events.log_trimmed_per_kraise": (1000 * d("events.log_trimmed", s0) / acked, "count"),
        "rules.dispatch_p50_us": (h("rules.dispatch_ns", "p50"), "us"),
        "rules.dispatch_p99_us": (h("rules.dispatch_ns", "p99"), "us"),
        "rules.triggered_per_raise": (trig / acked, "ratio"),
        "rules.fired_share": (ratio(sum(srv["fired"].values()), trig), "ratio"),
        "rules.action_us": (span_p50("rules.action"), "us"),
        "rules.cascade_depth_p99": (hist(s2, "rules.cascade_depth").get("p99", 0), "count"),
        "txn.abort_share": (ratio(d("txn.aborts"), d("txn.aborts") + d("txn.commits")), "ratio"),
        "storage.pool_hit_rate": (ratio(d("storage.pool.hits"),
                                        d("storage.pool.hits") + d("storage.pool.misses")), "ratio"),
        "storage.wal_bytes_per_raise": (ratio(srv["wal_bytes"], srv["occurrences"]), "B"),
        "histlog.commits_per_sync": (ratio(gcb_sum, gcb_n), "count"),
        "histlog.checkpoints": (d("storage.checkpoints"), "count"),
        "histlog.rotations": (d("histlog.rotations"), "count"),
        "histlog.scan_skips_per_scan": (ratio(d("histlog.scan_segments_skipped"),
                                              gen["scans"]), "count"),
        "repl.records_per_poll": (ratio(srv.get("repl_applied", 0), catchups - empty), "count"),
        "repl.empty_poll_share": (ratio(empty, catchups), "ratio"),
        "repl.resnapshots": (srv.get("repl_resnapshots", 0), "count"),
        "oodb.recovery_records": (srv.get("recovery_records", 0), "count"),
    }
    # End-to-end latencies drift too much with the host to gate; they are
    # reported here, from the untraced pass.
    for name in ("raise_ack_p50_us", "raise_ack_p99_us"):
        layer[name] = untraced[name][:2]
    overhead = {"trace.overhead." + name: (traced[name][0] - untraced[name][0], unit)
                for name, (_, unit, _, _) in untraced.items()}
    universal = [n for n, _ in END_TO_END] + ["raise_ack_p50_us", "raise_ack_p99_us"]
    for name in universal:
        layer["trace.overhead." + name] = overhead.pop("trace.overhead." + name)
    # Figures that exist on some workloads only (printed, not in JSON).
    extra = dict(overhead)
    extra.update({
        "txn.wal_sync_p50_us": (h("txn.wal_sync_ns", "p50"), "us"),
        "txn.wal_sync_p99_us": (h("txn.wal_sync_ns", "p99"), "us"),
        "oodb.persist_us": (span_p50("oodb.persist"), "us"),
        "repl.catchup_us": (span_p50("repl.catchup"), "us"),
        "oodb.recovery_ms": (srv.get("recovery_ms", 0.0), "ms"),
    })
    summary = {name: {"spans": len(v), "p50_us": pct([x[0] for x in v], 0.5) / 1e3,
                      "self_p50_us": pct([x[1] for x in v], 0.5) / 1e3,
                      "self_total_ms": sum(x[1] for x in v) / 1e6}
               for name, v in sorted(st.items())}
    return layer, extra, summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bindir = build()
        cpus = cpu_split()
        meta = run_metadata(args, bindir, *cpus)
        workdir = os.path.join(build_dir(), "run-%d" % os.getpid())
        try:
            srv, gen = run_pass(args, bindir, workdir, False, cpus)
            problems, failed, attempted = checks(args, srv, gen)
            e2e = end_to_end(args, workdir, srv, gen)
            if args.trace:
                tsrv, tgen = run_pass(args, bindir, workdir, True, cpus)
                tproblems, tfailed, tattempted = checks(args, tsrv, tgen)
                problems += tproblems
                failed += tfailed
                attempted += tattempted
                te2e = end_to_end(args, workdir, tsrv, tgen)
                spans = read_spans(os.path.join(workdir, "server_spans.csv")) + \
                    read_spans(os.path.join(workdir, "load_spans.csv"))
                layer, extra, summary = per_layer(args, tsrv, tgen, spans, e2e, te2e)
                tracedir = os.path.join(build_dir(), "trace",
                                        "%s-seed%d" % (args.workload, args.seed))
                shutil.rmtree(tracedir, ignore_errors=True)
                os.makedirs(tracedir)
                for f in ("server_spans.csv", "load_spans.csv"):
                    if os.path.isfile(os.path.join(workdir, f)):
                        shutil.copy(os.path.join(workdir, f), tracedir)
                with open(os.path.join(tracedir, "summary.json"), "w") as f:
                    json.dump({"meta": meta, "self_time": summary,
                               "per_layer": layer, "extra": extra}, f, indent=1)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2

    meta["offered_rate_eps"] = gen["rate_eps"]
    meta["producers"] = gen["producers"]
    meta["window"] = gen["window"]
    meta["batch"] = gen["batch"]
    log("# perfbench %s" % json.dumps(meta))
    for name, (value, unit, n, note) in e2e.items():
        log("%-28s %14.4f %-6s n=%-9d %s" % (name, value, unit, n, note))
    failed_frac = failed / max(1, attempted)
    log("%-28s %14.6f %-6s n=%-9d" % ("failed_frac", failed_frac, "ratio", attempted))
    if args.trace:
        log("# traced run: per-layer metrics")
        for name, (value, unit) in list(layer.items()) + list(extra.items()):
            log("%-32s %14.4f %s" % (name, value, unit))
        log("# self time per span (p50 us / total ms): %s" % tracedir)
        for name, s in summary.items():
            log("  %-20s spans=%-8d p50=%10.2f self_p50=%10.2f self_total_ms=%10.1f"
                % (name, s["spans"], s["p50_us"], s["self_p50_us"], s["self_total_ms"]))
    for p in problems:
        log("CHECK FAILED: " + p)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END}
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
