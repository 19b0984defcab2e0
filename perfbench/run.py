#!/usr/bin/env python3
"""The DSE benchmark: one workload run, one JSON result line.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

Builds the harness (perfbench/CMakeLists.txt) into .bench_build/perfbench
on first use, runs the workload for --seconds, checks every op's output and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 gives the end-to-end
metrics; --trace 1 a separate traced run that gives the per-layer metrics
and writes a chrome://tracing file plus a per-layer self-time table under
.bench_out/. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("paper-sweep", "fine-search", "serve-mix")
DAEMON_RESTARTS = 21
RUN_LIMIT_S = 170.0

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms",
         "alt_p50_ms": "ms", "tail_ms": "ms", "rate_per_s": "1/s"}

# Per-layer metrics with their units (the traced run reports all of them;
# a layer a workload does not exercise reads 0 and is listed as off-path).
LAYER_UNITS = {
    "accuracy_proxy.ms_per_call": "ms", "accuracy_proxy.calls": "count",
    "accuracy_proxy.self_share": "ratio", "tt.accuracy_races": "count",
    "tt.accuracy_useful_ratio": "ratio", "tt.score_hit_ratio": "ratio",
    "config_space.decode_us": "us", "design_point.key_us": "us",
    "energy.us_per_call": "us", "performance.us_per_call": "us",
    "rae.area_us": "us", "evaluator.point_us_cold": "us",
    "evaluator.point_us_warm": "us", "search.driver_ms": "ms",
    "search.oracle_ms": "ms", "search.select_ms": "ms",
    "search.rounds": "count", "search.evaluated": "count",
    "pareto.front_ms": "ms", "sweep.post_eval_ms": "ms",
    "store.load_ms": "ms", "store.snapshot_mb": "MB", "store.find_ms": "ms",
    "store.put_ms": "ms", "store.to_json_ms": "ms",
    "dispatcher.query_warm_ms": "ms", "dispatcher.query_cold_ms": "ms",
    "dispatcher.fresh_evaluations": "count", "dispatcher.coalesced": "count",
    "dispatcher.eval_batches": "count", "protocol.line_overhead_ms": "ms",
    "protocol.response_kb": "KB", "server.transport_ms": "ms",
    "pool.width": "count", "pool.steals": "count",
    "pool.parallel_efficiency": "ratio", "trace.overhead_ms": "ms",
}


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dse", "sweep.hpp")):
        raise BenchError("no APSQ sources at %s/src: run from a checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    blog = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(blog, "a") as f:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                                  "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=f, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError("cmake configure failed; see " + blog)
        rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                             stdout=f, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError("build failed; see " + blog)


def child_env():
    # Pin the shared pool before any session exists: a threads=1 session
    # would otherwise pin it to one worker for the rest of the process.
    env = dict(os.environ)
    env["APSQ_POOL_THREADS"] = "2"
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def driver(args, deadline):
    cmd = [os.path.join(BUILD, "perfbench_driver")] + [str(a) for a in args]
    try:
        subprocess.run(cmd, env=child_env(), check=True,
                       timeout=remaining(deadline))
    except subprocess.CalledProcessError as e:
        raise BenchError("driver failed (exit %d): %s" % (e.returncode, " ".join(cmd)))
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(cmd))


def load(path):
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------ daemon

class Daemon:
    """apsq_dsed on an ephemeral localhost port, preloaded with a snapshot."""

    def __init__(self, snapshot, port_file, deadline):
        if os.path.exists(port_file):
            os.remove(port_file)
        self.start = time.monotonic()
        self.proc = subprocess.Popen(
            [os.path.join(BUILD, "apsq_dsed"), "--store", snapshot,
             "--port-file", port_file, "--threads", "2"],
            env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        self.port = 0
        while self.port == 0:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited during start-up")
            remaining(deadline)
            try:
                with open(port_file) as f:
                    self.port = int(f.read().strip() or 0)
            except (OSError, ValueError):
                pass
            if self.port == 0:
                time.sleep(0.0005)

    def request(self, line, timeout=60.0):
        with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as s:
            s.sendall((line + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return json.loads(buf.decode() or "{}")

    def stop(self):
        try:
            if self.proc.poll() is None:
                self.request('{"cmd": "shutdown"}', timeout=30.0)
            self.proc.wait(timeout=30.0)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGKILL)
                self.proc.wait()
        return self.proc.returncode


# ------------------------------------------------------------ workloads

def tail_note(values, what):
    """Which percentile tail_ms is, over how many samples; plus the highest
    percentile with ten samples beyond it, which is reported, not gated."""
    _, pct, beyond, n = benchlib.tail(values)
    note = "tail_ms = p%g of %d %s, %d beyond" % (pct, n, what, beyond)
    high = benchlib.highest_tail(values)
    if high:
        note += "; p%.2f (10 beyond) = %.3f ms" % (high[1], high[0])
    return note


def batch_metrics(raw):
    s = raw["series"]
    p50 = s["p50_ms"]
    t_val = benchlib.tail(p50)[0]
    notes = {"tail": tail_note(p50, "serial ops"),
             "host_speed": {"ref_ms": benchlib.median(s["ref_ms"]),
                            "raw_p50_ms": benchlib.median(s["raw.p50_ms"]),
                            "raw_alt_p50_ms": benchlib.median(s["raw.alt_p50_ms"])}}
    med, alt = benchlib.median(p50), benchlib.median(s["alt_p50_ms"])
    metrics = {
        "setup_s": benchlib.median(s["setup_s"]),
        "peak_rss_mb": raw["values"]["peak_rss_mb"],
        "p50_ms": med,
        "alt_p50_ms": alt,
        "tail_ms": t_val,
        # Points per second over a median pair (one serial, one 2-worker
        # op): a sum over all ops would follow the slowest few.
        "rate_per_s": 2 * benchlib.median(s["op_points"]) / ((med + alt) / 1e3),
    }
    return metrics, notes


def run_batch(cmd, a, deadline):
    out = os.path.join(OUT, "%s-%d-t%d.json" % (a.workload, a.seed, a.trace))
    driver([cmd, "--seed", a.seed, "--seconds", a.seconds, "--trace", a.trace,
            "--out", out], deadline)
    return load(out), out


def serve_snapshot(a, deadline):
    snap = os.path.join(OUT, "serve-mix-%d.snapshot.json" % a.seed)
    driver(["snapshot", "--seed", a.seed, "--out", snap], deadline)
    return snap


def time_restarts(snap, port_file, deadline, n):
    """Set-up: daemon cold start to the first answered ping, snapshot load
    included, over `n` restarts. Returns (seconds per restart, failures)."""
    setups, failed = [], 0
    for _ in range(n):
        d = Daemon(snap, port_file, deadline)
        try:
            ok = d.request('{"cmd": "ping"}').get("ok") is True
            setups.append(time.monotonic() - d.start)
        finally:
            rc = d.stop()
        failed += 0 if ok and rc == 0 else 1
    return setups, failed


def run_serve(a, deadline):
    snap = serve_snapshot(a, deadline)
    port_file = os.path.join(OUT, "serve-mix.port")
    # Half the restarts before the client run and half after it, so that
    # their median spans the run rather than its first seconds.
    setups, failed = time_restarts(snap, port_file, deadline, DAEMON_RESTARTS // 2)
    d = Daemon(snap, port_file, deadline)
    out = os.path.join(OUT, "serve-mix-%d-t0.json" % a.seed)
    try:
        driver(["serve-client", "--seed", a.seed, "--seconds", a.seconds,
                "--port", d.port, "--snapshot", snap, "--out", out], deadline)
        rss = benchlib.peak_rss_mb(d.proc.pid)
    finally:
        rc = d.stop()
    failed += 0 if rc == 0 else 1
    more, more_failed = time_restarts(snap, port_file, deadline,
                                      DAEMON_RESTARTS - DAEMON_RESTARTS // 2)
    setups += more
    raw = load(out)
    raw["attempted"] += DAEMON_RESTARTS + 1
    raw["failed"] += failed + more_failed
    s = raw["series"]
    # Every time at the nominal host speed (see driver.cpp, "host speed"):
    # the driver scales the queries, the daemon set-up is scaled here.
    scale = raw["values"]["speed_scale"]
    warm, cold = s.get("warm_ms", []), s.get("cold_ms", [])
    t_val = benchlib.tail(warm)[0]
    metrics = {
        "setup_s": benchlib.median(setups) * scale,
        "peak_rss_mb": rss,
        "p50_ms": benchlib.median(warm),
        "alt_p50_ms": benchlib.median(cold),
        "tail_ms": t_val,
        # Queries per second the two closed-loop clients complete when each
        # query takes its kind's median round trip: completed / elapsed
        # would follow every host stall (27% slower in runs with 13% CPU
        # steal, where the medians moved 10-15%).
        "rate_per_s": 2 * 1e3 * (len(warm) + len(cold)) / (
            len(warm) * benchlib.median(warm) + len(cold) * benchlib.median(cold)),
    }
    notes = {"tail": tail_note(warm, "warm queries"),
             "queries": {"warm": len(warm), "cold": len(cold),
                         "completed_per_s": (len(warm) + len(cold)) /
                         raw["values"]["elapsed_s"]},
             "host_speed": {"ref_ms": benchlib.median(s["ref_ms"]),
                            "raw_setup_s": benchlib.median(setups),
                            "raw_p50_ms": benchlib.median(s["raw.warm_ms"]),
                            "raw_alt_p50_ms": benchlib.median(s["raw.cold_ms"])}}
    return raw, metrics, notes


# ------------------------------------------------------------ traced run

def layer_metrics(raw, stats):
    """Per-layer metrics of a traced run from its spans and counters."""
    s, v = raw["series"], raw["values"]

    def med_us(name):
        st = stats.get(name)
        return benchlib.median(st["durs"]) if st else None

    def med_ms(name):
        x = med_us(name)
        return None if x is None else x / 1e3

    def diff(x, y):
        return None if x is None or y is None else x - y

    m = {}
    proxy = stats.get("accuracy_proxy.psum_error_proxy")
    op_span = raw["notes"].get("op_span", "")
    op = med_ms(op_span)
    if proxy:
        m["accuracy_proxy.ms_per_call"] = proxy["total_us"] / proxy["count"] / 1e3
    if "accuracy_proxy.calls" in v:
        m["accuracy_proxy.calls"] = v["accuracy_proxy.calls"]
    elif "accuracy_proxy.calls" in s:
        m["accuracy_proxy.calls"] = benchlib.median(s["accuracy_proxy.calls"])
    if proxy and "raw.p50_ms" in s:
        # The proxy's cost per op (the op's calls at the traced cost per
        # call) over the median serial SweepSession op, both as measured.
        m["accuracy_proxy.self_share"] = (
            m["accuracy_proxy.ms_per_call"] * m["accuracy_proxy.calls"] /
            benchlib.median(s["raw.p50_ms"]))
    if "tt.accuracy_races" in s:
        races = benchlib.median(s["tt.accuracy_races"])
        misses = benchlib.median(s["tt.accuracy_misses"])
        m["tt.accuracy_races"] = races
        m["tt.accuracy_useful_ratio"] = misses / (misses + races)
        m["tt.score_hit_ratio"] = sum(s["tt.score_hits"]) / sum(s["tt.score_lookups"])
    for metric, span in (("config_space.decode_us", "config_space.at"),
                         ("design_point.key_us", "design_point.canonical_key"),
                         ("energy.us_per_call", "energy.workload_energy"),
                         ("performance.us_per_call", "performance.workload_performance"),
                         ("rae.area_us", "rae.area"),
                         ("evaluator.point_us_cold", "evaluator.evaluate_point.cold"),
                         ("evaluator.point_us_warm", "evaluator.evaluate_point.warm")):
        m[metric] = med_us(span)
    for metric, span in (("search.driver_ms", "search.SearchDriver::run"),
                         ("search.oracle_ms", "search.oracle.evaluate_points_at"),
                         ("pareto.front_ms", "pareto.pareto_front_by_workload"),
                         ("sweep.post_eval_ms", "sweep.extract_front"),
                         ("store.load_ms", "store.load_file"),
                         ("store.find_ms", "store.find"),
                         ("store.put_ms", "store.put"),
                         ("store.to_json_ms", "store.to_json"),
                         ("dispatcher.query_warm_ms", "dispatcher.query.warm"),
                         ("dispatcher.query_cold_ms", "dispatcher.query.cold")):
        m[metric] = med_ms(span)
    m["search.select_ms"] = diff(m["search.driver_ms"], m["search.oracle_ms"])
    m["protocol.line_overhead_ms"] = diff(
        med_ms("protocol.handle_request_line.warm"), m["dispatcher.query_warm_ms"])
    if "server.transport_ms" in s:
        m["server.transport_ms"] = benchlib.median(s["server.transport_ms"])
    for key in ("search.rounds", "search.evaluated", "store.snapshot_mb",
                "dispatcher.fresh_evaluations", "dispatcher.coalesced",
                "dispatcher.eval_batches"):
        if key in v:
            m[key] = v[key]
    if "response_kb" in s:
        m["protocol.response_kb"] = benchlib.median(s["response_kb"])
    # pool.width: the narrowest pool any 2-worker op saw.
    m["pool.width"] = min(s.get("pool.width", [v["pool.width"]]))
    m["pool.steals"] = (benchlib.median(s["pool.steals"]) if "pool.steals" in s
                        else v.get("pool.steals"))
    if "raw.p50_ms" in s:
        p50, alt = benchlib.median(s["raw.p50_ms"]), benchlib.median(s["raw.alt_p50_ms"])
        m["pool.parallel_efficiency"] = p50 / (2.0 * alt)
    else:
        op = med_ms("server.round_trip")
    # The traced op against the same op run untraced in the same process.
    m["trace.overhead_ms"] = diff(op, benchlib.median(s.get("untraced_op_ms", [])) or None)
    measured = {k: x for k, x in m.items() if x is not None}
    off_path = sorted(k for k in LAYER_UNITS if k not in measured)
    metrics = {k: float(measured.get(k, 0.0)) for k in LAYER_UNITS}
    return metrics, off_path


def write_self_time(path, stats, op_span):
    rows = benchlib.self_time_table(stats)
    lines = ["%-40s %8s %12s %12s %8s" % ("span", "calls", "total_ms",
                                         "self_ms", "share")]
    for name, calls, total, self_ms, share in rows:
        lines.append("%-40s %8d %12.3f %12.3f %7.1f%%" % (
            name, calls, total, self_ms, 100 * share))
    if op_span:
        lines.append("(self-time shares are of all recorded spans; the op span "
                     "is %s)" % op_span)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return lines


def run_traced(a, deadline):
    if a.workload == "paper-sweep":
        raw, out = run_batch("paper", a, deadline)
    elif a.workload == "fine-search":
        raw, out = run_batch("fine", a, deadline)
    else:
        snap = serve_snapshot(a, deadline)
        out = os.path.join(OUT, "serve-mix-%d-t1.json" % a.seed)
        driver(["serve-trace", "--seed", a.seed, "--seconds", a.seconds,
                "--snapshot", snap, "--out", out], deadline)
        raw = load(out)
    trace_path = out + ".trace.json"
    stats = benchlib.span_stats(load(trace_path)["traceEvents"])
    metrics, off_path = layer_metrics(raw, stats)
    table = write_self_time(out + ".selftime.txt", stats,
                            raw["notes"].get("op_span"))
    for line in table:
        print(line)
    notes = {"trace": os.path.relpath(trace_path, ROOT),
             "off_path": off_path}
    if "cold_queries" in raw["values"]:
        notes["replay"] = {"warm": raw["values"]["warm_queries"],
                           "cold": raw["values"]["cold_queries"]}
    return raw, metrics, notes


# ------------------------------------------------------------ main

def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        build()
        # The first run in a checkout builds; measuring starts afterwards.
        deadline = time.monotonic() + RUN_LIMIT_S
        os.makedirs(OUT, exist_ok=True)
        cpu0, load0 = benchlib.read_proc_stat(), benchlib.read_loadavg()
        if a.trace:
            raw, metrics, notes = run_traced(a, deadline)
            units = LAYER_UNITS
        elif a.workload == "serve-mix":
            raw, metrics, notes = run_serve(a, deadline)
            units = UNITS
        else:
            cmd = "paper" if a.workload == "paper-sweep" else "fine"
            raw, _ = run_batch(cmd, a, deadline)
            metrics, notes = batch_metrics(raw)
            units = UNITS
        cpu = benchlib.cpu_delta(cpu0, benchlib.read_proc_stat())
    except BenchError as e:
        log(str(e))
        return 1

    host = {"nproc": os.cpu_count(), "loadavg_start": load0,
            "loadavg_end": benchlib.read_loadavg(), "cpu_ticks": cpu}
    notes["host_noise"] = host
    notes["failures"] = raw.get("failures", [])
    print("notes: " + json.dumps(notes, sort_keys=True))
    with open(os.path.join(OUT, "%s-%d-t%d.result.json" % (
            a.workload, a.seed, a.trace)), "w") as f:
        json.dump({"metrics": metrics, "notes": notes}, f, indent=1)
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
