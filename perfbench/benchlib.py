"""Pure helpers of the DSE benchmark: order statistics, the tail rule,
span self times and /proc/stat host-noise deltas.

Kept free of I/O (apart from the thin readers at the bottom) so that
test_benchlib.py can pin each rule on hand-built inputs.
"""

import math
import statistics

# Samples beyond the highest reported tail percentile.
TAIL_BEYOND = 10
# The gated tail percentile: the highest that stayed within its bound in
# runs with 10-13% host CPU steal (p90 of warm serve-mix queries rose 65%
# in such runs, p75 20%).
TAIL_PCT = 75


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The gated tail: p75 by nearest rank.

    Returns (value, percentile, beyond, n), beyond being the number of
    samples ranked above it. A serve-mix run has thousands of samples, so
    a thousand lie beyond; a batch run has 3 to 35 ops, so up to 8 do.
    """
    if not values:
        return 0.0, 0.0, 0, 0
    s = sorted(values)
    n = len(s)
    rank = math.ceil(n * TAIL_PCT / 100.0)
    return s[rank - 1], float(TAIL_PCT), n - rank, n


def highest_tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    the sample with exactly TAIL_BEYOND samples above it, at percentile
    (n - TAIL_BEYOND) / n. Reported next to the metrics, not gated: it
    follows host CPU steal too closely to repeat between runs.

    Returns (value, percentile, beyond, n); None with too few samples.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return None
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND, n


def quartile_spread(values):
    """(q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def span_stats(events):
    """Per-name span statistics from chrome-trace complete events.

    Each event carries args.id and args.parent (-1 at top level). A span's
    self time is its duration minus the durations of its direct children
    (clamped at 0: child clocks are read after the parent's, so rounding
    can make them overhang by a few nanoseconds).

    Returns {name: {"count", "total_us", "self_us", "durs"}}.
    """
    child_us = {}
    for e in events:
        p = e["args"]["parent"]
        if p >= 0:
            child_us[p] = child_us.get(p, 0.0) + e["dur"]
    stats = {}
    for e in events:
        st = stats.setdefault(
            e["name"], {"count": 0, "total_us": 0.0, "self_us": 0.0, "durs": []})
        st["count"] += 1
        st["total_us"] += e["dur"]
        st["self_us"] += max(0.0, e["dur"] - child_us.get(e["args"]["id"], 0.0))
        st["durs"].append(e["dur"])
    return stats


def self_time_table(stats):
    """Rows (name, calls, total_ms, self_ms, self_share) sorted by self
    time; self_share is the span's self time over all recorded self time."""
    all_self = sum(s["self_us"] for s in stats.values()) or 1.0
    rows = [(name, s["count"], s["total_us"] / 1e3, s["self_us"] / 1e3,
             s["self_us"] / all_self) for name, s in stats.items()]
    return sorted(rows, key=lambda r: -r[3])


# Fields of the aggregate "cpu" line of /proc/stat, in kernel order.
CPU_FIELDS = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
              "steal")


def parse_proc_stat(text):
    """Tick counters of the aggregate "cpu" line of /proc/stat."""
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "cpu":
            ticks = [int(x) for x in parts[1:1 + len(CPU_FIELDS)]]
            ticks += [0] * (len(CPU_FIELDS) - len(ticks))
            return dict(zip(CPU_FIELDS, ticks))
    raise ValueError("no aggregate cpu line in /proc/stat text")


def cpu_delta(before, after):
    """Per-field tick deltas between two parse_proc_stat snapshots, plus
    the steal and iowait shares of all ticks that elapsed."""
    d = {k: after[k] - before[k] for k in CPU_FIELDS}
    total = sum(d.values()) or 1
    d["steal_share"] = d["steal"] / total
    d["iowait_share"] = d["iowait"] / total
    return d


def read_proc_stat(path="/proc/stat"):
    with open(path) as f:
        return parse_proc_stat(f.read())


def read_loadavg(path="/proc/loadavg"):
    with open(path) as f:
        return [float(x) for x in f.read().split()[:3]]


def peak_rss_mb(pid):
    """VmHWM of a live process, in MB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM for pid %d" % pid)
