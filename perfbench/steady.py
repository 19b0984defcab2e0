#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steady.py --workload serve-mix --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed (sequentially, --trace 0, the
run_seconds of BENCHMARK.json) and prints, per metric, the median and the
quartile spread (q3 - q1) / median next to a third of the metric's bound —
the margin a steady benchmark keeps. Exits 1 if any run fails or is
incorrect.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in a.seeds:
        start = time.monotonic()
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             a.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, r.returncode))
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        print("seed %d (%.0f s): correct=%s attempted=%d failed=%d %s" % (
            seed, time.monotonic() - start, res["correct"], res["attempted"], res["failed"],
            {k: float("%.6g" % v["value"]) for k, v in res["metrics"].items()}),
            flush=True)
        for k in values:
            values[k].append(res["metrics"][k]["value"])
    if len(values["setup_s"]) >= 2:
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            spread = benchlib.quartile_spread(v)
            print("%-12s median %-14.6g spread %.4f  (bound/3 %.4f)%s" % (
                m["name"], benchlib.median(v), spread, m["bound"] / 3,
                "" if spread < m["bound"] / 3 else "  <-- too wide"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
