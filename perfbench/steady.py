#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs one workload once per seed and prints, for every metric, the median
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/steady.py --workload stream --seeds 1-5
    python3 perfbench/steady.py --workload paper-sweep --seeds 11-20 --trace 1
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, ok = {}, True
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"] and res["failed"] == 0
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, res["correct"], res["attempted"], res["failed"],
            " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))),
            flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k in sorted(values):
        vs = values[k]
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med != 0:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        b = bounds.get(k)
        flag = ""
        if b is not None:
            flag = "bound %.3f %s" % (b, "ok" if spread < b / 3 else "WIDE")
        print("%-40s median %-12.6g spread %.4f %s" % (k, med, spread, flag))
    print("all runs correct with no failures:", ok)


if __name__ == "__main__":
    main()
