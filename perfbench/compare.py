#!/usr/bin/env python3
"""Collect, check and compare sets of benchmark runs.

  python3 perfbench/compare.py collect SET [SET ...] [--seeds 1-10]
                                                    [--trace 0|1]
      Collects one run set per SET, where SET is DIR (run this checkout)
      or DIR=CHECKOUT (run the perfbench/run.py of another checkout, for
      example the parent commit). Every workload of BENCHMARK.json runs at
      its run_seconds. The sets take turns run by run, and which set goes
      first alternates seed by seed, so drift of the host over the
      collection hits every set alike. Each run's stdout (provenance line, metric lines,
      result JSON) is kept as DIR/<workload>/seed<N>.out.

  python3 perfbench/compare.py spread DIR
      Steadiness of one set: per workload and metric, the median, the
      quartiles and the interquartile spread as a share of the median,
      against the metric's bound from BENCHMARK.json. Exits 1 when a spread
      exceeds its bound.

  python3 perfbench/compare.py compare BASE NEW
      For each workload and end-to-end metric: both sides' median and
      quartiles and a verdict. "improved" needs NEW to win at least 9/10 of
      the seed-paired runs (ties count for neither) and a median gap larger
      than BASE's interquartile spread. "worse" means NEW's median is worse
      than BASE's by more than the metric's bound. When BASE's spread
      exceeds the bound the verdict is "unresolved" unless every NEW run
      beats every BASE run. Anything else is "unchanged". Exits 1 when any
      verdict is "worse".

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: m for m in spec["per_layer"]})
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_runs(directory):
    """{workload: {seed: result}} from DIR/<workload>/seed<N>.out. A run's
    metrics are its result line's plus those only on its "metric" lines
    (the per-operation figures behind latency_ms, for example)."""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        sub = os.path.join(directory, workload)
        if not os.path.isdir(sub):
            continue
        for name in sorted(os.listdir(sub)):
            if not (name.startswith("seed") and name.endswith(".out")):
                continue
            with open(os.path.join(sub, name)) as f:
                lines = [l for l in f.read().splitlines() if l.strip()]
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"warning: {sub}/{name} has no result line",
                      file=sys.stderr)
                continue
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    result["metrics"].setdefault(
                        parts[1], {"value": float(parts[2]), "unit": parts[3]})
            runs.setdefault(workload, {})[int(name[4:-4])] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]


def collect(args):
    spec, _ = load_spec()
    sets = []
    for text in args.sets:
        directory, _, checkout = text.partition("=")
        sets.append((directory,
                     os.path.abspath(checkout) if checkout else ROOT))
    for i, seed in enumerate(parse_seeds(args.seeds)):
        first = i % len(sets)  # which set runs first alternates by seed
        for workload in [w["name"] for w in spec["workloads"]]:
            for directory, checkout in sets[first:] + sets[:first]:
                out_dir = os.path.join(directory, workload)
                os.makedirs(out_dir, exist_ok=True)
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace)]
                with open(os.path.join(out_dir, f"seed{seed}.err"), "w") as err:
                    done = subprocess.run(cmd, cwd=checkout,
                                          stdout=subprocess.PIPE, stderr=err,
                                          text=True)
                with open(os.path.join(out_dir, f"seed{seed}.out"), "w") as f:
                    f.write(done.stdout)
                last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"{directory} {workload} seed {seed}: "
                      f"exit {done.returncode} {last[0]}", flush=True)
    return 0


def spread(args):
    _, metrics = load_spec()
    status = 0
    for workload, by_seed in load_runs(args.dir).items():
        results = [by_seed[s] for s in sorted(by_seed)]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed} failed checks")
        names = sorted({n for r in results for n in r["metrics"]})
        for name in names:
            values = metric_values(results, name)
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / abs(med) if med else math.inf
            bound = metrics.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if rel <= bound / 3 else (
                    "within bound" if rel <= bound else "TOO WIDE")
                if rel > bound:
                    status = 1
            print(f"  {name:44s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {rel:7.2%}"
                  + (f"  bound {bound:.0%} {verdict}" if bound is not None
                     else ""))
    return status


def verdict(pairs, better, bound):
    """Verdict for one metric from seed-paired (base, new) values."""
    sign = 1 if better == "higher" else -1
    base = [b for b, _ in pairs]
    new = [n for _, n in pairs]
    q1, base_med, q3 = quartiles(base)
    iqr = q3 - q1
    gain = sign * (statistics.median(new) - base_med)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if base_med and iqr / abs(base_med) > bound:
        if min(sign * n for n in new) > max(sign * b for b in base):
            return "improved"
        return "unresolved"
    if wins >= math.ceil(0.9 * len(pairs)) and gain > iqr:
        return "improved"
    if -gain > bound * abs(base_med):
        return "worse"
    return "unchanged"


def compare(args):
    spec, _ = load_spec()
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    status = 0
    for workload in sorted(set(base_runs) & set(new_runs)):
        print(workload)
        for m in spec["end_to_end"]:
            name = m["name"]
            base = {s: r["metrics"][name]["value"]
                    for s, r in base_runs[workload].items()
                    if name in r["metrics"]}
            new = {s: r["metrics"][name]["value"]
                   for s, r in new_runs[workload].items()
                   if name in r["metrics"]}
            pairs = [(base[s], new[s]) for s in sorted(set(base) & set(new))]
            if not pairs:
                continue
            bq = quartiles([b for b, _ in pairs])
            nq = quartiles([n for _, n in pairs])
            v = verdict(pairs, m["better"], m["bound"])
            status = max(status, 1 if v == "worse" else 0)
            print(f"  {name:28s} base {bq[1]:11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                  f"  new {nq[1]:11.5g} [{nq[0]:.5g}, {nq[2]:.5g}]"
                  f"  {m['unit']:7s} {v}")
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("sets", nargs="+")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()
    return {"collect": collect, "spread": spread, "compare": compare}[
        args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
