#!/usr/bin/env python3
"""Run the benchmark over many seeds and check that it is steady.

    python3 perfbench/spread.py                      # every workload, seeds 1-10
    python3 perfbench/spread.py --workloads eval-long --seeds 1-5
    python3 perfbench/spread.py --sets 2             # two sets, compared
    python3 perfbench/spread.py --seeds 1 --trace 1  # one traced run each

Runs ``BENCHMARK.json``'s command once per (set, seed, workload), one
process at a time, cycling through the workloads for each seed so slow
spells on the host fall on every workload alike.  For every end-to-end
metric and workload it prints the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  A spread above the metric's bound fails the check.
With ``--sets 2`` the second set's median may also not be worse than the
first's by more than the bound.  Repeated runs of a (workload, seed) pair
are compared byte for byte through the checkpoint, predictions-CSV and
gradcheck-report hashes each run records.  With ``--trace 1`` the per-layer medians are printed
instead (they carry no bound).

Exit status is 0 when every check passed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FIRST_RUN_TIMEOUT = 900


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=FIRST_RUN_TIMEOUT)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record_file = next((ln.split(" ", 3)[3] for ln in lines
                        if ln.startswith("# result file ")), None)
    hashes = {}
    if record_file:
        passes = json.loads(Path(record_file).read_text())["passes"]
        hashes = {k: next((p[k] for p in passes if k in p), None)
                  for k in ("ckpt_sha256", "csv_sha256", "audit_sha256")}
    ok = proc.returncode == 0 and result is not None and result["correct"]
    status = "ok" if ok else f"FAILED (exit {proc.returncode})"
    print(f"  {workload:15s} seed {seed:3d}  {wall:6.1f} s  {status}", flush=True)
    if not ok:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
    return {"workload": workload, "seed": seed, "wall": wall, "ok": ok,
            "metrics": {k: v["value"] for k, v in (result or {}).get("metrics", {}).items()},
            "hashes": hashes}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs = []
    for set_no in range(args.sets):
        print(f"set {set_no + 1}:", flush=True)
        for seed in seeds:
            for w in workloads:
                runs.append(dict(run_once(w, seed, args.seconds, args.trace), set=set_no))

    failures = [f"{r['workload']} seed {r['seed']} set {r['set'] + 1} failed"
                for r in runs if not r["ok"]]
    metrics = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    print(f"\n{'workload':15s} {'metric':32s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    for w in workloads:
        for m in metrics:
            sets = [[r["metrics"][m["name"]] for r in runs
                     if r["ok"] and r["workload"] == w and r["set"] == s]
                    for s in range(args.sets)]
            if any(not values for values in sets):
                continue
            bound = m.get("bound")
            for s, values in enumerate(sets):
                if len(values) < 2:  # a single run: its figure, no spread
                    print(f"{w:15s} {m['name']:32s} {values[0]:12.6g} {'-':>8s}")
                    continue
                median, width = spread(values)
                verdict = ""
                if bound is not None:
                    if width > bound:
                        verdict = "TOO WIDE"
                        failures.append(f"{w} {m['name']} spread {width:.3f} > {bound}")
                    else:
                        verdict = "steady" if width < bound / 3 else "within bound"
                label = m["name"] + (f" [set {s + 1}]" if args.sets > 1 else "")
                print(f"{w:15s} {label:32s} {median:12.6g} {width:8.4f} "
                      f"{bound if bound is not None else '-':>6}  {verdict}")
            if bound is not None and args.sets > 1 and min(map(len, sets)) > 1:
                first, last = statistics.median(sets[0]), statistics.median(sets[-1])
                change = worse_by(first, last, m["better"])
                if change > bound:
                    failures.append(f"{w} {m['name']} set medians differ: "
                                    f"{last:.6g} is {change:.1%} worse than {first:.6g}")

    by_pair = {}
    for r in runs:
        if r["ok"] and r["hashes"]:
            by_pair.setdefault((r["workload"], r["seed"]), set()).add(
                tuple(sorted(r["hashes"].items())))
    repeated = [pair for pair in by_pair
                if sum(1 for r in runs if (r["workload"], r["seed"]) == pair) > 1]
    if repeated:
        differ = [pair for pair in repeated if len(by_pair[pair]) > 1]
        print(f"\nbyte-identical artifacts across repeated runs: "
              f"{len(repeated) - len(differ)}/{len(repeated)} (workload, seed) pairs")
        failures.extend(f"{w} seed {s}: artifacts differ between runs" for w, s in differ)

    walls = [r["wall"] for r in runs]
    print(f"\n{len(runs)} runs, {sum(walls):.0f} s in all, longest {max(walls):.1f} s")
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
