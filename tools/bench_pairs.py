#!/usr/bin/env python3
"""Paired benchmark record of this checkout against a parent commit.

    python3 tools/bench_pairs.py PARENT_REF N --out BENCH_28.json --what "..."

Exports ``PARENT_REF`` with ``git archive`` into a temporary directory and
runs ``BENCHMARK.json``'s command (``perfbench/run.py``) in that tree and in
this checkout, one process at a time with one BLAS thread: for each of N
fixed seeds from 51, one parent/change pair per workload, cycling through
the workloads, the change first on odd seeds.  Each run is ``--workload W
--seed S --seconds SECONDS --trace 0``, SECONDS being ``BENCHMARK.json``'s
``run_seconds``.  ``TRACED_PAIRS`` more pairs per workload then run the
same way with ``--trace 1``, on the seeds from 51 again.

The record holds, for every workload and end-to-end metric, the median and
quartiles (``statistics.quantiles``, n=4) of each side's runs, the ratio of
the medians, the pairs compared, the pairs each side won and every run's
value, plus the operations each side attempted and failed and whether the
checkpoint, predictions-CSV and gradcheck-report hashes were recorded and
agreed in every pair.  Each workload's ``raw_seconds`` holds the same entry
for each run's median unscaled phase time over its untraced passes
(``RAW_TIMES``, from perfbench's result file), and its ``per_layer`` for
every per-layer metric over the traced pairs; neither has a bound (null).  Where a side's median is not positive, the ratio of the medians
and the pairs each side won mean nothing and are left out.  A run that
prints no metrics, or is stopped after ``TIMEOUT`` seconds, counts as
failed and its pair is left out of the statistics, so ``pairs_compared``
can be less than the pairs run.  Exit 0 when every run, traced or not, was
correct, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HASHES = ("ckpt_sha256", "csv_sha256", "audit_sha256")
RAW_TIMES = ("model_s", "gate_s", "eval_s", "audit_s")  # seconds, unscaled
HOST_KEYS = ("blas", "machine", "nproc", "numpy", "python", "scipy", "threads")
TIMEOUT = 900
FIRST_SEED = 51  # the seeds of BENCH_23 and later
TRACED_PAIRS = 3  # --trace 1 pairs per workload, after the untraced ones
PROTOCOL = (
    "For every workload and end-to-end metric of BENCHMARK.json: median and "
    "quartiles (statistics.quantiles, n=4) of the parent commit's runs and of "
    "the change's runs, each run one `python3 perfbench/run.py --workload W "
    f"--seed S --seconds {SPEC['run_seconds']:g} --trace 0` in its own "
    "checkout with one BLAS thread, parent and change alternating which ran "
    "first (odd seeds change first), one process at a time, written by "
    "tools/bench_pairs.py. "
    "Values are copied from the JSON line each run prints; runs lists them "
    "per seed. The parent is the commit named below, exported with git "
    "archive; the change is the checkout the script ran in, identified by "
    "the hash of its src/ (perfbench's src_sha256). pairs_compared counts "
    "the seeds where both runs printed metrics; pairs_change_better counts "
    "those whose change run beat the same seed's parent run. "
    "artifact_hashes_equal_in_every_pair compares the checkpoint, "
    "predictions-CSV and gradcheck-report hashes of each pair's first "
    "passes, and is false where a run recorded none. raw_seconds holds the "
    "same entry for each run's median unscaled model_s, gate_s, eval_s and "
    "audit_s over its untraced passes, read from perfbench's result file. "
    "per_layer holds the per-layer metrics of traced_runs_per_side "
    "more alternated pairs per workload, each run with --trace 1 in place "
    f"of --trace 0, on the seeds from {FIRST_SEED}. A metric whose median "
    "is not positive on either side has no change_over_parent_median or "
    "pairs_change_better.")


def one_blas_thread():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def export(ref, into):
    """The tree of commit ``ref`` under ``into``; returns the full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return commit


def run_once(tree, workload, seed, trace=0):
    """One benchmark run in ``tree``: its env, metrics (None when it printed
    none or timed out), operation counts, the artifact hashes of its first
    pass and its median ``RAW_TIMES`` over its untraced passes (None
    unless each was timed)."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=TIMEOUT, env=one_blas_thread())
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{' '.join(cmd)} in {tree}: timed out after "
                         f"{TIMEOUT} s\n")
        return {"env": {}, "correct": False, "hashes": {}, "attempted": 0,
                "failed": 1, "metrics": None, "raw_seconds": None}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    env = next((json.loads(ln[6:]) for ln in lines if ln.startswith("# env ")), {})
    record = next((ln.split(" ", 3)[3] for ln in lines
                   if ln.startswith("# result file ")), None)
    hashes, raw = {}, None
    if record:
        passes = json.loads(Path(record).read_text())["passes"]
        hashes = {k: next((p[k] for p in passes if k in p), None) for k in HASHES}
        times = {k: [p[k] for p in passes if not p["traced"] and k in p]
                 for k in RAW_TIMES}
        if all(times.values()):
            raw = {k: statistics.median(v) for k, v in times.items()}
    correct = proc.returncode == 0 and result is not None and result["correct"]
    if not correct:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
    return {"env": env, "correct": correct, "hashes": hashes,
            "attempted": result["attempted"] if result else 0,
            "failed": result["failed"] if result else 1,
            "metrics": ({k: v["value"] for k, v in result["metrics"].items()}
                        if result and result["metrics"] else None),
            "raw_seconds": raw}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric, pairs, field="metrics"):
    """One metric's entry over the ``(parent, change)`` runs, read from
    each run's ``field``; a per-layer metric or a raw time has no bound,
    and a median that is not positive gives no ratio and no wins."""
    name, better = metric["name"], metric["better"]
    kept = [(p[field][name], c[field][name]) for p, c in pairs
            if p[field] and c[field]]
    parent, change = [p for p, _ in kept], [c for _, c in kept]
    entry = {"unit": metric["unit"], "better": better,
             "bound": metric.get("bound"),
             "pairs_compared": len(kept)}
    if len(kept) < 2:
        return {**entry, "runs": {"parent": parent, "change": change}}
    sign = -1 if better == "lower" else 1
    entry.update(parent=summary(parent), change=summary(change))
    if entry["parent"]["median"] > 0 and entry["change"]["median"] > 0:
        entry["change_over_parent_median"] = \
            entry["change"]["median"] / entry["parent"]["median"]
        entry["pairs_change_better"] = sum(sign * (c - p) > 0 for p, c in kept)
    entry["pairs_tied"] = sum(c == p for p, c in kept)
    entry["runs"] = {"parent": parent, "change": change}
    return entry


def sides(pairs):
    return {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}


def all_correct(pairs):
    return {s: all(r["correct"] for r in runs) for s, runs in sides(pairs).items()}


def workload_record(seeds, pairs, traced):
    """A workload's entry; ``traced`` are its ``--trace 1`` pairs."""
    return {
        "runs_per_side": len(pairs),
        "seeds": seeds,
        "failed_operations": {s: sum(r["failed"] for r in runs)
                              for s, runs in sides(pairs).items()},
        "attempted_operations": {s: sum(r["attempted"] for r in runs)
                                 for s, runs in sides(pairs).items()},
        "correct": all_correct(pairs),
        "artifact_hashes_equal_in_every_pair": {
            k: all(p["hashes"].get(k) is not None
                   and p["hashes"].get(k) == c["hashes"].get(k)
                   for p, c in pairs)
            for k in HASHES},
        "metrics": {m["name"]: compare(m, pairs) for m in SPEC["end_to_end"]},
        "raw_seconds": {k: compare({"name": k, "unit": "s", "better": "lower"},
                                   pairs, "raw_seconds")
                        for k in RAW_TIMES},
        "traced_runs_per_side": len(traced),
        "traced_correct": all_correct(traced),
        "per_layer": {m["name"]: compare(m, traced) for m in SPEC["per_layer"]},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_ref", help="the commit to compare against")
    parser.add_argument("pairs", type=int, help="pairs per workload")
    parser.add_argument("--out", required=True, help="the record to write")
    parser.add_argument("--what", default="", help="what the change is")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.pairs))

    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        commit = export(args.parent_ref, parent_tree)
        pairs = {w: [] for w in workloads}
        traced = {w: [] for w in workloads}
        for trace, into, n in ((0, pairs, args.pairs), (1, traced, TRACED_PAIRS)):
            for seed in range(FIRST_SEED, FIRST_SEED + n):
                for w in workloads:
                    order = ["change", "parent"] if seed % 2 else ["parent", "change"]
                    runs = {}
                    for side in order:
                        tree = ROOT if side == "change" else parent_tree
                        runs[side] = run_once(tree, w, seed, trace)
                        print(f"  {w:15s} seed {seed:3d} trace {trace} "
                              f"{side:6s} "
                              f"{'ok' if runs[side]['correct'] else 'FAILED'}",
                              flush=True)
                    into[w].append((runs["parent"], runs["change"]))

    parent_env, change_env = (
        next((r["env"] for r in runs if r["env"]), {})
        for runs in sides(pairs[workloads[0]]).values())
    record = {
        "what": " ".join(filter(None, [args.what, PROTOCOL])),
        "parent_commit": commit,
        "parent_src_sha256": parent_env.get("src_sha256"),
        "change_src_sha256": change_env.get("src_sha256"),
        "host": {k: change_env.get(k) for k in HOST_KEYS},
        "workloads": {w: workload_record(seeds, ps, traced[w])
                      for w, ps in pairs.items()},
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for w, rec in record["workloads"].items():
        raw = {f"raw {k}": m for k, m in rec["raw_seconds"].items()}
        for name, m in {**rec["metrics"], **raw, **rec["per_layer"]}.items():
            if "change_over_parent_median" in m:
                print(f"{w:15s} {name:24s} parent {m['parent']['median']:.4g} "
                      f"change {m['change']['median']:.4g} "
                      f"({m['change_over_parent_median']:.3f}x, change better "
                      f"in {m['pairs_change_better']}/{m['pairs_compared']})")
    return 0 if all(all(rec["correct"].values())
                    and all(rec["traced_correct"].values())
                    for rec in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
