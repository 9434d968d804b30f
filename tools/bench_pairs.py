#!/usr/bin/env python3
"""Paired benchmark record of this checkout against a parent commit.

    python3 tools/bench_pairs.py PARENT_REF N --out BENCH_25.json --what "..."

Exports ``PARENT_REF`` with ``git archive`` into a temporary directory and
runs ``BENCHMARK.json``'s command (``perfbench/run.py``) in that tree and in
this checkout, one process at a time with one BLAS thread: for each of N
fixed seeds from 51, one parent/change pair per workload, cycling through
the workloads, the change first on odd seeds.  Each run is ``--workload W
--seed S --seconds SECONDS --trace 0``, SECONDS being ``BENCHMARK.json``'s
``run_seconds``.

The record holds, for every workload and end-to-end metric, the median and
quartiles (``statistics.quantiles``, n=4) of each side's runs, the ratio of
the medians, the pairs compared, the pairs each side won and every run's
value, plus the operations each side attempted and failed and whether the
checkpoint, predictions-CSV and gradcheck-report hashes agreed in every
pair.  A run that prints no metrics counts as failed and its pair is left
out of the statistics, so ``pairs_compared`` can be less than the pairs
run.  Exit 0 when every run was correct, 1 otherwise.
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
HOST_KEYS = ("blas", "machine", "nproc", "numpy", "python", "scipy", "threads")
TIMEOUT = 900
FIRST_SEED = 51  # the seeds of BENCH_23 and later
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
    "passes.")


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


def run_once(tree, workload, seed):
    """One benchmark run in ``tree``: its env, metrics (None when it printed
    none), operation counts and the artifact hashes of its first pass."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=TIMEOUT, env=one_blas_thread())
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    env = next((json.loads(ln[6:]) for ln in lines if ln.startswith("# env ")), {})
    record = next((ln.split(" ", 3)[3] for ln in lines
                   if ln.startswith("# result file ")), None)
    hashes = {}
    if record:
        passes = json.loads(Path(record).read_text())["passes"]
        hashes = {k: next((p[k] for p in passes if k in p), None) for k in HASHES}
    correct = proc.returncode == 0 and result is not None and result["correct"]
    if not correct:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
    return {"env": env, "correct": correct, "hashes": hashes,
            "attempted": result["attempted"] if result else 0,
            "failed": result["failed"] if result else 1,
            "metrics": ({k: v["value"] for k, v in result["metrics"].items()}
                        if result and result["metrics"] else None)}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric, pairs):
    """One end-to-end metric's entry over the ``(parent, change)`` runs."""
    name, better = metric["name"], metric["better"]
    kept = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs
            if p["metrics"] and c["metrics"]]
    parent, change = [p for p, _ in kept], [c for _, c in kept]
    entry = {"unit": metric["unit"], "better": better, "bound": metric["bound"],
             "pairs_compared": len(kept)}
    if len(kept) < 2:
        return {**entry, "runs": {"parent": parent, "change": change}}
    sign = -1 if better == "lower" else 1
    entry.update(parent=summary(parent), change=summary(change))
    entry["change_over_parent_median"] = \
        entry["change"]["median"] / entry["parent"]["median"]
    entry["pairs_change_better"] = sum(sign * (c - p) > 0 for p, c in kept)
    entry["pairs_tied"] = sum(c == p for p, c in kept)
    entry["runs"] = {"parent": parent, "change": change}
    return entry


def workload_record(seeds, pairs):
    sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    return {
        "runs_per_side": len(pairs),
        "seeds": seeds,
        "failed_operations": {s: sum(r["failed"] for r in runs)
                              for s, runs in sides.items()},
        "attempted_operations": {s: sum(r["attempted"] for r in runs)
                                 for s, runs in sides.items()},
        "correct": {s: all(r["correct"] for r in runs)
                    for s, runs in sides.items()},
        "artifact_hashes_equal_in_every_pair": {
            k: all(p["hashes"].get(k) == c["hashes"].get(k) for p, c in pairs)
            for k in HASHES},
        "metrics": {m["name"]: compare(m, pairs) for m in SPEC["end_to_end"]},
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
        for seed in seeds:
            for w in workloads:
                order = ["change", "parent"] if seed % 2 else ["parent", "change"]
                runs = {}
                for side in order:
                    tree = ROOT if side == "change" else parent_tree
                    runs[side] = run_once(tree, w, seed)
                    print(f"  {w:15s} seed {seed:3d} {side:6s} "
                          f"{'ok' if runs[side]['correct'] else 'FAILED'}",
                          flush=True)
                pairs[w].append((runs["parent"], runs["change"]))

    parent_env, change_env = (r["env"] for r in pairs[workloads[0]][0])
    record = {
        "what": " ".join(filter(None, [args.what, PROTOCOL])),
        "parent_commit": commit,
        "parent_src_sha256": parent_env.get("src_sha256"),
        "change_src_sha256": change_env.get("src_sha256"),
        "host": {k: change_env.get(k) for k in HOST_KEYS},
        "workloads": {w: workload_record(seeds, ps) for w, ps in pairs.items()},
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for w, rec in record["workloads"].items():
        for name, m in rec["metrics"].items():
            if "parent" in m:
                print(f"{w:15s} {name:24s} parent {m['parent']['median']:.4g} "
                      f"change {m['change']['median']:.4g} "
                      f"({m['change_over_parent_median']:.3f}x, change better "
                      f"in {m['pairs_change_better']}/{m['pairs_compared']})")
    return 0 if all(all(rec["correct"].values())
                    for rec in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
