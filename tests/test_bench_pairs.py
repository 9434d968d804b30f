"""The pair runner's statistics (``tools/bench_pairs.py``'s ``compare``) on
made-up runs, and its handling of a run that times out; the script is
loaded from its file and starts no run."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(pairs):
    """``(parent, change)`` runs of a metric ``m`` from their values, None
    standing for a run that printed no metrics."""
    return [tuple({"metrics": None if v is None else {"m": v}} for v in pair)
            for pair in pairs]


@pytest.fixture(scope="module")
def compare(bench_pairs):
    """``compare`` of an end-to-end metric ``m`` over ``(parent, change)``
    values."""
    return lambda better, *pairs: bench_pairs.compare(
        {"name": "m", "unit": "s", "better": better, "bound": 0.25}, runs(pairs))


@pytest.mark.parametrize("better,wins", [("higher", 2), ("lower", 1)])
def test_wins_follow_the_sign_and_a_tie_counts_for_neither(compare, better,
                                                         wins):
    entry = compare(better, (1.0, 2.0), (3.0, 3.0), (5.0, 4.0), (1.0, 1.5))
    assert (entry["pairs_compared"], entry["pairs_change_better"],
            entry["pairs_tied"]) == (4, wins, 1)


def test_a_pair_with_a_metric_less_run_is_left_out(compare):
    entry = compare("lower", (2.0, 1.0), (None, 0.5), (2.0, 3.0), (4.0, None),
                    (2.0, 1.0))
    assert (entry["pairs_compared"], entry["pairs_change_better"]) == (3, 2)
    assert entry["runs"] == {"parent": [2.0] * 3, "change": [1.0, 3.0, 1.0]}
    assert entry["change_over_parent_median"] == 0.5


@pytest.mark.parametrize("pairs", [[], [(1.0, 2.0)], [(1.0, 2.0), (None, 1.0)]],
                         ids=["none", "one", "one_kept"])
def test_fewer_than_two_kept_pairs_give_only_the_runs(compare, pairs):
    kept = [pair for pair in pairs if None not in pair]
    assert compare("higher", *pairs) == {
        "unit": "s", "better": "higher", "bound": 0.25,
        "pairs_compared": len(kept),
        "runs": {"parent": [p for p, _ in kept], "change": [c for _, c in kept]}}


def test_a_per_layer_metric_has_a_null_bound(bench_pairs):
    entry = bench_pairs.compare({"name": "m", "unit": "ms", "better": "lower"},
                                runs([(2.0, 1.0), (4.0, 3.0), (2.0, 2.5)]))
    assert entry["bound"] is None
    assert (entry["pairs_compared"], entry["pairs_change_better"]) == (3, 2)
    assert entry["change_over_parent_median"] == 1.25


@pytest.mark.parametrize("pairs", [
    [(-1.0, -2.5), (-1.2, -3.0), (-0.8, -2.0)],
    [(1.0, -2.5), (2.0, -3.0), (3.0, 0.5)],
    [(0.0, 1.0), (0.0, 2.0), (1.0, 3.0)]],
    ids=["both_negative", "change_negative", "parent_zero"])
def test_a_median_that_is_not_positive_gives_no_ratio_and_no_wins(compare,
                                                                  pairs):
    entry = compare("lower", *pairs)
    assert "change_over_parent_median" not in entry
    assert "pairs_change_better" not in entry
    assert entry["pairs_compared"] == 3 and entry["pairs_tied"] == 0
    assert entry["parent"]["median"] == sorted(p for p, _ in pairs)[1]


def test_a_timed_out_run_is_a_failed_run_without_metrics(bench_pairs,
                                                         monkeypatch):
    def time_out(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(bench_pairs.subprocess, "run", time_out)
    timed_out = bench_pairs.run_once(Path("."), "eval-long", 51, trace=1)
    assert timed_out == {"env": {}, "correct": False, "hashes": {},
                         "attempted": 0, "failed": 1, "metrics": None,
                         "raw_seconds": None}
    ran = {"env": {}, "correct": True, "hashes": {}, "attempted": 3,
           "failed": 0, "metrics": {m["name"]: 1.0
                                    for m in bench_pairs.SPEC["end_to_end"]},
           "raw_seconds": None}
    record = bench_pairs.workload_record(
        [51, 52, 53], [(ran, ran), (timed_out, ran), (ran, ran)],
        traced=[(timed_out, timed_out)])
    assert all(e["pairs_compared"] == 2 for e in record["metrics"].values())
    assert record["correct"] == {"parent": False, "change": True}
    assert record["failed_operations"] == {"parent": 1, "change": 0}
    assert record["traced_correct"] == {"parent": False, "change": False}
    assert all(e["pairs_compared"] == 0 for e in record["per_layer"].values())
    # no run recorded a hash, so no pair shows the same artifacts
    assert record["artifact_hashes_equal_in_every_pair"] == dict.fromkeys(
        bench_pairs.HASHES, False)


def test_traced_pairs_give_every_per_layer_metric(bench_pairs):
    names = [m["name"] for m in bench_pairs.SPEC["per_layer"]]
    run = {"env": {}, "correct": True, "hashes": {}, "attempted": 1,
           "failed": 0, "metrics": dict.fromkeys(names, 2.0),
           "raw_seconds": None}
    untraced = {**run, "metrics": {m["name"]: 1.0
                                   for m in bench_pairs.SPEC["end_to_end"]}}
    record = bench_pairs.workload_record([51, 52], [(untraced, untraced)] * 2,
                                         traced=[(run, run)] * 2)
    assert record["traced_runs_per_side"] == 2
    assert record["traced_correct"] == {"parent": True, "change": True}
    assert list(record["per_layer"]) == names
    assert all(e["bound"] is None and e["pairs_tied"] == 2
               for e in record["per_layer"].values())


def test_raw_phase_times_are_each_runs_median_over_its_untraced_passes(
        bench_pairs, monkeypatch, tmp_path):
    # perfbench's result file: untraced passes 0 and 2 time every phase,
    # pass 1 is traced, and only pass 0 audits
    passes = [{"index": 0, "traced": False, "model_s": 2.0, "gate_s": 1.0,
               "eval_s": 0.5, "audit_s": 0.25, "ckpt_sha256": "c"},
              {"index": 1, "traced": True, "model_s": 9.0, "gate_s": 9.0,
               "eval_s": 9.0, "audit_s": 9.0},
              {"index": 2, "traced": False, "model_s": 4.0, "gate_s": 3.0,
               "eval_s": 1.5}]
    (tmp_path / "r.json").write_text(json.dumps({"passes": passes}))
    line = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
    stdout = f"# result file {tmp_path / 'r.json'}\n{json.dumps(line)}\n"
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda cmd, **kw: subprocess.CompletedProcess(
                            cmd, 0, stdout, ""))
    run = bench_pairs.run_once(tmp_path, "gradcheck-tiny", 51)
    assert run["raw_seconds"] == {"model_s": 3.0, "gate_s": 2.0,
                                  "eval_s": 1.0, "audit_s": 0.25}
    assert run["hashes"] == {"ckpt_sha256": "c", "csv_sha256": None,
                             "audit_sha256": None}

    def timed(audit_s):
        return {**run, "raw_seconds": {**run["raw_seconds"],
                                       "audit_s": audit_s}}

    record = bench_pairs.workload_record(
        [51, 52, 53], [(timed(0.4), timed(0.3)), (timed(0.5), timed(0.45)),
                       (timed(0.3), {**run, "raw_seconds": None})],
        traced=[])
    audit = record["raw_seconds"]["audit_s"]
    assert (audit["bound"], audit["better"], audit["pairs_compared"]) == (
        None, "lower", 2)
    assert audit["runs"] == {"parent": [0.4, 0.5], "change": [0.3, 0.45]}
    assert audit["pairs_change_better"] == 2
    assert list(record["raw_seconds"]) == list(bench_pairs.RAW_TIMES)
    # a run whose result file lacks a phase has no raw times
    passes[2:] = []
    del passes[0]["audit_s"]
    (tmp_path / "r.json").write_text(json.dumps({"passes": passes}))
    assert bench_pairs.run_once(tmp_path, "gradcheck-tiny", 51)[
        "raw_seconds"] is None
