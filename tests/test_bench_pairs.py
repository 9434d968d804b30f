"""The pair runner's statistics (``tools/bench_pairs.py``'s ``compare``) on
made-up runs; the script is loaded from its file and starts no run."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def compare():
    """``compare`` of a metric ``m`` over ``(parent, change)`` values, None
    standing for a run that printed no metrics."""
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return lambda better, *pairs: module.compare(
        {"name": "m", "unit": "s", "better": better, "bound": 0.25},
        [tuple({"metrics": None if v is None else {"m": v}} for v in pair)
         for pair in pairs])


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
