"""Ranking metrics against enumeration oracles, plus prediction CSV I/O."""

import time

import numpy as np
import numpy.testing as npt
import pytest

from dualstream.errors import FormatError, MetricError
from dualstream.evaluation import (PredictionRecord, average_precision,
                                   f1_per_speaker, false_positive_count,
                                   metrics_report, read_predictions,
                                   write_predictions)


def rec(score, label, scene="s0", spk=0, frame=0, p_voice=0.5):
    return PredictionRecord(scene, spk, frame, score, p_voice, label)


def records_from(scores, labels):
    return [rec(s, l, frame=i) for i, (s, l) in enumerate(zip(scores, labels))]


def ap_enumeration_oracle(records):
    """Pairwise counting definition: precision at each positive's rank.

    Contributions are summed in rank order (ranks come from the pairwise
    counts themselves) so the value is bit-identical to any correct
    implementation that accumulates best-first.
    """

    def above(q, r):
        # does q rank strictly above r?
        if q.score != r.score:
            return q.score > r.score
        return (q.scene_id, q.speaker_idx, q.frame_idx) < \
               (r.scene_id, r.speaker_idx, r.frame_idx)

    positives = [r for r in records if r.label]
    contributions = []
    for p in positives:
        rank = 1 + sum(1 for q in records if q is not p and above(q, p))
        hits = 1 + sum(1 for q in positives if q is not p and above(q, p))
        contributions.append((rank, hits / rank))
    total = 0.0
    for _, value in sorted(contributions):
        total += value
    return total / len(positives)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        records = records_from([0.9, 0.8, 0.7, 0.2, 0.1], [1, 1, 1, 0, 0])
        assert average_precision(records) == 1.0

    def test_hand_case(self):
        records = records_from([0.9, 0.8, 0.7, 0.6, 0.5], [1, 0, 1, 1, 0])
        expected = (1.0 + 2.0 / 3.0 + 3.0 / 4.0) / 3.0
        npt.assert_allclose(average_precision(records), expected, rtol=1e-15)
        npt.assert_allclose(average_precision(records), 0.805555555555, atol=1e-9)

    def test_zero_positives_undefined(self):
        with pytest.raises(MetricError):
            average_precision(records_from([0.5, 0.2], [0, 0]))

    def test_matches_enumeration_oracle_exhaustively(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            scores = np.round(rng.uniform(-1, 1, n), 3)  # force some ties
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1
            records = [rec(float(s), int(l), spk=int(rng.integers(0, 3)),
                           frame=i) for i, (s, l) in enumerate(zip(scores, labels))]
            assert average_precision(records) == ap_enumeration_oracle(records), \
                f"trial {trial}"

    def test_reversed_ranking_matches_oracle(self):
        records = records_from([0.1, 0.2, 0.3, 0.4], [1, 1, 0, 0])
        assert average_precision(records) == ap_enumeration_oracle(records)

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(1)
        scores = np.round(rng.uniform(-2, 2, 64), 6)
        labels = rng.integers(0, 2, 64)
        labels[0] = 1
        base = average_precision(records_from(scores, labels))
        linear = average_precision(records_from(2.0 * scores + 1.0, labels))
        squashed = average_precision(records_from(np.tanh(scores), labels))
        assert base == linear == squashed

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 2, n)
            labels[0] = 1
            ap = average_precision(records_from(rng.normal(size=n), labels))
            assert 0.0 <= ap <= 1.0


class TestF1:
    def test_perfect(self):
        records = [rec(2.0, 1, spk=s, frame=f) for s in range(3) for f in range(4)]
        records += [rec(-2.0, 0, spk=s, frame=f + 4) for s in range(3)
                    for f in range(4)]
        f1 = f1_per_speaker(records, threshold=0.0)
        assert all(v == 1.0 for v in f1.values()) and len(f1) == 3

    def test_no_predicted_positives(self):
        records = [rec(-1.0, 1, frame=0), rec(-2.0, 0, frame=1)]
        assert f1_per_speaker(records, 0.0)[0] == 0.0

    def test_hand_counts(self):
        # TP=2, FP=1, FN=1 -> P=R=F1=2/3
        records = [rec(1.0, 1, frame=0), rec(1.0, 1, frame=1),
                   rec(1.0, 0, frame=2), rec(-1.0, 1, frame=3),
                   rec(-1.0, 0, frame=4), rec(-1.0, 0, frame=5)]
        npt.assert_allclose(f1_per_speaker(records, 0.0)[0], 2.0 / 3.0,
                            rtol=1e-15)

    def test_adding_top_true_positive_never_decreases(self):
        rng = np.random.default_rng(3)
        records = [rec(float(s), int(l), frame=i) for i, (s, l) in
                   enumerate(zip(rng.normal(size=30), rng.integers(0, 2, 30)))]
        base = f1_per_speaker(records, 0.0)[0]
        boosted = records + [rec(100.0, 1, frame=999)]
        assert f1_per_speaker(boosted, 0.0)[0] >= base


class TestFalsePositives:
    def test_all_below_threshold(self):
        records = records_from([-1.0, -0.5], [0, 0])
        assert false_positive_count(records, 0.0) == 0

    def test_very_low_threshold_counts_all_negatives(self):
        records = records_from([0.1, -5.0, 3.0, -2.0], [0, 0, 1, 0])
        assert false_positive_count(records, -1e18) == 3

    def test_distractor_restriction(self):
        records = [rec(1.0, 0, frame=0), rec(1.0, 0, frame=1),
                   rec(1.0, 1, frame=2)]
        cells = {("s0", 0, 1)}
        assert false_positive_count(records, 0.0) == 2
        assert false_positive_count(records, 0.0, cells) == 1


class TestPredictionsIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        records = [rec(float(rng.normal()), int(rng.integers(0, 2)),
                       scene=f"sc{i % 3}", spk=i % 2, frame=i,
                       p_voice=float(rng.random())) for i in range(50)]
        path = tmp_path / "preds.csv"
        write_predictions(records, path)
        loaded = read_predictions(path)
        assert len(loaded) == 50
        for a, b in zip(records, loaded):
            assert (a.scene_id, a.speaker_idx, a.frame_idx, a.label) == \
                   (b.scene_id, b.speaker_idx, b.frame_idx, b.label)
            assert abs(a.score - b.score) <= 1e-9
            assert abs(a.p_voice - b.p_voice) <= 1e-9

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("scene_id,speaker_idx,frame_idx,score,label\n")
        with pytest.raises(FormatError, match="p_voice"):
            read_predictions(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("scene_id,speaker_idx,frame_idx,score,p_voice,label\n"
                        "s0,0,0,0.5,0.5,1\n"
                        "s0,0,oops,0.5,0.5,1\n")
        with pytest.raises(FormatError, match="line 3"):
            read_predictions(path)

    @pytest.mark.parametrize("row,message", [
        ("s0,0,1,0.5,0.5,2", "line 3: label must be 0 or 1, got 2"),
        ("s0,0,1,0.5,0.5,-1", "line 3: label must be 0 or 1, got -1"),
        ("s0,0,1,nan,0.5,1", "line 3: score and p_voice must be finite"),
        ("s0,0,1,0.5,inf,0", "line 3: score and p_voice must be finite"),
        ("s0,0,1,-inf,0.5,0", "line 3: score and p_voice must be finite"),
    ], ids=["label_2", "label_minus_1", "score_nan", "p_voice_inf",
            "score_minus_inf"])
    def test_out_of_range_value_reports_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("scene_id,speaker_idx,frame_idx,score,p_voice,label\n"
                        f"s0,0,0,0.5,0.5,1\n{row}\n")
        with pytest.raises(FormatError, match=message):
            read_predictions(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("scene_id,speaker_idx,frame_idx,score,p_voice,label\n"
                        "s0,0,0,0.5\n")
        with pytest.raises(FormatError, match="line 2"):
            read_predictions(path)

    def test_large_file_parses_quickly(self, tmp_path):
        records = [rec(0.1 * i, i % 2, scene=f"sc{i % 100}", spk=i % 4,
                       frame=i) for i in range(100_000)]
        path = tmp_path / "big.csv"
        write_predictions(records, path)
        start = time.perf_counter()
        loaded = read_predictions(path)
        elapsed = time.perf_counter() - start
        assert len(loaded) == 100_000
        assert elapsed < 1.0, f"parse took {elapsed:.2f}s"


def test_metrics_report_format():
    text = metrics_report({"ap": 0.5, "n_records": 10})
    assert text == "ap=0.500000000\nn_records=10\n"
