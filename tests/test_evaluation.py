"""Ranking metrics against enumeration oracles and their former record
form, plus prediction CSV I/O."""

import time

import numpy as np
import numpy.testing as npt
import pytest

from dualstream.errors import FormatError, MetricError
from dualstream.evaluation import (CSV_COLUMNS, Cells, PredictionRecord,
                                   average_precision, eval_metrics,
                                   f1_per_speaker, false_positive_count,
                                   metrics_report, read_predictions,
                                   write_predictions)

import oracles

DTYPES = (object, np.int64, np.int64, np.float64, np.float64, np.int64)


def rec(score, label, scene="s0", spk=0, frame=0, p_voice=0.5):
    return PredictionRecord(scene, spk, frame, score, p_voice, label)


def cells_of(records, distractor=()):
    """The ``Cells`` of records, in their order; ``distractor`` holds the
    (scene_id, speaker_idx, frame_idx) cells to flag."""
    columns = [np.array([r[i] for r in records], dtype=dtype)
               for i, dtype in enumerate(DTYPES)]
    flags = np.array([r[:3] in distractor for r in records], dtype=bool)
    return Cells(*columns, flags)


def records_of(cells):
    """The records of ``Cells``, in their order."""
    return list(map(PredictionRecord,
                    *(getattr(cells, name).tolist() for name in CSV_COLUMNS)))


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
        assert average_precision(cells_of(records)) == 1.0

    def test_hand_case(self):
        records = records_from([0.9, 0.8, 0.7, 0.6, 0.5], [1, 0, 1, 1, 0])
        expected = (1.0 + 2.0 / 3.0 + 3.0 / 4.0) / 3.0
        npt.assert_allclose(average_precision(cells_of(records)), expected,
                            rtol=1e-15)
        npt.assert_allclose(average_precision(cells_of(records)),
                            0.805555555555, atol=1e-9)

    def test_zero_positives_undefined(self):
        with pytest.raises(MetricError):
            average_precision(cells_of(records_from([0.5, 0.2], [0, 0])))

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
            assert average_precision(cells_of(records)) == \
                ap_enumeration_oracle(records), f"trial {trial}"

    def test_reversed_ranking_matches_oracle(self):
        records = records_from([0.1, 0.2, 0.3, 0.4], [1, 1, 0, 0])
        assert average_precision(cells_of(records)) == \
            ap_enumeration_oracle(records)

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(1)
        scores = np.round(rng.uniform(-2, 2, 64), 6)
        labels = rng.integers(0, 2, 64)
        labels[0] = 1
        base = average_precision(cells_of(records_from(scores, labels)))
        linear = average_precision(cells_of(records_from(2.0 * scores + 1.0,
                                                         labels)))
        squashed = average_precision(cells_of(records_from(np.tanh(scores),
                                                           labels)))
        assert base == linear == squashed

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 2, n)
            labels[0] = 1
            ap = average_precision(cells_of(records_from(rng.normal(size=n),
                                                         labels)))
            assert 0.0 <= ap <= 1.0


class TestF1:
    def test_perfect(self):
        records = [rec(2.0, 1, spk=s, frame=f) for s in range(3) for f in range(4)]
        records += [rec(-2.0, 0, spk=s, frame=f + 4) for s in range(3)
                    for f in range(4)]
        f1 = f1_per_speaker(cells_of(records), threshold=0.0)
        assert all(v == 1.0 for v in f1.values()) and len(f1) == 3

    def test_no_predicted_positives(self):
        records = [rec(-1.0, 1, frame=0), rec(-2.0, 0, frame=1)]
        assert f1_per_speaker(cells_of(records), 0.0)[0] == 0.0

    def test_hand_counts(self):
        # TP=2, FP=1, FN=1 -> P=R=F1=2/3
        records = [rec(1.0, 1, frame=0), rec(1.0, 1, frame=1),
                   rec(1.0, 0, frame=2), rec(-1.0, 1, frame=3),
                   rec(-1.0, 0, frame=4), rec(-1.0, 0, frame=5)]
        npt.assert_allclose(f1_per_speaker(cells_of(records), 0.0)[0],
                            2.0 / 3.0, rtol=1e-15)

    def test_adding_top_true_positive_never_decreases(self):
        rng = np.random.default_rng(3)
        records = [rec(float(s), int(l), frame=i) for i, (s, l) in
                   enumerate(zip(rng.normal(size=30), rng.integers(0, 2, 30)))]
        base = f1_per_speaker(cells_of(records), 0.0)[0]
        boosted = records + [rec(100.0, 1, frame=999)]
        assert f1_per_speaker(cells_of(boosted), 0.0)[0] >= base


class TestFalsePositives:
    def test_all_below_threshold(self):
        records = records_from([-1.0, -0.5], [0, 0])
        assert false_positive_count(cells_of(records), 0.0) == 0

    def test_very_low_threshold_counts_all_negatives(self):
        records = records_from([0.1, -5.0, 3.0, -2.0], [0, 0, 1, 0])
        assert false_positive_count(cells_of(records), -1e18) == 3

    def test_distractor_restriction(self):
        records = [rec(1.0, 0, frame=0), rec(1.0, 0, frame=1),
                   rec(1.0, 1, frame=2)]
        cells = cells_of(records, distractor={("s0", 0, 1)})
        assert false_positive_count(cells, 0.0) == 2
        assert false_positive_count(cells, 0.0, cells.distractor) == 1


# ids that sort by a last character, by a trailing NUL, or before all others
SCENE_IDS = ("b", "a", "a\x00", "ab", "", "\u00e9")
TIES = (0.0, -0.0, 0.5, -0.25)


def random_cell_set(rng):
    """Gated and raw records of 1-3 scenes in shuffled order, the set of
    their distractor cells, and a threshold; scores tie often, and zeros
    come with both signs."""
    def score():
        if rng.random() < 0.5:
            return TIES[rng.integers(len(TIES))]
        return round(float(rng.uniform(-1.0, 1.0)), 2)

    records = []
    for i in rng.permutation(len(SCENE_IDS))[:rng.integers(1, 4)]:
        for spk in range(rng.integers(1, 4)):
            for frame in range(rng.integers(1, 6)):
                if rng.random() < 0.8:
                    records.append(rec(score(), int(rng.random() < 0.4),
                                       scene=SCENE_IDS[i], spk=spk,
                                       frame=frame, p_voice=rng.random()))
    records = [records[i] for i in rng.permutation(len(records))]
    raw_records = [r._replace(score=score()) for r in records]
    flagged = {r[:3] for r in records if not r.label and rng.random() < 0.3}
    return records, raw_records, flagged, score()


def exact(metric, *args):
    """The metric's value with every float as its hex string and every
    dict key and int with its type, or the MetricError it raises."""
    def bits(value):
        if isinstance(value, dict):
            return [(type(k), k, bits(v)) for k, v in value.items()]
        return value.hex() if isinstance(value, float) else (type(value), value)

    try:
        return bits(metric(*args))
    except MetricError as exc:
        return str(exc)


def test_same_bits_as_the_record_form():
    """Every metric and the eval report against their former record form
    (``oracles``) over random cell sets."""
    rng = np.random.default_rng(20)
    for trial in range(1000):
        records, raw_records, flagged, threshold = random_cell_set(rng)
        cells, raw_cells = cells_of(records, flagged), cells_of(raw_records,
                                                                flagged)
        for got, want in ((cells, records), (raw_cells, raw_records)):
            assert exact(average_precision, got) == \
                exact(oracles.average_precision, want), f"trial {trial}"
            assert exact(f1_per_speaker, got, threshold) == \
                exact(oracles.f1_per_speaker, want, threshold), f"trial {trial}"
            assert exact(false_positive_count, got, threshold) == \
                exact(oracles.false_positive_count, want, threshold)
            assert exact(false_positive_count, got, threshold,
                         got.distractor) == \
                exact(oracles.false_positive_count, want, threshold, flagged)
        assert exact(eval_metrics, cells, raw_cells, threshold) == \
            exact(oracles.eval_metrics, records, raw_records, threshold,
                  flagged), f"trial {trial}"


class TestPredictionsIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        records = [rec(float(rng.normal()), int(rng.integers(0, 2)),
                       scene=f"sc{i % 3}", spk=i % 2, frame=i,
                       p_voice=float(rng.random())) for i in range(50)]
        path = tmp_path / "preds.csv"
        write_predictions(cells_of(records), path)
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

    @pytest.mark.parametrize("row,message", [
        ("s0,-1,1,0.5,0.5,0", "line 3: speaker_idx and frame_idx must be "
                              "non-negative, got -1 and 1"),
        ("s0,0,-3,0.5,0.5,0", "line 3: speaker_idx and frame_idx must be "
                              "non-negative, got 0 and -3"),
    ], ids=["speaker_minus_1", "frame_minus_3"])
    def test_negative_index_reports_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("scene_id,speaker_idx,frame_idx,score,p_voice,label\n"
                        f"s0,0,0,0.5,0.5,1\n{row}\n")
        with pytest.raises(FormatError, match=message):
            read_predictions(path)

    def test_repeated_cell_names_both_lines(self, tmp_path):
        # same cell with another label; the same frame of another speaker or
        # scene is a different cell
        path = tmp_path / "bad.csv"
        path.write_text("scene_id,speaker_idx,frame_idx,score,p_voice,label\n"
                        "s0,0,0,0.5,0.5,1\n"
                        "s0,1,0,0.5,0.5,1\n"
                        "s1,0,0,0.5,0.5,1\n"
                        "s0,0,0,0.25,0.5,0\n")
        with pytest.raises(FormatError, match=r"line 5: cell \('s0', 0, 0\) "
                                              r"repeats line 2"):
            read_predictions(path)

    def test_non_utf8_file_is_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xffscene_id,speaker_idx,frame_idx,score,p_voice,"
                         b"label\n")
        with pytest.raises(FormatError, match=f"prediction file {path}: "
                                              "not UTF-8 at byte 0"):
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
        write_predictions(cells_of(records), path)
        start = time.perf_counter()
        loaded = read_predictions(path)
        elapsed = time.perf_counter() - start
        assert len(loaded) == 100_000
        assert elapsed < 1.0, f"parse took {elapsed:.2f}s"


def test_metrics_report_format():
    text = metrics_report({"ap": 0.5, "n_records": 10})
    assert text == "ap=0.500000000\nn_records=10\n"
