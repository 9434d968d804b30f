"""Ranking and detection metrics over ``Cells``, a scored corpus as parallel
arrays in the prediction CSV's order; ``eval_metrics`` builds eval's report.

Average precision uses the step definition: cells are sorted by score
(descending, ties broken lexicographically by identity for bit-for-bit
reproducibility) and AP is the mean, over positive cells, of the
precision at each positive's rank, summed best-first.  It therefore
depends on the ranking only, never on score magnitudes.

Per-speaker F1 follows the usual conventions for empty denominators:
precision, recall, and F1 are all 0 when undefined.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FormatError, MetricError

@dataclass(frozen=True, eq=False)
class Cells:
    """Scored cells as parallel arrays in the CSV's order; each
    (scene_id, speaker_idx, frame_idx) triple is unique."""

    scene_id: np.ndarray  # str objects: a 'U' array drops trailing NULs
    speaker_idx: np.ndarray
    frame_idx: np.ndarray
    score: np.ndarray
    p_voice: np.ndarray
    label: np.ndarray       # 0 or 1
    distractor: np.ndarray  # bool

    def __len__(self):
        return len(self.score)


class PredictionRecord(NamedTuple):
    """One row of a prediction CSV."""

    scene_id: str
    speaker_idx: int
    frame_idx: int
    score: float
    p_voice: float
    label: int


CSV_COLUMNS = PredictionRecord._fields


def average_precision(cells: Cells) -> float:
    """Mean over positives of precision at that positive's rank; raises
    MetricError when no cell is positive (the metric is undefined, not 0)."""
    order = np.lexsort((cells.frame_idx, cells.speaker_idx, cells.scene_id,
                        -cells.score))
    rank = np.flatnonzero(cells.label[order]) + 1
    if rank.size == 0:
        raise MetricError("average precision undefined: no positive records")
    # accumulate adds in rank order, as a running total would; a pairwise
    # sum would change the last bits
    precision = np.arange(1, rank.size + 1) / rank
    return float(np.add.accumulate(precision)[-1]) / rank.size


def f1_per_speaker(cells: Cells, threshold: float) -> dict:
    """F1 of the decision (score > threshold) keyed by speaker index."""
    speakers, speaker = np.unique(cells.speaker_idx, return_inverse=True)
    predicted, label = cells.score > threshold, cells.label == 1
    counts = [np.bincount(speaker[where], minlength=speakers.size).tolist()
              for where in (predicted & label, predicted & ~label,
                            ~predicted & label)]  # tp, fp, fn
    out = {}
    for spk, tp, fp, fn in zip(speakers.tolist(), *counts):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        denom = precision + recall
        out[spk] = 2.0 * precision * recall / denom if denom else 0.0
    return out


def false_positive_count(cells: Cells, threshold: float, where=True) -> int:
    """Label-0 cells scoring above the threshold, among those the boolean
    mask ``where`` selects (all by default)."""
    return int(np.count_nonzero((cells.label == 0) & (cells.score > threshold)
                                & where))


def eval_metrics(cells: Cells, raw_cells: Cells, threshold: float) -> dict:
    """The ``eval`` report of gated and raw scores of the same cells."""
    # each metric of one score set, reported as ``key`` for the gated cells
    # and ``key_nogate`` for the raw ones
    per_score_set = (("ap", average_precision),
                     ("fp_total", lambda c: false_positive_count(c, threshold)),
                     ("fp_distractor", lambda c: false_positive_count(
                         c, threshold, c.distractor)))
    metrics = {"n_records": len(cells), "threshold": float(threshold)}
    for key, metric in per_score_set:
        metrics[key] = metric(cells)
        metrics[f"{key}_nogate"] = metric(raw_cells)
    f1 = f1_per_speaker(cells, threshold)
    metrics.update({f"f1_speaker_{spk}": value for spk, value in f1.items()})
    metrics["f1_macro"] = sum(f1.values()) / len(f1) if f1 else 0.0
    return metrics


def write_predictions(cells: Cells, path) -> None:
    """CSV with fixed 9-decimal score serialization."""
    rows = zip(*(getattr(cells, name).tolist() for name in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows((sid, spk, frame, f"{score:.9f}", f"{p:.9f}", label)
                         for sid, spk, frame, score, p, label in rows)


def read_predictions(path) -> list:
    """Records of a ``write_predictions`` CSV.  Raises FormatError, naming
    the line, on a malformed row, a label other than 0 or 1, a non-finite
    score or p_voice, a negative speaker or frame index, or a cell that
    appears twice, and naming the file on one that is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"prediction file {path}: not UTF-8 at byte "
                          f"{exc.start}") from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"empty prediction file: {path}") from None
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise FormatError(
                f"prediction file missing column(s): {', '.join(missing)}")
        if tuple(header) != CSV_COLUMNS:
            raise FormatError(
                f"unexpected prediction header: {header}")
        records = []
        first_line = {}  # each cell's line, to name both lines of a repeat
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_COLUMNS):
                raise FormatError(
                    f"line {lineno}: expected {len(CSV_COLUMNS)} fields, "
                    f"got {len(row)}")
            try:
                record = PredictionRecord(
                    scene_id=row[0],
                    speaker_idx=int(row[1]),
                    frame_idx=int(row[2]),
                    score=float(row[3]),
                    p_voice=float(row[4]),
                    label=int(row[5]),
                )
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            if record.label not in (0, 1):
                raise FormatError(
                    f"line {lineno}: label must be 0 or 1, got {record.label}")
            if not (math.isfinite(record.score) and math.isfinite(record.p_voice)):
                raise FormatError(
                    f"line {lineno}: score and p_voice must be finite, got "
                    f"{row[3]} and {row[4]}")
            if record.speaker_idx < 0 or record.frame_idx < 0:
                raise FormatError(
                    f"line {lineno}: speaker_idx and frame_idx must be "
                    f"non-negative, got {record.speaker_idx} and "
                    f"{record.frame_idx}")
            cell = record[:3]
            seen = first_line.setdefault(cell, lineno)
            if seen != lineno:
                raise FormatError(
                    f"line {lineno}: cell {cell} repeats line {seen}")
            records.append(record)
    return records


def metrics_report(metrics: dict) -> str:
    """Line-oriented key=value text; floats rendered at 9 decimals."""
    lines = []
    for key, value in metrics.items():
        if isinstance(value, float):
            lines.append(f"{key}={value:.9f}")
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
