"""Ranking and detection metrics over scored (scene, speaker, frame) triples.

Average precision uses the step definition: records are sorted by score
(descending, ties broken lexicographically by identity for bit-for-bit
reproducibility) and AP is the mean, over positive records, of the
precision at each positive's rank.  It therefore depends on the ranking
only, never on score magnitudes.

Per-speaker F1 follows the usual conventions for empty denominators:
precision, recall, and F1 are all 0 when undefined.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple

from .errors import FormatError, MetricError

CSV_COLUMNS = ("scene_id", "speaker_idx", "frame_idx", "score", "p_voice", "label")


class PredictionRecord(NamedTuple):
    """One scored cell; (scene_id, speaker_idx, frame_idx) is unique."""

    scene_id: str
    speaker_idx: int
    frame_idx: int
    score: float
    p_voice: float
    label: int


def _ranked(records):
    return sorted(records, key=lambda r: (-r.score, r.scene_id,
                                          r.speaker_idx, r.frame_idx))


def average_precision(records) -> float:
    """Mean over positives of precision at that positive's rank.

    Raises MetricError when there are no positive records (the metric is
    undefined, not zero).
    """
    ranked = _ranked(records)
    positives = sum(r.label for r in ranked)
    if positives == 0:
        raise MetricError("average precision undefined: no positive records")
    hit = 0
    total = 0.0
    for rank, rec in enumerate(ranked, start=1):
        if rec.label:
            hit += 1
            total += hit / rank
    return total / positives


def f1_per_speaker(records, threshold: float) -> dict:
    """F1 of the decision (score > threshold) grouped by speaker index."""
    counts = {}
    for r in records:
        tp, fp, fn = counts.setdefault(r.speaker_idx, [0, 0, 0])
        predicted = r.score > threshold
        if predicted and r.label:
            counts[r.speaker_idx][0] += 1
        elif predicted and not r.label:
            counts[r.speaker_idx][1] += 1
        elif not predicted and r.label:
            counts[r.speaker_idx][2] += 1
    out = {}
    for spk, (tp, fp, fn) in sorted(counts.items()):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        denom = precision + recall
        out[spk] = 2.0 * precision * recall / denom if denom else 0.0
    return out


def false_positive_count(records, threshold: float, distractor_cells=None) -> int:
    """Label-0 records scoring above the threshold; optionally restricted to
    the given set of distractor-annotated (scene_id, speaker, frame) cells."""
    count = 0
    for r in records:
        if r.label or r.score <= threshold:
            continue
        if distractor_cells is not None and (
                (r.scene_id, r.speaker_idx, r.frame_idx) not in distractor_cells):
            continue
        count += 1
    return count


def write_predictions(records, path) -> None:
    """CSV with fixed 9-decimal score serialization."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r.scene_id, r.speaker_idx, r.frame_idx,
                             f"{r.score:.9f}", f"{r.p_voice:.9f}", r.label])


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
