"""Benchmark harness: threshold tuning and balanced accuracy over labeled records.

Records carry a gold binary factuality label and belong to a dataset and a
split (validation or test). Scores are binarized at a threshold tuned on
validation data, either per dataset (``per_split``) or once on the pooled
validation records (``single_threshold``), then evaluated as balanced
accuracy on each test split. Bootstrap resampling of the test split gives a
spread estimate. Scoring is the expensive part, so scores can be cached on
disk keyed by a scorer-configuration fingerprint and the record id; tuning
and evaluation never call back into the scorer. Tuning and evaluation need
only a record's labels, so a run can hold light rows (:class:`BenchmarkRow`)
and build each full :class:`BenchmarkRecord` only when it is scored.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import struct
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

from .documents import Document, Summary
from .errors import DegenerateLabels, InputError, MissingSplit

__all__ = [
    "BenchmarkRecord",
    "BenchmarkRow",
    "Confusion",
    "ThresholdResult",
    "DatasetResult",
    "BenchmarkReport",
    "RecordScore",
    "ScoreCache",
    "balanced_accuracy",
    "binarize",
    "tune_threshold",
    "run_benchmark",
    "config_fingerprint",
]

FACTUAL = True
NOT_FACTUAL = False


@dataclass(frozen=True)
class BenchmarkRecord:
    record_id: str
    document: Document
    summary: Summary
    gold_label: bool  # True = factual
    system: str
    dataset: str
    split: str  # "validation" | "test"

    def __post_init__(self) -> None:
        if self.split not in ("validation", "test"):
            raise InputError(
                f"record '{self.record_id}': split must be 'validation' or 'test', "
                f"got {self.split!r}"
            )
        if self.summary.document_id != self.document.id:
            raise InputError(
                f"record '{self.record_id}': summary points at document "
                f"'{self.summary.document_id}' but carries document '{self.document.id}'"
            )


@dataclass(frozen=True, slots=True)
class BenchmarkRow:
    """A checked record's labels, and the byte offset of its line in the
    records file, from which the full record is read again to be scored."""

    record_id: str
    gold_label: bool
    system: str
    dataset: str
    split: str
    offset: int


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def as_dict(self) -> dict[str, int]:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    balanced_accuracy: float
    confusion: Confusion


@dataclass(frozen=True, slots=True)
class RecordScore:
    """Per-record audit row: raw score plus the applied binarization."""

    record_id: str
    dataset: str
    split: str
    system: str
    gold_label: bool
    score: float
    prediction: bool


@dataclass(frozen=True)
class DatasetResult:
    dataset: str
    threshold: float
    balanced_accuracy: float
    confusion: Confusion
    bootstrap_std: float | None
    n_validation: int
    n_test: int


@dataclass(frozen=True)
class BenchmarkReport:
    protocol: str
    datasets: tuple[DatasetResult, ...]
    average_balanced_accuracy: float
    pooled_threshold: float | None
    records: tuple[RecordScore, ...]


def _confusion(predictions: Sequence[bool], golds: Sequence[bool]) -> Confusion:
    tp = fp = tn = fn = 0
    for pred, gold in zip(predictions, golds):
        if gold and pred:
            tp += 1
        elif gold and not pred:
            fn += 1
        elif not gold and pred:
            fp += 1
        else:
            tn += 1
    return Confusion(tp, fp, tn, fn)


def _balanced(tp: int, fp: int, tn: int, fn: int) -> float:
    return (tp / (tp + fn) + tn / (tn + fp)) / 2


def balanced_accuracy(predictions: Sequence[bool], golds: Sequence[bool]) -> float:
    """Mean of true-positive rate and true-negative rate.

    Needs both classes in the gold labels; otherwise one rate is undefined
    and :class:`DegenerateLabels` is raised.
    """
    if len(predictions) != len(golds):
        raise ValueError(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not golds:
        raise ValueError("cannot evaluate zero records")
    if all(golds) or not any(golds):
        raise DegenerateLabels("gold labels contain a single class")
    c = _confusion(predictions, golds)
    return _balanced(c.tp, c.fp, c.tn, c.fn)


def binarize(scores: Sequence[float], threshold: float) -> list[bool]:
    """Score at or above the threshold reads as factual."""
    return [score >= threshold for score in scores]


def tune_threshold(val_scores: Sequence[float], val_golds: Sequence[bool]) -> ThresholdResult:
    """Pick the binarization threshold maximizing balanced accuracy.

    Candidates are the midpoints between consecutive distinct sorted scores
    plus one sentinel below the minimum and one above the maximum. Scanning
    ascending and keeping only strict improvements makes ties resolve to the
    lowest threshold. Counting the records below each distinct score once
    gives every candidate's confusion without binarizing the split again.
    """
    if len(val_scores) != len(val_golds):
        raise ValueError(f"{len(val_scores)} scores vs {len(val_golds)} golds")
    if not val_scores:
        raise ValueError("cannot tune on zero records")
    distinct = sorted(set(val_scores))
    candidates = [distinct[0] - 1.0]
    candidates.extend((a + b) / 2 for a, b in zip(distinct, distinct[1:]))
    candidates.append(distinct[-1] + 1.0)
    positives = Counter(s for s, gold in zip(val_scores, val_golds) if gold)
    negatives = Counter(s for s, gold in zip(val_scores, val_golds) if not gold)
    # Records scoring below distinct[k], by gold class: the false and true
    # negatives at every threshold in (distinct[k - 1], distinct[k]].
    fn_below = list(accumulate((positives[s] for s in distinct), initial=0))
    tn_below = list(accumulate((negatives[s] for s in distinct), initial=0))
    p, n = fn_below[-1], tn_below[-1]
    if not p or not n:
        raise DegenerateLabels("gold labels contain a single class")
    best: ThresholdResult | None = None
    for threshold in candidates:
        k = bisect_left(distinct, threshold)
        tn, fn = tn_below[k], fn_below[k]
        ba = _balanced(p - fn, n - tn, tn, fn)
        if best is None or ba > best.balanced_accuracy:
            best = ThresholdResult(threshold, ba, Confusion(p - fn, n - tn, tn, fn))
    assert best is not None
    return best


def _randbelow_many(rng: random.Random, n: int, count: int) -> list[int]:
    """``[rng.randrange(n) for _ in range(count)]``, drawn in bulk.

    Returns the same values and leaves ``rng`` in the same state, for
    ``0 < n < 2**32``. ``randrange(n)`` takes the top ``n.bit_length()`` bits
    of one 32-bit word and redraws while the value is ``n`` or more, and
    ``getrandbits(32 * m)`` returns the next ``m`` words with the first in the
    lowest bits (read little-endian, that order holds on any machine). So
    each round draws one word per value still missing and keeps the shifted
    words below ``n``.
    """
    shift = 32 - n.bit_length()
    out: list[int] = []
    while len(out) < count:
        m = count - len(out)
        words = struct.unpack(f"<{m}I", rng.getrandbits(32 * m).to_bytes(4 * m, "little"))
        out.extend([v for w in words if (v := w >> shift) < n])
    return out


def _bootstrap_std(
    scores: Sequence[float],
    golds: Sequence[bool],
    threshold: float,
    rng: random.Random,
    resamples: int,
) -> float | None:
    """Std of balanced accuracy over bootstrap resamples of the test split.

    Resamples that draw a single gold class are skipped (the metric is
    undefined there); with none left, no spread is reported. Each record is
    one byte, ``2 * gold + prediction``, so a resample's confusion counts
    take three ``bytes.count`` calls.
    """
    n = len(scores)
    codes = bytes(2 * bool(g) + (s >= threshold) for s, g in zip(scores, golds))
    values = []
    for _ in range(resamples):
        sample = bytes(map(codes.__getitem__, _randbelow_many(rng, n, n)))
        tn, fp, fn = sample.count(0), sample.count(1), sample.count(2)
        tp = n - tn - fp - fn
        if tp + fn in (0, n):
            continue
        values.append(_balanced(tp, fp, tn, fn))
    if not values:
        return None
    return statistics.pstdev(values)


Record = BenchmarkRecord | BenchmarkRow


def run_benchmark(
    records: Sequence[Record],
    score_records: Callable[[list[Record]], Iterable[float]],
    protocol: str,
    *,
    cache: "ScoreCache | None" = None,
    bootstrap_seed: int | None = 0,
    bootstrap_resamples: int = 1000,
) -> BenchmarkReport:
    """Score, tune, and evaluate; deterministic given a deterministic scorer.

    ``records`` are full records or light rows: only their labels are read
    here. ``score_records`` gets the records the cache cannot answer, in
    input order, and returns one score for each; the cache is saved when it
    is done or fails.
    ``per_split`` tunes one threshold per dataset on its validation split;
    ``single_threshold`` tunes once on all validation records pooled.
    Datasets are processed in sorted name order. ``bootstrap_seed=None``
    disables the spread estimate.
    """
    if protocol not in ("per_split", "single_threshold"):
        raise InputError(f"unknown protocol {protocol!r}")
    if not records:
        raise InputError("benchmark needs at least one record")
    by_dataset: dict[str, dict[str, list[Record]]] = {}
    for record in records:
        by_dataset.setdefault(record.dataset, {"validation": [], "test": []})[
            record.split
        ].append(record)
    for name in sorted(by_dataset):
        for split in ("validation", "test"):
            if not by_dataset[name][split]:
                raise MissingSplit(f"dataset '{name}' has no {split} records")

    scores = _score_records(records, score_records, cache)

    def split_scores(name: str, split: str) -> tuple[list[float], list[bool]]:
        rows = by_dataset[name][split]
        return [scores[r.record_id] for r in rows], [r.gold_label for r in rows]

    names = sorted(by_dataset)
    pooled_threshold: float | None = None
    thresholds: dict[str, float] = {}
    if protocol == "single_threshold":
        pooled_scores: list[float] = []
        pooled_golds: list[bool] = []
        for name in names:
            s, g = split_scores(name, "validation")
            pooled_scores.extend(s)
            pooled_golds.extend(g)
        pooled_threshold = tune_threshold(pooled_scores, pooled_golds).threshold
        thresholds = {name: pooled_threshold for name in names}
    else:
        for name in names:
            s, g = split_scores(name, "validation")
            thresholds[name] = tune_threshold(s, g).threshold

    rng = random.Random(bootstrap_seed) if bootstrap_seed is not None else None
    results = []
    for name in names:
        threshold = thresholds[name]
        test_scores, test_golds = split_scores(name, "test")
        predictions = binarize(test_scores, threshold)
        ba = balanced_accuracy(predictions, test_golds)
        std = (
            _bootstrap_std(test_scores, test_golds, threshold, rng, bootstrap_resamples)
            if rng is not None
            else None
        )
        results.append(
            DatasetResult(
                dataset=name,
                threshold=threshold,
                balanced_accuracy=ba,
                confusion=_confusion(predictions, test_golds),
                bootstrap_std=std,
                n_validation=len(by_dataset[name]["validation"]),
                n_test=len(by_dataset[name]["test"]),
            )
        )
    average = sum(r.balanced_accuracy for r in results) / len(results)
    audit = tuple(
        RecordScore(
            record_id=r.record_id,
            dataset=r.dataset,
            split=r.split,
            system=r.system,
            gold_label=r.gold_label,
            score=scores[r.record_id],
            prediction=scores[r.record_id] >= thresholds[r.dataset],
        )
        for r in records
    )
    return BenchmarkReport(protocol, tuple(results), average, pooled_threshold, audit)


def _score_records(
    records: Sequence[Record],
    score_records: Callable[[list[Record]], Iterable[float]],
    cache: "ScoreCache | None",
) -> dict[str, float]:
    scores: dict[str, float] = {}
    pending: list[Record] = []
    seen: set[str] = set()
    for record in records:
        if record.record_id in seen:
            raise InputError(f"duplicate record id '{record.record_id}'")
        seen.add(record.record_id)
        cached = cache.get(record.record_id) if cache is not None else None
        if cached is not None:
            scores[record.record_id] = cached
        else:
            pending.append(record)
    if pending:
        try:
            for record, score in zip(pending, score_records(pending), strict=True):
                scores[record.record_id] = score
                if cache is not None:
                    cache.put(record.record_id, score)
        finally:
            # Scores computed before a failure survive it, so a rerun resumes.
            if cache is not None:
                cache.save()
    return scores


def config_fingerprint(parts: Mapping[str, object]) -> str:
    """Stable 16-hex-digit digest of a scorer configuration."""
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class ScoreCache:
    """Disk cache of record scores for one scorer configuration.

    Lives at ``<directory>/scores-<fingerprint>.json``; a different scorer
    configuration hashes to a different file, so stale scores can never leak
    across configurations.
    """

    def __init__(self, directory: str, fingerprint: str):
        self.path = os.path.join(directory, f"scores-{fingerprint}.json")
        self._scores: dict[str, float] = {}
        self._dirty = False
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                try:
                    data = json.load(fh)
                except ValueError as exc:
                    raise InputError(f"score cache {self.path}: invalid JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise InputError(f"score cache {self.path} is not a JSON object")
            for key, value in data.items():
                score = math.nan
                if type(value) in (int, float):  # not bool
                    try:
                        score = float(value)
                    except OverflowError:  # an integer beyond the float range
                        pass
                if not math.isfinite(score):
                    raise InputError(f"score cache {self.path}: entry '{key}' is not a number")
                self._scores[key] = score

    def get(self, record_id: str) -> float | None:
        return self._scores.get(record_id)

    def put(self, record_id: str, score: float) -> None:
        self._scores[record_id] = score
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._scores, sort_keys=True))
        os.replace(tmp, self.path)
        self._dirty = False
