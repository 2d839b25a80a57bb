"""Benchmark harness: threshold tuning and balanced accuracy over labeled records.

Records carry a gold binary factuality label and belong to a dataset and a
split (validation or test). Scores are binarized at a threshold tuned on
validation data, either per dataset (``per_split``) or once on the pooled
validation records (``single_threshold``), then evaluated as balanced
accuracy on each test split. Bootstrap resampling of the test split gives a
spread estimate. Scoring is the expensive part, so scores can be cached on
disk keyed by a scorer-configuration fingerprint and the record id, each
score stored with a digest of the record's line so that an edited record is
scored again; tuning and evaluation never call back into the scorer. Tuning
and evaluation need only a record's labels, so a run holds light rows
(:class:`BenchmarkRow`), and a record's document and summary are read only
when it is scored. Each record's facts are held once: its row, its score at
the row's position in one list, and its digest as bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import statistics
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import getitem
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DegenerateLabels, InputError, MissingSplit

__all__ = [
    "BenchmarkRow",
    "Confusion",
    "ThresholdResult",
    "DatasetResult",
    "BenchmarkReport",
    "ScoreCache",
    "balanced_accuracy",
    "binarize",
    "tune_threshold",
    "run_benchmark",
    "config_fingerprint",
    "PROTOCOLS",
]

# The threshold-tuning protocols of :func:`run_benchmark`.
PROTOCOLS = ("per_split", "single_threshold")

# The score cache is saved after every this many scored records, so a run
# that is killed keeps most of them.
CHECKPOINT_RECORDS = 512


@dataclass(frozen=True, slots=True)
class BenchmarkRow:
    """A checked record's labels, and the byte offset of its line in the
    records file, from which its document and summary are read again to be scored.

    ``digest`` is the 16-byte BLAKE2b digest of that line (without its line
    ending); the score cache stores it with the record's score.
    """

    record_id: str
    gold_label: bool
    system: str
    dataset: str
    split: str
    offset: int
    digest: bytes


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    def as_dict(self) -> dict[str, int]:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    balanced_accuracy: float
    confusion: Confusion


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
    """The results, and the rows :func:`run_benchmark` was given with their scores by position."""

    protocol: str
    datasets: tuple[DatasetResult, ...]
    average_balanced_accuracy: float
    pooled_threshold: float | None
    rows: Sequence[BenchmarkRow]
    scores: list[float]


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


# Bootstrap draws are classified into one byte each: bit 0 the record's gold
# label, bit 1 its prediction, bit 2 both (indexed by ``2 * gold +
# prediction``), or _REJECT for a value of ``n`` or more, which is drawn again.
_CLASS_BITS = (0b000, 0b010, 0b001, 0b111)
_REJECT = 0b1000
# Splits of fewer records than this are looked up through 256-entry pages.
_PAGED_BELOW = 1 << 12
# The most 32-bit words drawn at once, unless one resample needs more.
_DRAW_WORDS = 1 << 15


def _bootstrap_std(
    scores: Sequence[float],
    golds: Sequence[bool],
    threshold: float,
    rng: random.Random,
    resamples: int,
) -> float | None:
    """Std of balanced accuracy over bootstrap resamples of the test split.

    Resamples that draw a single gold class are skipped (the metric is
    undefined there); with none left, no spread is reported.

    Each resample draws the ``n`` records that ``[rng.randrange(n) for _ in
    range(n)]`` would, the resamples in turn, and leaves ``rng`` in the same
    state, for ``0 < n < 2**32``. ``randrange(n)`` takes the top ``b =
    n.bit_length()`` bits of one 32-bit word and draws again while that value
    is ``n`` or more; ``getrandbits(32 * m)`` returns the next ``m`` words,
    the first in the lowest bits. So words are drawn in bulk, never more
    than the resamples still to come will take, and each is classified by
    table lookup into one byte (``_CLASS_BITS``, or ``_REJECT``) with no
    Python work per word:

    - below ``_PAGED_BELOW`` records, ``bytes.translate`` maps each word's
      top byte through one 256-entry page per value of the next ``b - 8``
      bits (one page per 256 records), and masks pick each word's page;
    - from there on, the word's value indexes the codes directly
      (``map`` over the words), in time flat in ``n``.

    A resample takes the words after the previous one's, and as ``randrange``
    redraws, ``bytes.count`` of the rejected words in each round sets how
    many more it takes, until ``n`` are accepted. Its confusion counts are
    population counts of the class bits of its words.
    """
    n = len(scores)
    b = n.bit_length()
    codes = bytes(_CLASS_BITS[2 * bool(g) + (s >= threshold)] for s, g in zip(scores, golds))
    codes += bytes([_REJECT]) * ((1 << b) - n)
    getrandbits = rng.getrandbits
    if n < _PAGED_BELOW:
        # A value is the word's top byte t, then its next s bits l: page l
        # maps t to the code of value ``t << s | l`` (for b < 8, ``t >> 8 - b``).
        s = max(b - 8, 0)
        drop = 8 + s - b
        pages = [bytes(codes[(t << s | l) >> drop] for t in range(256)) for l in range(1 << s)]
        # Each later page as its difference from the first, with the mask of
        # the words it serves: one XOR per page gives every word its own.
        others = [
            (
                bytes(x ^ y for x, y in zip(pages[0], page)),
                bytes(255 * (e >> 8 - s == l) for e in range(256)),
            )
            for l, page in enumerate(pages[1:], start=1)
        ]

        def classify(m: int) -> bytes:
            words = getrandbits(32 * m).to_bytes(4 * m, "little")
            top = words[3::4]
            if not others:
                return top.translate(pages[0])
            nxt = words[2::4]
            out = int.from_bytes(top.translate(pages[0]), "little")
            for diff, mask in others:
                out ^= int.from_bytes(top.translate(diff), "little") & int.from_bytes(
                    nxt.translate(mask), "little"
                )
            return out.to_bytes(m, "little")

    else:
        lane = ((1 << b) - 1).to_bytes(4, "little")

        def classify(m: int) -> bytes:
            values = (getrandbits(32 * m) >> 32 - b) & int.from_bytes(lane * m, "little")
            # In native order a word reads as one C unsigned int, and the
            # first word comes last on a big-endian machine.
            words = memoryview(values.to_bytes(4 * m, sys.byteorder)).cast("I")
            out = bytes(map(getitem, repeat(codes), words))
            return out if sys.byteorder == "little" else out[::-1]

    values = []
    drawn = b""  # classified words, the current resample's from ``first`` on
    first = 0
    ones = twos = 0  # a 1 in bit 0, and in bit 1, of every byte of ``drawn``
    for left in range(resamples - 1, -1, -1):  # resamples after this one
        start, end = first, first + n
        while True:
            if end > len(drawn):
                short = end - len(drawn)
                more = max(short, min(short + left * n, _DRAW_WORDS))
                drawn = drawn[first:] + classify(more)
                start, end, first = start - first, end - first, 0
                ones = int.from_bytes(b"\x01" * len(drawn), "little")
                twos = ones << 1
            redraws = drawn.count(_REJECT, start, end)
            if not redraws:
                break
            start, end = end, end + redraws
        sample = int.from_bytes(drawn[first:end], "little")
        gold = (sample & ones).bit_count()
        predicted = (sample & twos).bit_count()
        # The other bits set: bit 2 of each true positive, one per rejected word.
        tp = sample.bit_count() - gold - predicted - (end - first - n)
        first = end
        if gold in (0, n):
            continue
        values.append(_balanced(tp, predicted - tp, n - gold - predicted + tp, gold - tp))
    if not values:
        return None
    return statistics.pstdev(values)


def run_benchmark(
    records: Sequence[BenchmarkRow],
    score_records: Callable[[list[BenchmarkRow]], Iterable[float]],
    protocol: str,
    *,
    cache: "ScoreCache | None" = None,
    bootstrap_seed: int | None = 0,
    bootstrap_resamples: int = 1000,
) -> BenchmarkReport:
    """Score, tune, and evaluate; deterministic given a deterministic scorer.

    Only the rows' labels are read here, and each row's ``digest``, which
    the cache keeps with its score. ``score_records`` gets the rows the
    cache cannot answer, in input order, and returns one score for each; the
    cache is saved every :data:`CHECKPOINT_RECORDS` scores and when it is
    done or fails.
    ``per_split`` tunes one threshold per dataset on its validation split;
    ``single_threshold`` tunes once on all validation records pooled.
    Datasets are processed in sorted name order. ``bootstrap_seed=None``
    disables the spread estimate. The report holds ``records`` itself, not
    a copy, as its ``rows``.
    """
    if protocol not in PROTOCOLS:
        raise InputError(f"unknown protocol {protocol!r}")
    if not records:
        raise InputError("benchmark needs at least one record")
    # The positions in ``records`` of each dataset's records, by split.
    by_dataset: dict[str, dict[str, list[int]]] = {}
    for i, record in enumerate(records):
        by_dataset.setdefault(record.dataset, {"validation": [], "test": []})[
            record.split
        ].append(i)
    for name in sorted(by_dataset):
        for split in ("validation", "test"):
            if not by_dataset[name][split]:
                raise MissingSplit(f"dataset '{name}' has no {split} records")

    scores = _score_records(records, score_records, cache)

    def split_scores(positions: list[int]) -> tuple[list[float], list[bool]]:
        return [scores[i] for i in positions], [records[i].gold_label for i in positions]

    names = sorted(by_dataset)
    pooled_threshold: float | None = None
    if protocol == "single_threshold":
        pooled = [i for name in names for i in by_dataset[name]["validation"]]
        pooled_threshold = tune_threshold(*split_scores(pooled)).threshold

    rng = random.Random(bootstrap_seed) if bootstrap_seed is not None else None
    results = []
    for name in names:
        splits = by_dataset[name]
        threshold = pooled_threshold
        if threshold is None:
            threshold = tune_threshold(*split_scores(splits["validation"])).threshold
        test_scores, test_golds = split_scores(splits["test"])
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
                n_validation=len(splits["validation"]),
                n_test=len(splits["test"]),
            )
        )
    average = sum(r.balanced_accuracy for r in results) / len(results)
    return BenchmarkReport(protocol, tuple(results), average, pooled_threshold, records, scores)


def _score_records(
    records: Sequence[BenchmarkRow],
    score_records: Callable[[list[BenchmarkRow]], Iterable[float]],
    cache: "ScoreCache | None",
) -> list[float]:
    """The score of each record, by position: from the cache, or else from ``score_records``."""
    scores = [math.nan] * len(records)
    pending: list[int] = []  # positions of the records the cache cannot answer
    seen: set[str] = set()
    for i, record in enumerate(records):
        if record.record_id in seen:
            raise InputError(f"duplicate record id '{record.record_id}'")
        seen.add(record.record_id)
        cached = cache.get(record.record_id, record.digest) if cache is not None else None
        if cached is not None:
            scores[i] = cached
        else:
            pending.append(i)
    if pending:
        try:
            scored = zip(pending, score_records([records[i] for i in pending]), strict=True)
            for n, (i, score) in enumerate(scored, start=1):
                scores[i] = score
                if cache is not None:
                    cache.put(records[i].record_id, score, records[i].digest)
                    if n % CHECKPOINT_RECORDS == 0:
                        cache.save()
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
    across configurations. The file is a JSON object keyed by record id;
    each entry is ``[score, "<hex digest>"]``, the digest of the record's
    line when it was scored (held in memory as its 16 bytes). A cached score
    answers only a record with the same digest, so an edited record is
    scored again. A plain score, as a cache written before digests were
    stored holds, is checked but answers no record and is not written back,
    so such a cache is scored again once.
    """

    def __init__(self, directory: str, fingerprint: str):
        self.path = os.path.join(directory, f"scores-{fingerprint}.json")
        # record id -> (score, 16-byte digest)
        self._entries: dict[str, tuple[float, bytes]] = {}
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
                digest = None
                if type(value) is list and len(value) == 2:
                    value, digest = value
                    if not _is_hex_digest(digest):
                        raise InputError(
                            f"score cache {self.path}: entry '{key}' has a malformed digest"
                        )
                score = math.nan
                if type(value) in (int, float):  # not bool
                    try:
                        score = float(value)
                    except OverflowError:  # an integer beyond the float range
                        pass
                if not math.isfinite(score):
                    raise InputError(f"score cache {self.path}: entry '{key}' is not a number")
                if digest is not None:
                    self._entries[key] = (score, bytes.fromhex(digest))

    def get(self, record_id: str, digest: bytes) -> float | None:
        """The cached score of ``record_id``, if it was stored with ``digest``."""
        entry = self._entries.get(record_id)
        if entry is None or entry[1] != digest:
            return None
        return entry[0]

    def put(self, record_id: str, score: float, digest: bytes) -> None:
        self._entries[record_id] = (score, digest)
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        # ``default`` writes each digest as the hex string the file holds;
        # flat entries cannot cycle, so no digest pays the circular check.
        text = json.dumps(self._entries, sort_keys=True, default=bytes.hex, check_circular=False)
        # A temp file of this writer's own, so that caches saving one path at
        # once never rename each other's file; the last rename wins.
        tmp = f"{self.path}.{os.getpid()}.{id(self)}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
        self._dirty = False


def _is_hex_digest(value: object) -> bool:
    """Whether ``value`` is a 16-byte digest as lowercase hex."""
    return (
        isinstance(value, str)
        and len(value) == 32
        and all(c in "0123456789abcdef" for c in value)
    )
