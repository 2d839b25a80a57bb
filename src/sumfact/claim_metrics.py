"""Claim-extraction quality metrics.

The primitive is a unigram-overlap F1 between two strings (clipped multiset
counts, lowercase, no stemming or stopword removal). On top of it, the
"easiness" family compares a system claim set S against a human one H:
precision averages each system claim's best match in H, recall averages each
human claim's best match in S, and F1 is the harmonic mean of corpus-level
precision and recall. Values stay in [0, 1]; any percentage formatting is
presentation-layer only.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from .documents import words
from .errors import EmptyClaimSet, InputError

__all__ = [
    "rouge1_f1",
    "easiness_precision",
    "easiness_recall",
    "easiness_f1",
    "evaluate_claim_sets",
]


def _harmonic(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def _f1(a: Counter, b: Counter) -> float:
    """Unigram F1 between two word counts."""
    if not a or not b:
        return 0.0
    overlap = sum((a & b).values())
    return _harmonic(overlap / a.total(), overlap / b.total())


def rouge1_f1(a: str, b: str) -> float:
    """Unigram F1 between two strings; 0.0 when either side has no tokens."""
    return _f1(Counter(words(a)), Counter(words(b)))


def _require(system_claims: Sequence[str], human_claims: Sequence[str]) -> None:
    if not system_claims:
        raise EmptyClaimSet("system claim set is empty")
    if not human_claims:
        raise EmptyClaimSet("human claim set is empty")


def _f1_matrix(system_claims: Sequence[str], human_claims: Sequence[str]) -> list[list[float]]:
    """``rouge1_f1(s, h)`` with a row per system claim and a column per human
    claim, tokenising each claim once."""
    _require(system_claims, human_claims)
    system = [Counter(words(s)) for s in system_claims]
    human = [Counter(words(h)) for h in human_claims]
    return [[_f1(s, h) for h in human] for s in system]


def _precision(matrix: list[list[float]]) -> float:
    return sum(max(row) for row in matrix) / len(matrix)


def _recall(matrix: list[list[float]]) -> float:
    return sum(max(column) for column in zip(*matrix)) / len(matrix[0])


def easiness_precision(system_claims: Sequence[str], human_claims: Sequence[str]) -> float:
    """Mean over system claims of the best unigram F1 against any human claim."""
    return _precision(_f1_matrix(system_claims, human_claims))


def easiness_recall(system_claims: Sequence[str], human_claims: Sequence[str]) -> float:
    """Mean over human claims of the best unigram F1 against any system claim."""
    return _recall(_f1_matrix(system_claims, human_claims))


def easiness_f1(system_claims: Sequence[str], human_claims: Sequence[str]) -> float:
    """Harmonic mean of easiness precision and recall; 0.0 when both are 0."""
    matrix = _f1_matrix(system_claims, human_claims)
    return _harmonic(_precision(matrix), _recall(matrix))


def evaluate_claim_sets(
    system: Mapping[str, Sequence[str]], human: Mapping[str, Sequence[str]]
) -> dict:
    """Corpus-level easiness report over aligned claim-set collections.

    Both mappings must cover the same summary ids. Corpus precision/recall
    macro-average the per-summary values; the corpus ``easiness_f1`` is their
    harmonic mean, and the mean of per-summary F1s is also reported under
    ``easiness_f1_per_summary`` since both aggregations are in circulation.
    """
    if not system or not human:
        raise EmptyClaimSet("claim-set collections must be non-empty")
    missing = sorted(set(human) - set(system))
    extra = sorted(set(system) - set(human))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing from system file: {', '.join(missing)}")
        if extra:
            parts.append(f"missing from human file: {', '.join(extra)}")
        raise InputError("claim-set files cover different summaries: " + "; ".join(parts))
    per_summary: dict[str, dict[str, float]] = {}
    for summary_id in system:
        s_claims = list(system[summary_id])
        h_claims = list(human[summary_id])
        if not s_claims or not h_claims:
            raise EmptyClaimSet(f"summary '{summary_id}' has an empty claim set")
        matrix = _f1_matrix(s_claims, h_claims)
        precision = _precision(matrix)
        recall = _recall(matrix)
        f1 = _harmonic(precision, recall)
        per_summary[summary_id] = {
            "easiness_p": precision,
            "easiness_r": recall,
            "easiness_f1": f1,
        }
    count = len(per_summary)
    corpus_p = sum(row["easiness_p"] for row in per_summary.values()) / count
    corpus_r = sum(row["easiness_r"] for row in per_summary.values()) / count
    corpus_f1 = _harmonic(corpus_p, corpus_r)
    mean_f1 = sum(row["easiness_f1"] for row in per_summary.values()) / count
    return {
        "easiness_p": corpus_p,
        "easiness_r": corpus_r,
        "easiness_f1": corpus_f1,
        "easiness_f1_per_summary": mean_f1,
        "summaries": {sid: per_summary[sid] for sid in sorted(per_summary)},
    }
