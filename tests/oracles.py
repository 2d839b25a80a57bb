"""Independent reference implementations used only by tests.

Everything here but :func:`window_stage` is written as straight-line loops
from the primitive definitions (lexical overlap triple, per-stage maxima,
gate, tie-breaks) and shares no code with the package, so it can serve as a
brute-force oracle for the scoring engine. Keep it dumb; speed and reuse are
non-goals.
"""

from __future__ import annotations

import re

_WORDS = re.compile(r"[^\W_]+", re.UNICODE)


def mock_triple(premise: str, hypothesis: str) -> tuple[float, float, float]:
    p = set(_WORDS.findall(premise.lower()))
    h = set(_WORDS.findall(hypothesis.lower()))
    o = len(p & h) / len(h) if h else 0.0
    if ("not" in p) != ("not" in h):
        e, n, c = 0.0, 1.0 - o, o
    else:
        e, n, c = o, 1.0 - o, 0.0
    total = e + n + c
    if total != 1.0:
        e, n, c = e / total, n / total, c / total
    return e, n, c


def mock_score(premise: str, hypothesis: str) -> float:
    e, _, c = mock_triple(premise, hypothesis)
    return e - c


def oracle_verdict(
    doc,
    claim,
    *,
    window_size: int,
    gate_threshold: float,
    max_coref_variants: int,
    monotone_gate: bool = False,
) -> dict:
    """Full per-claim result computed the slow way.

    Returns {"score", "stage", "sub_scores", "granularity", "start", "end",
    "premise", "substitution"} for comparison against the engine's verdict.
    """
    sentences = [s.text for s in doc.sentences]
    hypothesis = claim.text

    sent_scores = [mock_score(text, hypothesis) for text in sentences]
    sent_best = max(sent_scores)
    anchor = sent_scores.index(sent_best)
    anchor_text = sentences[anchor]

    # Enumerate single-substitution variants of the anchor sentence.
    in_anchor = []
    for cluster in doc.coref_clusters:
        for mention in cluster.mentions:
            if mention.sentence_index == anchor:
                in_anchor.append((mention, cluster))
    in_anchor.sort(key=lambda pair: (pair[0].start, pair[0].end))
    variants: list[tuple[str, tuple[str, str]]] = []
    for mention, cluster in in_anchor:
        if len(variants) >= max_coref_variants:
            break
        used = {mention.surface}
        for other in cluster.mentions:
            if other.surface in used:
                continue
            used.add(other.surface)
            text = anchor_text[: mention.start] + other.surface + anchor_text[mention.end :]
            variants.append((text, (mention.surface, other.surface)))
            if len(variants) >= max_coref_variants:
                break

    candidates = [anchor_text] + [text for text, _ in variants]
    coref_scores = [mock_score(text, hypothesis) for text in candidates]
    coref_best = max(coref_scores)
    winner = coref_scores.index(coref_best)
    if winner == 0:
        coref_view = ("sentence", anchor, anchor, anchor_text, None)
    else:
        text, substitution = variants[winner - 1]
        coref_view = ("coref_sentence", anchor, anchor, text, substitution)

    sub = {"sentence": sent_best, "coref": coref_best}
    if coref_best >= gate_threshold:
        granularity, start, end, premise, substitution = coref_view
        return {
            "score": coref_best,
            "stage": "coref",
            "sub_scores": sub,
            "granularity": granularity,
            "start": start,
            "end": end,
            "premise": premise,
            "substitution": substitution,
        }

    n = len(sentences)

    def best_window(k: int) -> tuple[float, int]:
        k = min(k, n)
        scores = []
        for i in range(n - k + 1):
            scores.append(mock_score(" ".join(sentences[i : i + k]), hypothesis))
        top = max(scores)
        return top, scores.index(top)

    window_score, window_start = best_window(window_size)
    document_score, _ = best_window(n)
    sub["window"] = window_score
    sub["document"] = document_score
    multi = max(window_score, document_score)

    if monotone_gate and coref_best > multi:
        granularity, start, end, premise, substitution = coref_view
        return {
            "score": coref_best,
            "stage": "coref",
            "sub_scores": sub,
            "granularity": granularity,
            "start": start,
            "end": end,
            "premise": premise,
            "substitution": substitution,
        }

    if window_score > document_score:
        k = min(window_size, n)
        return {
            "score": multi,
            "stage": "multi_granularity",
            "sub_scores": sub,
            "granularity": "window",
            "start": window_start,
            "end": window_start + k - 1,
            "premise": " ".join(sentences[window_start : window_start + k]),
            "substitution": None,
        }
    return {
        "score": multi,
        "stage": "multi_granularity",
        "sub_scores": sub,
        "granularity": "document",
        "start": 0,
        "end": n - 1,
        "premise": " ".join(sentences),
        "substitution": None,
    }


def verdict_to_view(verdict) -> dict:
    """Flatten an engine ClaimVerdict into the oracle's comparison shape."""
    substitution = None
    if verdict.aligned.substitution is not None:
        substitution = (
            verdict.aligned.substitution.replaced,
            verdict.aligned.substitution.replacement,
        )
    return {
        "score": verdict.score,
        "stage": verdict.stage,
        "sub_scores": dict(verdict.sub_scores),
        "granularity": verdict.aligned.granularity,
        "start": verdict.aligned.sentence_start,
        "end": verdict.aligned.sentence_end,
        "premise": verdict.aligned.premise_text,
        "substitution": substitution,
    }


def window_stage(scorer, doc, claim, k: int):
    """The engine's best k-window of ``doc`` for ``claim``, as ``(score, span)``.

    Unlike the rest of this module it drives the package: one wave of the
    scorer's own selection rule over its own window candidates. It shows a
    stage on its own where a verdict cannot: a window at any ``k``, or the
    window and document spans of a claim whose verdict another stage won.
    """
    return scorer._best([scorer._window_request(doc, claim, k)])[0]
