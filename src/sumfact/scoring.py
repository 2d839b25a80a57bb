"""Claim scoring engine.

The pipeline for one claim runs in stages. First every document sentence is
scored as a premise and the best one becomes the anchor. The anchor is then
re-scored alongside coreference variants (the anchor with one mention swapped
for another surface form of its entity). If the best of those reaches the
gate threshold, that is the verdict; otherwise the claim is re-evaluated
against windows of consecutive sentences and the whole document, and the
better of those two replaces the coref score outright, even when lower. A
summary's score is the arithmetic mean over its claim verdicts. The ablations
are early stops of this one pipeline: after the sentence stage or after the
coref stage.

The engine memoizes backend results on (premise, hypothesis) within a run and
counts actual backend pairs per stage, so the gating short-circuit (no
window/document calls when the gate passes) is observable from counters and
from debug logs.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from typing import Literal, Sequence

from .documents import Claim, CorefCluster, Document, Mention
from .errors import OversizedPremise
from .nli import EntailmentBackend, EntailmentTriple

__all__ = [
    "Granularity",
    "Stage",
    "Stop",
    "ScoringParams",
    "Substitution",
    "AlignedSpan",
    "ClaimVerdict",
    "FactualityReport",
    "Scorer",
    "coref_variants",
]

logger = logging.getLogger("sumfact.scoring")

Granularity = Literal["sentence", "coref_sentence", "window", "document"]
Stage = Literal["sentence", "coref", "multi_granularity"]
Stop = Literal["sentence", "coref"]

STAGES = ("sentence", "coref", "window", "document")


@dataclass(frozen=True)
class ScoringParams:
    """Knobs of the claim-scoring formula.

    ``window_size`` is the length (in sentences) of the windowed premises;
    ``gate_threshold`` is the coref-stage score at or above which the
    window/document stages are skipped. Serialized as ``j`` and ``T`` in
    report JSON.

    ``monotone_gate=True`` departs from the default formula: when the coref
    score misses the gate, the verdict takes the max of the coref and
    multi-granularity scores instead of substituting unconditionally.
    """

    window_size: int = 5
    gate_threshold: float = 0.8
    max_coref_variants: int = 20
    monotone_gate: bool = False

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not (-1.0 <= self.gate_threshold <= 1.0):
            raise ValueError("gate_threshold must lie in [-1, 1]")
        if self.max_coref_variants < 1:
            raise ValueError("max_coref_variants must be >= 1")


@dataclass(frozen=True)
class Substitution:
    """Record of a single mention swap: ``replaced`` (the surface that was in
    the sentence) became ``replacement`` (another surface of the entity)."""

    replaced: str
    replacement: str


@dataclass(frozen=True)
class AlignedSpan:
    """The premise that produced a score, located by sentence range.

    ``sentence_end`` is inclusive. A budget-chunked document premise is
    reported as granularity ``window`` with the actual chunk range, so a
    ``document`` span always covers the whole document.
    """

    granularity: Granularity
    sentence_start: int
    sentence_end: int
    premise_text: str
    substitution: Substitution | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.sentence_start <= self.sentence_end):
            raise ValueError(
                f"invalid sentence range [{self.sentence_start}, {self.sentence_end}]"
            )
        if self.granularity in ("sentence", "coref_sentence"):
            if self.sentence_start != self.sentence_end:
                raise ValueError(f"{self.granularity} span must cover exactly one sentence")
        if self.substitution is not None and self.granularity != "coref_sentence":
            raise ValueError("substitution is only meaningful for coref_sentence spans")
        if self.granularity == "document" and self.sentence_start != 0:
            raise ValueError("document span must start at sentence 0")


@dataclass(frozen=True)
class ClaimVerdict:
    """Outcome for one claim: final score, the stage that produced it, the
    winning premise, and the per-stage sub-scores that were computed."""

    claim: Claim
    score: float
    stage: Stage
    aligned: AlignedSpan
    sub_scores: dict[str, float]


@dataclass(frozen=True)
class FactualityReport:
    """Scores for one summary; ``score`` is the mean over verdict scores."""

    summary_id: str
    score: float
    verdicts: tuple[ClaimVerdict, ...]
    claims_fallback: bool
    params: ScoringParams


def coref_variants(
    doc: Document, sentence_index: int, params: ScoringParams
) -> list[tuple[str, Substitution]]:
    """Single-substitution rewrites of one sentence.

    For each cluster mention inside the sentence (ordered by start offset)
    and each distinct other surface form in its cluster (in cluster order),
    emit the sentence with that one mention replaced. The original sentence
    is not included; callers add it themselves. Capped at
    ``params.max_coref_variants``.
    """
    if not (0 <= sentence_index < len(doc.sentences)):
        raise ValueError(f"sentence index {sentence_index} out of range")
    sentence = doc.sentences[sentence_index]
    local: list[tuple[Mention, CorefCluster]] = []
    for cluster in doc.coref_clusters:
        for mention in cluster.mentions:
            if mention.sentence_index == sentence_index:
                local.append((mention, cluster))
    local.sort(key=lambda pair: (pair[0].start, pair[0].end))
    out: list[tuple[str, Substitution]] = []
    for mention, cluster in local:
        seen = {mention.surface}
        for other in cluster.mentions:
            if other.surface in seen:
                continue
            seen.add(other.surface)
            variant = (
                sentence.text[: mention.start] + other.surface + sentence.text[mention.end :]
            )
            out.append((variant, Substitution(mention.surface, other.surface)))
            if len(out) >= params.max_coref_variants:
                return out
    return out


class Scorer:
    """Stateful engine: one backend, one parameter set, one memo cache.

    ``backend_calls`` counts premise/hypothesis pairs actually sent to the
    backend, per stage; memo hits are free and uncounted. Safe to share
    across threads (the memo and counters are lock-guarded), though counts
    interleave when multiple claims run concurrently.
    """

    def __init__(self, backend: EntailmentBackend, params: ScoringParams | None = None):
        self.backend = backend
        self.params = params or ScoringParams()
        self._memo: dict[tuple[str, str], EntailmentTriple] = {}
        self._lock = threading.Lock()
        self.backend_calls: dict[str, int] = {stage: 0 for stage in STAGES}

    # -- backend plumbing ---------------------------------------------------

    def _score_many(
        self, premises: Sequence[str], hypothesis: str, stage: str, claim: Claim
    ) -> list[float]:
        """Scores for each premise against one hypothesis, memoized.

        Distinct uncached premises are sent to the backend as one batch (the
        backend re-chunks to its own batch size), keeping results independent
        of caller-side batching.
        """
        with self._lock:
            misses = [p for p in dict.fromkeys(premises) if (p, hypothesis) not in self._memo]
        if misses:
            triples = self.backend.entail_batch([(p, hypothesis) for p in misses])
            with self._lock:
                for premise, triple in zip(misses, triples):
                    self._memo[(premise, hypothesis)] = triple
                self.backend_calls[stage] += len(misses)
            logger.debug(
                json.dumps(
                    {
                        "event": "nli_calls",
                        "stage": stage,
                        "summary_id": claim.summary_id,
                        "claim_index": claim.index,
                        "pairs": len(misses),
                    }
                )
            )
        with self._lock:
            return [self._memo[(premise, hypothesis)].score for premise in premises]

    def _best(
        self, candidates: Sequence[tuple], claim: Claim, stage: str
    ) -> tuple[float, AlignedSpan]:
        """The one selection rule of every stage: the best score over the
        candidate premises, and the first candidate attaining it as the span.

        Each candidate is a tuple of :class:`AlignedSpan` fields (premise text
        fourth); only the winner is built as a span.
        """
        scores = self._score_many([c[3] for c in candidates], claim.text, stage, claim)
        best = max(scores)
        return best, AlignedSpan(*candidates[scores.index(best)])

    # -- stages -------------------------------------------------------------

    def score_sentences(self, doc: Document, claim: Claim) -> tuple[float, AlignedSpan]:
        """Best per-sentence score; the lowest index attaining it is the anchor."""
        candidates = [("sentence", i, i, s.text) for i, s in enumerate(doc.sentences)]
        return self._best(candidates, claim, "sentence")

    def score_coref(
        self, doc: Document, claim: Claim, sentence: tuple[float, AlignedSpan]
    ) -> tuple[float, AlignedSpan]:
        """Re-score the anchor sentence against its coreference variants.

        ``sentence`` is the sentence stage's ``(score, span)`` for this
        claim. The original sentence is always the first candidate and wins
        ties, so the result never drops below the sentence-stage score. With
        no clusters this degrades to the sentence stage exactly.
        """
        anchor = sentence[1].sentence_start
        variants = coref_variants(doc, anchor, self.params)
        if not variants:
            return sentence
        candidates = [("sentence", anchor, anchor, sentence[1].premise_text)]
        candidates += [("coref_sentence", anchor, anchor, t, sub) for t, sub in variants]
        return self._best(candidates, claim, "coref")

    def score_claim(
        self, doc: Document, claim: Claim, stop: Stop | None = None
    ) -> ClaimVerdict:
        """Gated pipeline for one claim, or a prefix of it.

        ``stop="sentence"`` ends after the sentence stage and ``stop="coref"``
        after the coref stage; the verdict's stage then names the premise
        that won. Without a stop the window/document stages are only reached
        (and only issue backend calls) when the coref score misses the gate;
        below the gate their result replaces the coref score even when lower,
        unless ``params.monotone_gate`` is set.
        """
        sentence = self.score_sentences(doc, claim)
        sub = {"sentence": sentence[0]}
        if stop == "sentence":
            return ClaimVerdict(claim, sentence[0], "sentence", sentence[1], sub)
        coref_score, coref_span = self.score_coref(doc, claim, sentence)
        sub["coref"] = coref_score
        if stop == "coref":
            stage: Stage = "coref" if coref_span.granularity == "coref_sentence" else "sentence"
            return ClaimVerdict(claim, coref_score, stage, coref_span, sub)
        if coref_score >= self.params.gate_threshold:
            return ClaimVerdict(claim, coref_score, "coref", coref_span, sub)
        # Ties go to the document premise (broader evidence); when the
        # document fits in one window the two runs coincide via the memo.
        window = self.score_window(doc, claim, self.params.window_size)
        document = self.score_window(doc, claim, len(doc.sentences))
        sub["window"], sub["document"] = window[0], document[0]
        multi_score, multi_span = window if window[0] > document[0] else document
        if self.params.monotone_gate and coref_score > multi_score:
            return ClaimVerdict(claim, coref_score, "coref", coref_span, sub)
        return ClaimVerdict(claim, multi_score, "multi_granularity", multi_span, sub)

    def score_summary(
        self,
        doc: Document,
        claims: Sequence[Claim],
        *,
        claims_fallback: bool = False,
        stop: Stop | None = None,
    ) -> FactualityReport:
        """Score every claim and average; verdicts keep claim order.

        ``stop`` ends each claim's pipeline early, as in :meth:`score_claim`.
        """
        if not claims:
            raise ValueError("score_summary needs at least one claim")
        summary_id = claims[0].summary_id
        for claim in claims:
            if claim.summary_id != summary_id:
                raise ValueError(
                    f"claims mix summaries '{summary_id}' and '{claim.summary_id}'"
                )
        verdicts = tuple(self.score_claim(doc, claim, stop) for claim in claims)
        score = sum(v.score for v in verdicts) / len(verdicts)
        return FactualityReport(summary_id, score, verdicts, claims_fallback, self.params)

    # -- window and document stages ------------------------------------------

    def _join(self, doc: Document, start: int, length: int) -> str:
        return " ".join(s.text for s in doc.sentences[start : start + length])

    def _window_premises(
        self, doc: Document, start: int, length: int, hypothesis: str
    ) -> list[tuple[int, int, str]]:
        """Premises for one window: itself, or budget-sized chunks of it.

        A window over the backend budget is replaced by maximal-length runs
        of consecutive sentences that fit, each run starting half the
        previous run past the last start (stride at least 1). A single
        sentence over budget is unsplittable and raises.
        """
        text = self._join(doc, start, length)
        if not self.backend.exceeds_budget(text, hypothesis):
            return [(start, length, text)]
        out: list[tuple[int, int, str]] = []
        limit = start + length
        cursor = start
        while True:
            fit = 0
            while cursor + fit < limit:
                candidate = self._join(doc, cursor, fit + 1)
                if self.backend.exceeds_budget(candidate, hypothesis):
                    break
                fit += 1
            if fit == 0:
                raise OversizedPremise(
                    f"sentence {cursor} alone exceeds the backend budget "
                    f"against this hypothesis; cannot chunk further"
                )
            out.append((cursor, fit, self._join(doc, cursor, fit)))
            if cursor + fit >= limit:
                return out
            cursor += max(1, fit // 2)

    def score_window(self, doc: Document, claim: Claim, k: int) -> tuple[float, AlignedSpan]:
        """Max over all k-windows, each the window itself or its budget chunks.

        The first best premise wins, so ties go to the lowest start. A premise
        covering all ``n`` sentences is a ``document`` span, any other a
        ``window`` span. Counted under stage "document" when the window
        covers the whole document, else "window".
        """
        if k < 1:
            raise ValueError("window length must be >= 1")
        n = len(doc.sentences)
        k = min(k, n)
        candidates = [
            ("document" if length == n else "window", start, start + length - 1, text)
            for i in range(n - k + 1)
            for start, length, text in self._window_premises(doc, i, k, claim.text)
        ]
        return self._best(candidates, claim, "document" if k == n else "window")
