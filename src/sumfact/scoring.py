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

``Scorer.score_blocks`` is the one entry point (``score_summaries`` scores
a single block). It runs the stages as waves over each block of summaries:
every claim's sentence candidates go to the backend together, then the coref
candidates of all the claims, then the window and document candidates of
every gate miss. One selection rule serves every wave. Blocks change how
pairs are batched, never a score or a span. One thread scores; the backend
keeps batches in flight, and the next block's first wave is sent while the
block before has its last wave in flight.

The engine memoizes backend scores, keyed by a digest of each (premise,
hypothesis) pair, so the memo keeps no premise text alive once its wave is
scored. It keeps only the pairs used in the last ``MEMO_BLOCKS`` blocks, so
its size does not grow with the corpus; a pair seen again further apart is
sent again, and scores the same. It counts the pairs requested and the pairs
actually sent to the backend per stage, so the gating short-circuit (no
window/document calls when the gate passes) is observable from counters and
from debug logs.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter, deque
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Literal, Sequence

from .documents import Claim, CorefCluster, Document, Mention
from .errors import OversizedPremise
from .nli import EntailmentBackend, Inference

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

# The memo keeps the scores of the pairs used in this many of the latest
# blocks (of ``Scorer.score_blocks``, counted by ordinal), the current one
# included: a pair used again within ``MEMO_BLOCKS - 1`` blocks
# is not sent again.
MEMO_BLOCKS = 2

Pair = tuple[str, str]
# A memo key: the 16-byte digest of the premise, then that of the hypothesis.
Key = bytes
# One stage's candidate premises for one claim, and the stage to count them under.
Request = tuple[Sequence[tuple], Claim, str]
# One summary to score: ``(document, claims, claims_fallback)``.
Item = tuple[Document, Sequence[Claim], bool]


@dataclass(eq=False)
class Wave:
    """One stage's requests over a block, sent and not yet read.

    ``keys`` holds each request's pair keys; ``known`` their scores, found
    in the memo when sent, filled in once read for the pairs sent and for
    those an earlier wave had in flight; ``missing`` each sent pair by key,
    with the index of its first request; ``memo`` the memo of its block;
    ``borrowers`` the ``(key, known, memo)`` of each pair sent here that a
    later wave asked for too, to hand its score on to.
    """

    requests: Sequence[Request]
    keys: list[list[Key]]
    known: dict[Key, float]
    missing: dict[Key, tuple[int, Pair]]
    inference: Inference | None
    memo: dict[Key, float]
    borrowers: list[tuple[Key, dict[Key, float], dict[Key, float]]]


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


def _finish(block: Generator[bool, None, list[FactualityReport]]) -> list[FactualityReport]:
    """Resume a block paused at its last wave: its reports."""
    try:
        block.send(None)
    except StopIteration as done:
        return done.value
    raise RuntimeError("a block sent a wave after its last")


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

    :meth:`score_blocks` scores each block of summaries in waves, each wave
    one backend call over the pending claims of the whole block: first
    every claim's sentence candidates, then the coref candidates of the
    claims whose anchor has variants, then the window and document
    candidates of the claims that missed the gate. ``stop="sentence"`` ends
    the block after the first wave and ``stop="coref"`` after the second.
    :meth:`score_summaries` scores a single block; a single summary is a
    block of one.

    ``pairs_requested`` counts the premise/hypothesis pairs of every
    request, per stage, and ``backend_calls`` the pairs actually sent to the
    backend; a pair is sent under the stage of the first request of its wave
    that holds it, and memo hits are free. The memo keeps the scores of the
    pairs used in the last ``MEMO_BLOCKS`` blocks. A scorer is used from one
    thread; the backend keeps its own batches in flight.
    """

    def __init__(self, backend: EntailmentBackend, params: ScoringParams | None = None):
        self.backend = backend
        self.params = params or ScoringParams()
        # One dict per block, latest last: the scores of the pairs that block used.
        self._memo: deque[dict[Key, float]] = deque([{}], maxlen=MEMO_BLOCKS)
        # Waves sent and not yet read, oldest first: at most the last wave of
        # the block before, once the next block has sent its first.
        self._in_flight: list[Wave] = []
        self.pairs_requested: dict[str, int] = {stage: 0 for stage in STAGES}
        self.backend_calls: dict[str, int] = {stage: 0 for stage in STAGES}

    # -- the selection rule ---------------------------------------------------

    def _request(self, requests: Sequence[Request]) -> Wave:
        """Look a wave's pairs up and send the missing ones, without waiting.

        A request is ``(candidates, claim, stage)``; each candidate is a
        tuple of :class:`AlignedSpan` fields (premise text fourth). The memo
        misses of all requests go to the backend as one call, in
        request order and without duplicates, so the backend fills its
        batches across claims; a pair that an earlier wave still has in
        flight is not sent again. A pair an earlier block used moves into
        this block's memo. Each distinct text is hashed once per wave, and
        only the texts of the pairs sent are kept until they are scored.
        """
        texts = {c[3] for candidates, _, _ in requests for c in candidates}
        texts.update(claim.text for _, claim, _ in requests)
        digest = {
            text: hashlib.blake2b(text.encode("utf-8", "surrogatepass"), digest_size=16).digest()
            for text in texts
        }
        memo = self._memo[-1]
        earlier = list(self._memo)[:-1]
        sending = {key: wave for wave in self._in_flight for key in wave.missing}
        keys = []
        known: dict[Key, float] = {}
        missing: dict[Key, tuple[int, Pair]] = {}
        borrowed: set[Key] = set()
        for i, (candidates, claim, stage) in enumerate(requests):
            hypothesis = digest[claim.text]
            row = [digest[c[3]] + hypothesis for c in candidates]
            keys.append(row)
            self.pairs_requested[stage] += len(row)
            for key, candidate in zip(row, candidates):
                if key in known or key in missing or key in borrowed:
                    continue
                if key in memo:
                    known[key] = memo[key]
                elif key in sending:
                    sending[key].borrowers.append((key, known, memo))
                    borrowed.add(key)
                else:
                    for block in earlier:
                        if key in block:
                            known[key] = memo[key] = block.pop(key)
                            break
                    else:
                        missing[key] = (i, (candidate[3], claim.text))
        wave = Wave(requests, keys, known, missing, None, memo, [])
        if missing:
            wave.inference = self.backend.submit([pair for _, pair in missing.values()])
            self._in_flight.append(wave)
        return wave

    def _collect(self, wave: Wave) -> list[tuple[float, AlignedSpan]]:
        """The one selection rule of every stage, over a wave's requests.

        For each request, the result is the best score over its candidates
        and the first candidate attaining it, built as the span. Waits for
        the pairs sent, hands their scores to the later waves that asked for
        them too, and credits each to its first request's stage.
        """
        known = wave.known
        if wave.inference is not None:
            try:
                scores = [triple.score for triple in wave.inference.result()]
            finally:
                self._in_flight.remove(wave)
            sent = dict(zip(wave.missing, scores))
            known.update(sent)
            wave.memo.update(sent)
            for key, other_known, other_memo in wave.borrowers:
                other_known[key] = other_memo[key] = sent[key]
            self._credit(wave.missing, wave.requests)
        out = []
        for (candidates, _, _), row in zip(wave.requests, wave.keys):
            scores = [known[key] for key in row]
            best = max(scores)
            out.append((best, AlignedSpan(*candidates[scores.index(best)])))
        return out

    def _credit(self, missing: dict[Key, tuple[int, Pair]], requests: Sequence[Request]) -> None:
        credited = Counter(i for i, _ in missing.values())
        for i, count in credited.items():
            self.backend_calls[requests[i][2]] += count
        if logger.isEnabledFor(logging.DEBUG):
            # ``missing`` was filled in request order, so these lines are too.
            for i, count in credited.items():
                _, claim, stage = requests[i]
                logger.debug(
                    json.dumps(
                        {
                            "event": "nli_calls",
                            "stage": stage,
                            "summary_id": claim.summary_id,
                            "claim_index": claim.index,
                            "pairs": count,
                        }
                    )
                )

    # -- the waves --------------------------------------------------------------

    def score_summaries(
        self, items: Sequence[Item], *, stop: Stop | None = None
    ) -> list[FactualityReport]:
        """Score a block of ``(document, claims, claims_fallback)`` items.

        Each report averages its item's claim verdicts, which keep claim
        order; reports keep item order. ``stop`` ends every claim's pipeline
        early; a verdict's stage then names the premise that won. Results
        equal scoring each item alone: blocks change only how pairs are batched.
        """
        (reports,) = self.score_blocks([items], stop=stop)
        return reports

    def score_blocks(
        self, blocks: Iterable[Sequence[Item]], *, stop: Stop | None = None
    ) -> Iterator[list[FactualityReport]]:
        """The reports of each block, block by block, as :meth:`score_summaries` gives them.

        A block's first wave is sent as soon as the block before has sent
        its last, so the backend has pairs to work on while the last results
        of the block before come back and are read; the next block is taken
        from ``blocks`` then. Waves are sent, and the memo is read, in the
        order of scoring the blocks one at a time, so the reports, the pairs
        sent and the counters are those of that order, and so are failures:
        an error in starting the next block is raised after this block's
        reports.
        """
        waiting = block = None  # a block with its last wave sent; the block after it
        try:
            for items in blocks:
                block = self._block(items, stop)
                try:
                    last = next(block)
                except Exception:
                    if waiting is not None:
                        reports, waiting = _finish(waiting), None
                        yield reports
                    raise
                if waiting is not None:
                    reports, waiting = _finish(waiting), None
                    yield reports
                while not last:
                    last = block.send(None)
                waiting, block = block, None
            if waiting is not None:
                reports, waiting = _finish(waiting), None
                yield reports
        finally:
            for started in (waiting, block):
                if started is not None:
                    started.close()

    def _block(
        self, items: Sequence[Item], stop: Stop | None
    ) -> Generator[bool, None, list[FactualityReport]]:
        """Score one block; paused after sending each wave (see :meth:`_wave`)."""
        jobs: list[tuple[Document, Claim]] = []
        for doc, claims, _ in items:
            if not claims:
                raise ValueError("every summary needs at least one claim")
            summary_id = claims[0].summary_id
            for claim in claims:
                if claim.summary_id != summary_id:
                    raise ValueError(
                        f"claims mix summaries '{summary_id}' and '{claim.summary_id}'"
                    )
                jobs.append((doc, claim))
        self._memo.append({})
        verdicts = yield from self._verdicts(jobs, stop)
        reports = []
        lo = 0
        for _, claims, claims_fallback in items:
            own = tuple(verdicts[lo : lo + len(claims)])
            lo += len(claims)
            score = sum(v.score for v in own) / len(own)
            reports.append(
                FactualityReport(claims[0].summary_id, score, own, claims_fallback, self.params)
            )
        return reports

    def _wave(
        self, requests: Sequence[Request], last: bool
    ) -> Generator[bool, None, list[tuple[float, AlignedSpan]]]:
        """Send a wave, pause yielding whether it is the block's last, then read it.

        Closing the paused wave cancels its batches not yet started.
        """
        wave = self._request(requests)
        try:
            yield last
        except GeneratorExit:
            if wave.inference is not None:
                wave.inference.cancel()
                self._in_flight.remove(wave)
            raise
        return self._collect(wave)

    def _verdicts(
        self, jobs: Sequence[tuple[Document, Claim]], stop: Stop | None
    ) -> Generator[bool, None, list[ClaimVerdict]]:
        """Verdicts for ``(document, claim)`` jobs, each stage one wave over all jobs."""
        requests = [self._sentence_request(doc, claim) for doc, claim in jobs]
        sentence = yield from self._wave(requests, stop == "sentence")
        if stop == "sentence":
            return [
                ClaimVerdict(claim, score, "sentence", span, {"sentence": score})
                for (_, claim), (score, span) in zip(jobs, sentence)
            ]
        coref = list(sentence)
        wave = [(i, self._coref_candidates(doc, sentence[i][1])) for i, (doc, _) in enumerate(jobs)]
        wave = [(i, candidates) for i, candidates in wave if candidates]
        requests = [(candidates, jobs[i][1], "coref") for i, candidates in wave]
        results = yield from self._wave(requests, stop == "coref")
        for (i, _), result in zip(wave, results):
            coref[i] = result
        # Gate misses: windows, then the whole document.
        multi = {}
        if stop is None:
            misses = [i for i, (score, _) in enumerate(coref) if score < self.params.gate_threshold]
            requests = [
                self._window_request(jobs[i][0], jobs[i][1], k)
                for i in misses
                for k in (self.params.window_size, len(jobs[i][0].sentences))
            ]
            results = yield from self._wave(requests, True)
            multi = {i: (results[2 * m], results[2 * m + 1]) for m, i in enumerate(misses)}
        verdicts = []
        for i, (_, claim) in enumerate(jobs):
            score, span = coref[i]
            sub = {"sentence": sentence[i][0], "coref": score}
            if stop == "coref":
                stage: Stage = "coref" if span.granularity == "coref_sentence" else "sentence"
                verdicts.append(ClaimVerdict(claim, score, stage, span, sub))
                continue
            if i not in multi:
                verdicts.append(ClaimVerdict(claim, score, "coref", span, sub))
                continue
            window, document = multi[i]
            sub["window"], sub["document"] = window[0], document[0]
            # Ties go to the document premise (broader evidence); when the
            # document fits in one window the two coincide via the memo.
            # Below the gate the result replaces the coref score even when
            # lower, unless the gate is monotone.
            multi_score, multi_span = window if window[0] > document[0] else document
            if self.params.monotone_gate and score > multi_score:
                verdicts.append(ClaimVerdict(claim, score, "coref", span, sub))
            else:
                verdicts.append(
                    ClaimVerdict(claim, multi_score, "multi_granularity", multi_span, sub)
                )
        return verdicts

    # -- candidate lists ----------------------------------------------------------

    def _sentence_request(self, doc: Document, claim: Claim) -> Request:
        """Every sentence; the lowest index attaining the best score is the anchor."""
        return [("sentence", i, i, s.text) for i, s in enumerate(doc.sentences)], claim, "sentence"

    def _coref_candidates(self, doc: Document, anchor_span: AlignedSpan) -> list[tuple]:
        """The anchor sentence, which wins ties, then its variants; empty without variants."""
        anchor = anchor_span.sentence_start
        variants = coref_variants(doc, anchor, self.params)
        if not variants:
            return []
        candidates: list[tuple] = [("sentence", anchor, anchor, anchor_span.premise_text)]
        candidates += [("coref_sentence", anchor, anchor, t, sub) for t, sub in variants]
        return candidates

    def _window_request(self, doc: Document, claim: Claim, k: int) -> Request:
        """Every k-window (``k`` clamped to ``n``) or its budget chunks, lowest start first.

        With a budget, the claim is measured once here and each premise is
        held to the room it leaves.
        """
        n = len(doc.sentences)
        k = min(k, n)
        budget = self.backend.budget
        room = None if budget is None else budget.max_units - self.backend.measure(claim.text)
        candidates = [
            ("document" if length == n else "window", start, start + length - 1, text)
            for i in range(n - k + 1)
            for start, length, text in self._window_premises(doc, i, k, room)
        ]
        return candidates, claim, "document" if k == n else "window"

    def _join(self, doc: Document, start: int, length: int) -> str:
        return " ".join(s.text for s in doc.sentences[start : start + length])

    def _window_premises(
        self, doc: Document, start: int, length: int, room: int | None
    ) -> list[tuple[int, int, str]]:
        """Premises for one window: itself, or chunks that fit in ``room`` units.

        ``room`` is the budget less the hypothesis's size (``None``: no
        budget), so a premise fits exactly when premise and hypothesis fit
        the budget together. A window that does not fit is replaced by
        maximal-length runs of consecutive sentences that do, each run
        starting half the previous run past the last start (stride at
        least 1). A single sentence that does not fit is unsplittable and
        raises.
        """
        text = self._join(doc, start, length)
        if room is None or self.backend.measure(text) <= room:
            return [(start, length, text)]
        out: list[tuple[int, int, str]] = []
        limit = start + length
        cursor = start
        while True:
            fit = 0
            while cursor + fit < limit:
                if self.backend.measure(self._join(doc, cursor, fit + 1)) > room:
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
