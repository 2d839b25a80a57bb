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

``Scorer.score_blocks`` is the one entry point. It runs the stages as waves
over each block of summaries, as the caller cuts them
(:func:`~sumfact.pipeline.score_corpus` cuts its one stream of resolved
summaries by sentence-wave pairs, so a block's working set follows its
work, and resolves a block's summaries as the scorer takes it): every
claim's sentence candidates go to the backend together, then the coref
candidates of all the claims, then the window and document candidates of
every gate miss. One selection rule
serves every wave. Blocks change how pairs are batched, never a score or a
span; the batch cap is :class:`~sumfact.nli.Inference`'s. One thread scores;
the backend keeps batches in flight, and the next block's first wave is sent
while the block before has its last wave in flight.

The window wave builds one :class:`WindowTable` per document of its block:
each (document, k) window's text and, with a budget, its size are built once
and every claim of the document filters them by its own room (the budget
less the claim's size). A window over that room is chunked, from prefix sums
of the document's sentence sizes confirmed with exact measures, into the
chunks that growing each run one sentence at a time would give, for any
measure that never shrinks when a sentence is added to a run (characters
and token counts). A block keeps one map of the sizes measured for it: every
wave's backend call reads and fills it in its budget check, and the window
tables build on it, so a text is measured once per block. The tables are
dropped once the wave's requests are built. The backend hands back plain
scores, and a wave looks each pair up once.

The engine memoizes backend scores for one block, keyed by claim text and
then premise text: a pair that the block asks for again (the coref anchor, a
document that equals its window, a claim repeated in the block) is sent once.
The memo is dropped with its block, so its size does not grow with the
corpus; a pair used again in a later block is sent again, and scores the
same. It counts, per stage, the pairs requested and the pairs sent to the
backend, crediting each as its wave sends it, so the gating short-circuit
(no window/document calls when the gate passes) is observable from counters
and from debug logs; and it counts the summaries it reports and their
claims fallbacks.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_right
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Literal, Sequence

from .documents import Claim, CorefCluster, Document, Mention
from .errors import OversizedPremise
from .nli import EntailmentBackend

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

Pair = tuple[str, str]
# One block's scores: claim text, then premise text, to the pair's score
# (``None`` while the wave that sent the pair is not yet read).
Memo = dict[str, dict[str, float | None]]
# One stage's candidate premises for one claim, and the stage to count them under.
Request = tuple[Sequence[tuple], Claim, str]
# One summary to score: ``(document, claims, claims_fallback)``.
Item = tuple[Document, Sequence[Claim], bool]


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
    """Stateful engine: one backend, one parameter set, the run's counts.

    :meth:`score_blocks` scores each block of summaries in waves, each wave
    one backend call over the pending claims of the whole block: first
    every claim's sentence candidates, then the coref candidates of the
    claims whose anchor has variants, then the window and document
    candidates of the claims that missed the gate. ``stop="sentence"`` ends
    the block after the first wave and ``stop="coref"`` after the second.
    A single summary is a block of one.

    ``pairs_requested`` counts the premise/hypothesis pairs of every
    request, per stage, and ``backend_calls`` the pairs actually sent to the
    backend, as they are sent; a pair is sent under the stage of the first
    request of its block that holds it, and memo hits are free. The memo
    lives for one block: a pair is sent at most once per block.
    ``summaries`` counts the reports built and ``claims_fallback`` those of
    them that score the summary's sentences for want of claims. A scorer is
    used from one thread; the backend keeps its own batches in flight.
    """

    def __init__(self, backend: EntailmentBackend, params: ScoringParams | None = None):
        self.backend = backend
        self.params = params or ScoringParams()
        self.pairs_requested: dict[str, int] = {stage: 0 for stage in STAGES}
        self.backend_calls: dict[str, int] = {stage: 0 for stage in STAGES}
        self.summaries = 0
        self.claims_fallback = 0

    # -- the waves --------------------------------------------------------------

    def score_blocks(
        self, blocks: Iterable[Sequence[Item]], *, stop: Stop | None = None
    ) -> Iterator[list[FactualityReport]]:
        """The reports of each block of ``(document, claims, claims_fallback)`` items.

        Each report averages its item's claim verdicts, which keep claim
        order; reports keep item order. ``stop`` ends every claim's pipeline
        early; a verdict's stage then names the premise that won. Results
        equal scoring each item alone: blocks change only how pairs are
        batched.

        A block's first wave is sent as soon as the block before has sent
        its last, so the backend has pairs to work on while the last results
        of the block before come back and are read; the next block is taken
        from ``blocks`` then. Each block has a memo of its own, and waves are
        sent in the order of scoring the blocks one at a time, so the
        reports, the pairs sent and the counters are those of that order,
        and so are failures: an error in taking the next block from
        ``blocks``, or in starting it, is raised after this block's reports.
        """
        waiting = block = None  # a block with its last wave sent; the block after it
        blocks = iter(blocks)
        try:
            while True:
                try:
                    items = next(blocks, None)
                    if items is None:
                        break
                    block = self._block(items, stop)
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
            self.summaries += 1
            self.claims_fallback += claims_fallback
        return reports

    def _wave(
        self,
        requests: Sequence[Request],
        last: bool,
        memo: Memo,
        sizes: dict[str, int],
        bound: int | None,
    ) -> Generator[bool, None, list[tuple[float, AlignedSpan]]]:
        """One stage's requests over a block: send, pause yielding ``last``, then read.

        A request is ``(candidates, claim, stage)``; each candidate is a
        tuple of :class:`AlignedSpan` fields (premise text fourth). The pairs
        missing from ``memo``, the block's memo, go to the backend as one
        call, in request order and without duplicates, so the backend fills
        its batches across claims; each is credited to the stage of the
        request that first asks for it, and logged, as it is sent. ``sizes``
        is the block's map of measures, for the backend's budget check, and
        ``bound`` the block's largest pair or ``None``, for the batch cap.

        Once resumed, the wave waits for its pairs, writes their scores to
        the memo by text and applies the one selection rule of every stage:
        for each request, the best score over its candidates and the first
        candidate attaining it, built as the span. Closing the paused wave
        cancels its batches not yet started.
        """
        pairs: list[Pair] = []
        debug = logger.isEnabledFor(logging.DEBUG)
        for candidates, claim, stage in requests:
            hypothesis = claim.text
            known = memo.get(hypothesis)
            if known is None:
                known = memo[hypothesis] = {}
            self.pairs_requested[stage] += len(candidates)
            sent = len(pairs)
            for candidate in candidates:
                premise = candidate[3]
                if premise not in known:
                    known[premise] = None
                    pairs.append((premise, hypothesis))
            count = len(pairs) - sent
            if count:
                self.backend_calls[stage] += count
                if debug:
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
        inference = self.backend.submit(pairs, sizes, bound) if pairs else None
        try:
            yield last
        except GeneratorExit:
            if inference is not None:
                inference.cancel()
            raise
        if inference is not None:
            for (premise, hypothesis), score in zip(pairs, inference.scores()):
                memo[hypothesis][premise] = score
        out = []
        for candidates, claim, _ in requests:
            known = memo[claim.text]
            scores = [known[c[3]] for c in candidates]
            best = max(scores)
            out.append((best, AlignedSpan(*candidates[scores.index(best)])))
        return out

    def _verdicts(
        self, jobs: Sequence[tuple[Document, Claim]], stop: Stop | None
    ) -> Generator[bool, None, list[ClaimVerdict]]:
        """Verdicts for ``(document, claim)`` jobs, each stage one wave over all jobs.

        The waves share one memo, so each pair is sent once, one map of sizes,
        so each text is measured once, and, without a budget or ``stop``, one
        batch cap: each passes the block's largest pair as its ``bound`` (see
        :class:`~sumfact.nli.Inference`).
        """
        memo: Memo = {}
        sizes: dict[str, int] = {}
        # Every sentence, one candidate list per document; the lowest index
        # attaining the best score is the anchor.
        by_doc = {
            id(doc): [("sentence", i, i, s.text) for i, s in enumerate(doc.sentences)]
            for doc in {id(doc): doc for doc, _ in jobs}.values()
        }
        bound = None
        if stop is None and self.backend.max_units is None:
            # A document premise joins its sentences with single spaces.
            joined = {
                key: sum(len(c[3]) for c in candidates) + len(candidates) - 1
                for key, candidates in by_doc.items()
            }
            bound = max((joined[id(doc)] + len(claim.text) for doc, claim in jobs), default=None)
        requests = [(by_doc[id(doc)], claim, "sentence") for doc, claim in jobs]
        sentence = yield from self._wave(requests, stop == "sentence", memo, sizes, bound)
        if stop == "sentence":
            return [
                ClaimVerdict(claim, score, "sentence", span, {"sentence": score})
                for (_, claim), (score, span) in zip(jobs, sentence)
            ]
        coref = list(sentence)
        wave = [(i, self._coref_candidates(doc, sentence[i][1])) for i, (doc, _) in enumerate(jobs)]
        wave = [(i, candidates) for i, candidates in wave if candidates]
        requests = [(candidates, jobs[i][1], "coref") for i, candidates in wave]
        results = yield from self._wave(requests, stop == "coref", memo, sizes, bound)
        for (i, _), result in zip(wave, results):
            coref[i] = result
        # Gate misses: windows, then the whole document.
        multi = {}
        if stop is None:
            misses = [i for i, (score, _) in enumerate(coref) if score < self.params.gate_threshold]
            requests = self._window_requests([jobs[i] for i in misses], sizes)
            results = yield from self._wave(requests, True, memo, sizes, bound)
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

    def _coref_candidates(self, doc: Document, anchor_span: AlignedSpan) -> list[tuple]:
        """The anchor sentence, which wins ties, then its variants; empty without variants."""
        anchor = anchor_span.sentence_start
        variants = coref_variants(doc, anchor, self.params)
        if not variants:
            return []
        candidates: list[tuple] = [("sentence", anchor, anchor, anchor_span.premise_text)]
        candidates += [("coref_sentence", anchor, anchor, t, sub) for t, sub in variants]
        return candidates

    def _window_requests(
        self, jobs: Sequence[tuple[Document, Claim]], sizes: dict[str, int]
    ) -> list[Request]:
        """The window and document requests of each gate miss, in job order.

        A claim's window request holds every k-window (``k`` clamped to the
        document's length) or its budget chunks, lowest start first, and its
        document request the whole document or its chunks. ``room`` is the
        budget less the claim's size, so a premise fits exactly when premise
        and claim fit the budget together. Each document's window table
        serves every claim of it in this wave and is dropped once the
        requests are built. The tables build on the block's map of sizes
        (see :class:`WindowTable`), which goes with the wave to the backend.
        """
        tables: dict[int, WindowTable] = {}
        requests = []
        for doc, claim in jobs:
            table = tables.get(id(doc))
            if table is None:
                table = tables[id(doc)] = WindowTable(doc, self.backend, sizes)
            room = table.room(claim.text)
            for k in (min(self.params.window_size, table.n), table.n):
                stage = "document" if k == table.n else "window"
                requests.append((table.candidates(k, room), claim, stage))
        return requests


class WindowTable:
    """One document's window premises, for one block's window wave.

    Each run of consecutive sentences is joined at most once and, with a
    budget, measured at most once (without one nothing is measured), so each
    (document, k) window's text and size are built once and every claim of
    the document filters them by its own room; claims with equal room share
    one candidate list.

    A window that does not fit the room is replaced by maximal-length runs
    of consecutive sentences that do (chunks), each starting half the
    previous run past the last start (stride at least 1). A single sentence
    that does not fit is unsplittable and raises. A chunk's length is
    estimated from prefix sums of the document's sentence sizes and then
    confirmed with exact measures of the run, walking one sentence at a time
    from the estimate to the longest run that fits. That is the length that
    growing the run one sentence at a time finds, for any measure that never
    shrinks when a sentence is added to a run; characters and token counts
    behave that way.

    ``sizes`` is the block's map of measured texts: the tables add the
    hypotheses, sentences and candidates they measure, texts that live on
    anyway, and find there those an earlier wave measured, so a text is
    measured once however many tables and waves meet it (a run that did not
    fit is not kept, and is measured again only if it recurs).
    """

    __slots__ = (
        "n",
        "sizes",
        "_sentences",
        "_max_units",
        "_measure",
        "_texts",
        "_runs",
        "_prefix",
        "_candidates",
    )

    def __init__(self, doc: Document, backend: EntailmentBackend, sizes: dict[str, int]):
        self._sentences = [s.text for s in doc.sentences]
        self.n = len(self._sentences)
        self._max_units = backend.max_units
        self._measure = backend.measure
        self._texts: dict[tuple[int, int], str] = {}
        self._runs: dict[tuple[int, int], int] = {}
        self._prefix: list[int] | None = None
        self._candidates: dict[tuple[int, int | None], list[tuple]] = {}
        self.sizes = sizes

    def room(self, hypothesis: str) -> int | None:
        """The budget less the size of ``hypothesis``; ``None`` without a budget."""
        if self._max_units is None:
            return None
        return self._max_units - self._measured(hypothesis)

    def candidates(self, k: int, room: int | None) -> list[tuple]:
        """Span fields of every k-window that fits ``room``, or of its chunks."""
        key = (k, room)
        out = self._candidates.get(key)
        if out is None:
            out = []
            n = self.n
            for start in range(n - k + 1):
                if room is None or self._size(start, k) <= room:
                    runs = [(start, k)]
                else:
                    runs = self._chunks(start, k, room)
                for first, length in runs:
                    granularity = "document" if length == n else "window"
                    text = self._text(first, length)
                    if room is not None:
                        self.sizes[text] = self._size(first, length)
                    out.append((granularity, first, first + length - 1, text))
            self._candidates[key] = out
        return out

    def _text(self, start: int, length: int) -> str:
        key = (start, length)
        text = self._texts.get(key)
        if text is None:
            text = self._texts[key] = " ".join(self._sentences[start : start + length])
        return text

    def _size(self, start: int, length: int) -> int:
        key = (start, length)
        size = self._runs.get(key)
        if size is None:
            text = self._texts.get(key) or " ".join(self._sentences[start : start + length])
            size = self.sizes.get(text)
            if size is None:
                size = self._measure(text)
                # A run tried and found too long is measured, not kept as text.
                if length == 1:
                    self.sizes[text] = size
            self._runs[key] = size
        return size

    def _measured(self, text: str) -> int:
        size = self.sizes.get(text)
        if size is None:
            size = self.sizes[text] = self._measure(text)
        return size

    def _chunks(self, start: int, length: int, room: int) -> list[tuple[int, int]]:
        """``(start, length)`` of the chunks of one window, in order."""
        out = []
        limit = start + length
        cursor = start
        while True:
            fit = self._fit(cursor, limit - cursor, room)
            if fit == 0:
                raise OversizedPremise(
                    f"sentence {cursor} alone exceeds the backend budget "
                    f"against this hypothesis; cannot chunk further"
                )
            out.append((cursor, fit))
            if cursor + fit >= limit:
                return out
            cursor += max(1, fit // 2)

    def _fit(self, start: int, most: int, room: int) -> int:
        """Sentences in the longest run from ``start``, of at most ``most``, that fits ``room``."""
        prefix = self._prefix
        if prefix is None:
            prefix = self._prefix = [0]
            for i in range(self.n):
                prefix.append(prefix[-1] + self._size(i, 1))
        # The estimate: the longest run whose sentence sizes sum within the room.
        # It is exact for one sentence, so 0 means the first alone does not fit.
        fit = bisect_right(prefix, prefix[start] + room, start, start + most + 1) - 1 - start
        fit = max(fit, 0)
        # A run's size need not be the sum, but it never shrinks as the run
        # grows, so the runs that fit are those up to one length: walk to it.
        if fit and self._size(start, fit) <= room:
            while fit < most and self._size(start, fit + 1) <= room:
                fit += 1
        else:
            while fit and self._size(start, fit) > room:
                fit -= 1
        return fit
