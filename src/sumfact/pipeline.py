"""Wiring: build backends from config and drive corpus-level scoring.

The ``make_*`` factories take a :class:`~sumfact.config.RunConfig`, which is
valid by construction, so they only build: the selector grammar and its
errors live in the config's one selector table.

This layer owns the policies that span modules: the empty-claims fallback
(summary sentences become the claims, flagged on the report), degradation to
empty clusters when the coreference backend fails, what each mode scores
and where it stops the scoring pipeline (as :data:`~sumfact.config.MODES`
tables them), the cut of a corpus into scoring blocks by work, and the one
concurrency rule of claim resolution (:func:`ordered_map`, on the NLI
backend's ``workers``).
:func:`score_corpus` is the one path from (document, summary) pairs to
reports: it resolves the pairs as one stream and cuts it into blocks as the
scorer needs them. The pairs come from the second pass of :mod:`~sumfact.formats`
(``read_corpus`` for ``score``, ``read_benchmark_records`` for ``benchmark``),
which reads each as the stream takes it, so a run holds only the pairs of
the blocks in flight. The CLI calls it and does no scoring itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from . import formats
from .benchmark import config_fingerprint
from .claims import (
    ClaimExtractor,
    FileCacheExtractor,
    LocalSeq2SeqExtractor,
    RemoteLlmExtractor,
)
from .config import MODES, RunConfig, scoring_params
from .coref import CorefBackend, HeuristicCorefBackend, NoopCorefBackend
from .documents import Claim, Document, Summary, build_claims
from .errors import ClaimCacheMiss
from .nli import (
    EntailmentBackend,
    LocalEntailmentBackend,
    MockEntailmentBackend,
    RemoteEntailmentBackend,
)
from .scoring import FactualityReport, Item, Scorer

__all__ = [
    "make_nli_backend",
    "make_coref_backend",
    "make_claim_extractor",
    "fallback_claims",
    "resolve_claims",
    "attach_clusters",
    "score_corpus",
    "scorer_fingerprint",
    "ordered_map",
]

logger = logging.getLogger("sumfact.pipeline")


def make_nli_backend(config: RunConfig) -> EntailmentBackend:
    kind, _, value = config.nli_backend.partition(":")
    shared = {
        "batch_size": config.nli_batch_size,
        "max_units": config.nli_max_units or None,  # 0, like None, means unlimited
        "workers": config.workers,
    }
    if kind == "remote":
        return RemoteEntailmentBackend(value, **shared)
    if kind == "local":
        return LocalEntailmentBackend(value, **shared)
    return MockEntailmentBackend(**shared)


def make_coref_backend(config: RunConfig) -> CorefBackend:
    if config.coref_backend == "heuristic":
        return HeuristicCorefBackend(max_sentences=config.coref_max_sentences)
    return NoopCorefBackend()


def make_claim_extractor(config: RunConfig) -> ClaimExtractor | None:
    kind, _, value = config.claim_backend.partition(":")
    if kind == "cache":
        return FileCacheExtractor(formats.load_claim_cache(value), source=value)
    if kind == "remote":
        return RemoteLlmExtractor(
            value,
            model=config.claim_model,
            timeout=config.claim_timeout,
            max_retries=config.claim_max_retries,
            api_key_env=config.claim_api_key_env,
            max_tokens=config.claim_max_tokens,
        )
    if kind == "local":
        return LocalSeq2SeqExtractor(value)
    return None


def _code_digests() -> dict[str, str]:
    """The SHA-256 of the bytes of each ``*.py`` file of the loaded package, by name."""
    modules = sorted(Path(__file__).parent.glob("*.py"))
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in modules}


def _checkpoint_files(selector: str) -> list[tuple[str, int, int]]:
    """Name, size and ``st_mtime_ns`` of each file under a ``local:`` checkpoint
    that is a directory, in name order (no bytes are read); none for any other."""
    kind, _, path = selector.partition(":")
    root = Path(path)
    if kind != "local" or not root.is_dir():
        return []
    files = (f for f in root.rglob("*") if f.is_file())
    stats = sorted((f.relative_to(root).as_posix(), f.stat()) for f in files)
    return [(name, stat.st_size, stat.st_mtime_ns) for name, stat in stats]


def scorer_fingerprint(
    config: RunConfig, backend: EntailmentBackend, extractor: ClaimExtractor | None
) -> str:
    """Digest of everything that can change a record's score.

    That is the code that scores, as the bytes of every module of the loaded
    package, so any edit to the package misses every cache written before
    it; the configuration that scores; and a ``local:`` checkpoint directory
    by its files' names, sizes and modification times. A ``remote:``
    service cannot be keyed beyond its URL. The premise budget enters as
    the backend uses it, so a ``local:`` budget taken from the tokenizer's
    declared length is keyed too. A ``cache:`` claim backend enters by the
    digest of its claims as well as its path. Modes that score summary
    sentences never call the extractor, so its settings are left out there.
    """
    parts: dict[str, object] = {
        "code": _code_digests(),
        "nli": backend.describe(),
        "nli_files": _checkpoint_files(config.nli_backend),
        "nli_max_units": backend.max_units,
        "coref": config.coref_backend,
        "coref_max_sentences": config.coref_max_sentences,
        "mode": config.mode,
        **dataclasses.asdict(scoring_params(config)),
    }
    sentences, _ = MODES[config.mode]
    if not sentences:
        parts["claims"] = config.claim_backend
        parts["claim_files"] = _checkpoint_files(config.claim_backend)
        parts["claim_model"] = config.claim_model
        parts["claim_max_tokens"] = config.claim_max_tokens
        if isinstance(extractor, FileCacheExtractor):
            parts["claims_digest"] = extractor.digest()
    return config_fingerprint(parts)


def fallback_claims(summary: Summary) -> list[Claim]:
    """Summary sentences as claims, for when extraction yields nothing."""
    return build_claims(summary.id, [s.text for s in summary.sentences])


def resolve_claims(
    summary: Summary, extractor: ClaimExtractor | None, *, missing_ok: bool = False
) -> tuple[list[Claim], bool]:
    """Claims for a summary plus a flag marking the sentence fallback.

    With no extractor configured the fallback is taken directly; an empty
    extraction takes it with a warning. A cache miss is an input error
    unless ``missing_ok`` (the benchmark path, where partial caches are
    expected and the fallback count is reported).
    """
    if extractor is None:
        return fallback_claims(summary), True
    try:
        claims = extractor.extract(summary)
    except ClaimCacheMiss:
        if missing_ok:
            return fallback_claims(summary), True
        raise
    if claims:
        return claims, False
    logger.warning("summary '%s': extractor returned no claims; using sentences", summary.id)
    return fallback_claims(summary), True


def attach_clusters(document: Document, backend: CorefBackend) -> Document:
    """Run coref unless the document already carries clusters.

    Singleton clusters are dropped. Backend failure degrades to no clusters
    (sentence-level scoring) rather than aborting the run.
    """
    if document.coref_clusters:
        return document
    try:
        raw = backend.clusters(document)
    except Exception as exc:
        logger.warning(
            "coreference backend failed on document '%s': %s; continuing without clusters",
            document.id,
            exc,
        )
        return document
    clusters = tuple(c for c in raw if len(c.mentions) >= 2)
    return dataclasses.replace(document, coref_clusters=clusters) if clusters else document


# A scoring block gathers summaries until their sentence wave holds this many
# pairs per slot of a backend batch (``nli_batch_size`` slots), so the scorer's
# working set follows the work, not the count of summaries. It is large enough
# that a block's waves fill their batches on short documents, and small
# enough that a block of long documents stays a few summaries. On 5-8
# sentence documents, 96 or 128 changed the latency model's estimate by under
# 0.5% from 112, and each step up raised peak memory by about 0.7 MiB.
BLOCK_PAIRS_PER_SLOT = 112


T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> Iterator[R]:
    """Yield ``fn(item)`` for each item in order, run on ``workers`` threads when above 1.

    At one worker this is ``map``. Above one, at most ``2 * workers`` items
    are taken ahead of the consumer, and errors come as ``map``'s do: an
    exception from ``fn``, or from taking the next item, is raised at its
    place in the stream, after every result before it. Closing the
    generator cancels the items not yet started.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque[Future[R]] = deque()
        source = iter(items)
        try:
            while True:
                try:
                    pending.append(pool.submit(fn, next(source)))
                except StopIteration:
                    break
                except Exception as exc:
                    pending.append(Future())
                    pending[-1].set_exception(exc)
                    break
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def score_corpus(
    pairs: Iterable[tuple[Document, Summary]],
    scorer: Scorer,
    extractor: ClaimExtractor | None,
    coref_backend: CorefBackend,
    mode: str,
    *,
    missing_ok: bool = False,
) -> Iterator[FactualityReport]:
    """Yield one report per (document, summary) pair, stopping the pipeline where ``mode`` does.

    The pairs are resolved as one :func:`ordered_map` stream, in order. In
    ``nli_sent`` the claims are the summary's sentences (duplicates kept: the
    mean runs over sentences), never flagged as the fallback, and nothing is
    extracted, so the stream runs on one thread; other modes resolve claims
    (:func:`resolve_claims`) on the backend's ``workers`` threads.
    The resolved items are cut into blocks by work, with coref clusters
    attached as they join one (:func:`_blocks`), and each block is scored
    one wave per stage over the whole block (:meth:`Scorer.score_blocks`),
    which takes the next block while this one's last wave is in flight.
    Reports do not depend on the blocks or on ``workers``; an error taking
    or resolving a pair comes after the reports of every pair before it.
    """
    if mode not in MODES:
        raise ValueError(f"unknown ablation mode {mode!r}")
    sentences, stop = MODES[mode]

    def resolve(pair: tuple[Document, Summary]) -> Item:
        document, summary = pair
        if sentences:
            claims = [Claim(summary.id, i, s.text) for i, s in enumerate(summary.sentences)]
            return document, claims, False
        return document, *resolve_claims(summary, extractor, missing_ok=missing_ok)

    items = ordered_map(resolve, pairs, 1 if sentences else scorer.backend.workers)
    blocks = _blocks(items, scorer.backend.batch_size * BLOCK_PAIRS_PER_SLOT, coref_backend)
    for reports in scorer.score_blocks(blocks, stop=stop):
        yield from reports


def _blocks(items: Iterator[Item], cap: int, coref_backend: CorefBackend) -> Iterator[list[Item]]:
    """Cut ``items``, in order, into blocks of about ``cap`` sentence-wave pairs.

    A block closes at the first item that brings its sentence-wave pairs
    (document sentences times claims, summed over its items) to ``cap`` or
    more; the last block may hold fewer. An item's document gets its coref
    clusters as the item joins a block (:func:`attach_clusters`), once per
    equal document within the block: equal in id, text, sentence spans and
    clusters, since benchmark records may reuse an id for documents that
    differ in any of them. The block's last document is carried into the
    next, so summaries of one document that straddle a cut run coref once.
    The next item is taken only when the block needs it. If taking it
    raises, the items gathered so far are yielded as a block first, so that
    they are scored and reported before the error.
    """
    block: list[Item] = []
    pairs = 0
    prepared: dict[Document, Document] = {}
    try:
        for document, claims, fallback in items:
            ready = prepared.get(document)
            if ready is None:
                ready = prepared[document] = attach_clusters(document, coref_backend)
            block.append((ready, claims, fallback))
            pairs += len(document.sentences) * len(claims)
            if pairs >= cap:
                yield block
                block, pairs, prepared = [], 0, {document: ready}
    except Exception:
        if block:
            yield block
        raise
    if block:
        yield block
