"""Wiring: build backends from config and drive corpus-level scoring.

This layer owns the policies that span modules: the empty-claims fallback
(summary sentences become the claims, flagged on the report), degradation to
empty clusters when the coreference backend fails, the one table of what
each mode scores and where it stops the scoring pipeline, and the cut of a
corpus into scoring blocks by work. :func:`score_corpus` is the one path
from (document, summary) pairs to reports: it resolves the pairs as one
stream and cuts it into blocks as the scorer needs them. The CLI calls it
and does no scoring itself.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Iterable, Iterator, Sequence

from . import formats
from .benchmark import config_fingerprint
from .claims import (
    ClaimExtractor,
    FileCacheExtractor,
    LocalSeq2SeqExtractor,
    RemoteLlmExtractor,
)
from .config import RunConfig, ordered_map, scoring_params
from .coref import CorefBackend, HeuristicCorefBackend, NoopCorefBackend
from .documents import Claim, Document, Summary, build_claims
from .errors import ClaimCacheMiss, InputError
from .nli import (
    EntailmentBackend,
    LocalEntailmentBackend,
    MockEntailmentBackend,
    RemoteEntailmentBackend,
)
from .scoring import FactualityReport, Scorer, Stop

__all__ = [
    "make_nli_backend",
    "make_coref_backend",
    "make_claim_extractor",
    "fallback_claims",
    "resolve_claims",
    "pair_summaries",
    "attach_clusters",
    "score_corpus",
    "scorer_fingerprint",
]

logger = logging.getLogger("sumfact.pipeline")


def _split_selector(selector: str) -> tuple[str, str]:
    kind, _, rest = selector.partition(":")
    return kind, rest


def make_nli_backend(config: RunConfig) -> EntailmentBackend:
    kind, rest = _split_selector(config.nli_backend)
    shared = {
        "batch_size": config.nli_batch_size,
        "max_units": config.nli_max_units or None,  # 0, like None, means unlimited
        "workers": config.workers,
    }
    if kind == "mock":
        return MockEntailmentBackend(**shared)
    if kind == "remote":
        if not rest:
            raise InputError("nli_backend 'remote:' needs a URL")
        return RemoteEntailmentBackend(rest, **shared)
    if kind == "local":
        if not rest:
            raise InputError("nli_backend 'local:' needs a checkpoint name or path")
        return LocalEntailmentBackend(rest, **shared)
    raise InputError(f"unknown nli_backend {config.nli_backend!r}")


def make_coref_backend(config: RunConfig) -> CorefBackend:
    kind, _ = _split_selector(config.coref_backend)
    if kind == "none":
        return NoopCorefBackend()
    if kind == "heuristic":
        return HeuristicCorefBackend(max_sentences=config.coref_max_sentences)
    raise InputError(f"unknown coref_backend {config.coref_backend!r}")


def make_claim_extractor(config: RunConfig) -> ClaimExtractor | None:
    kind, rest = _split_selector(config.claim_backend)
    if kind == "none":
        return None
    if kind == "cache":
        if not rest:
            raise InputError("claim_backend 'cache:' needs a file path")
        return FileCacheExtractor(formats.load_claim_cache(rest), source=rest)
    if kind == "remote":
        if not rest:
            raise InputError("claim_backend 'remote:' needs a URL")
        return RemoteLlmExtractor(
            rest,
            model=config.claim_model,
            timeout=config.claim_timeout,
            max_retries=config.claim_max_retries,
            api_key_env=config.claim_api_key_env,
            max_tokens=config.claim_max_tokens,
        )
    if kind == "local":
        if not rest:
            raise InputError("claim_backend 'local:' needs a model name or path")
        return LocalSeq2SeqExtractor(rest)
    raise InputError(f"unknown claim_backend {config.claim_backend!r}")


def scorer_fingerprint(
    config: RunConfig, backend: EntailmentBackend, extractor: ClaimExtractor | None
) -> str:
    """Digest of everything that can change a record's score.

    The premise budget enters as the backend uses it, so a ``local:``
    budget taken from the tokenizer's declared length is keyed too. A
    ``cache:`` claim backend enters by the digest of its claims as well as
    its path. Modes that score summary sentences never call the extractor,
    so its settings are left out there.
    """
    parts: dict[str, object] = {
        "nli": backend.describe(),
        "nli_max_units": backend.max_units,
        "coref": config.coref_backend,
        "coref_max_sentences": config.coref_max_sentences,
        "mode": config.mode,
        **dataclasses.asdict(scoring_params(config)),
    }
    sentences, _ = _mode(config.mode)
    if not sentences:
        parts["claims"] = config.claim_backend
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


# For each mode: whether it scores the summary's sentences verbatim instead
# of its resolved claims, and where it stops the one scoring pipeline
# (``None`` runs it to the end).
_MODES: dict[str, tuple[bool, Stop | None]] = {
    "full": (False, None),
    "nli_sent": (True, "sentence"),
    "nli_claim": (False, "sentence"),
    "nli_coref": (False, "coref"),
}

# What the scorer scores for one summary: ``(document, claims, claims_fallback)``.
Item = tuple[Document, list[Claim], bool]

# A scoring block gathers summaries until their sentence wave holds this many
# pairs per slot of a backend batch (``nli_batch_size`` slots), so the scorer's
# working set follows the work, not the count of summaries. It is large enough
# that a block's waves fill their batches on short documents, and small
# enough that a block of long documents stays a few summaries. On 5-8
# sentence documents, 96 or 128 changed the latency model's estimate by under
# 0.5% from 112, and each step up raised peak memory by about 0.7 MiB.
BLOCK_PAIRS_PER_SLOT = 112


def _mode(mode: str) -> tuple[bool, Stop | None]:
    if mode not in _MODES:
        raise ValueError(f"unknown ablation mode {mode!r}")
    return _MODES[mode]


def pair_summaries(
    documents: Sequence[Document], summaries: Sequence[Summary]
) -> list[tuple[Document, Summary]]:
    """Join every summary to its document by id."""
    by_id = {document.id: document for document in documents}
    for summary in summaries:
        if summary.document_id not in by_id:
            raise InputError(
                f"summary '{summary.id}' references unknown document '{summary.document_id}'"
            )
    return [(by_id[s.document_id], s) for s in summaries]


def score_corpus(
    pairs: Iterable[tuple[Document, Summary]],
    scorer: Scorer,
    extractor: ClaimExtractor | None,
    coref_backend: CorefBackend,
    mode: str,
    *,
    missing_ok: bool = False,
    workers: int = 1,
) -> Iterator[FactualityReport]:
    """Yield one report per (document, summary) pair, stopping the pipeline where ``mode`` does.

    The pairs are resolved as one stream, in order. In ``nli_sent`` the
    claims are the summary's sentences (duplicates kept: the mean runs over
    sentences), never flagged as the fallback, and the extractor is not
    called; other modes resolve claims on ``workers`` threads, at most
    ``2 * workers`` pairs ahead of the stream (:func:`~sumfact.config.ordered_map`).
    The resolved items are cut into blocks by work, with coref clusters
    attached as they join one (:func:`_blocks`), and each block is scored
    one wave per stage over the whole block (:meth:`Scorer.score_blocks`),
    which takes the next block while this one's last wave is in flight.
    Reports do not depend on the blocks; an error resolving a pair comes
    after the reports of every pair before it.
    """
    sentences, stop = _mode(mode)
    if sentences:
        items: Iterator[Item] = (
            (doc, [Claim(summary.id, i, s.text) for i, s in enumerate(summary.sentences)], False)
            for doc, summary in pairs
        )
    else:
        items = ordered_map(
            lambda pair: (pair[0], *resolve_claims(pair[1], extractor, missing_ok=missing_ok)),
            pairs,
            workers,
        )
    blocks = _blocks(items, scorer.backend.batch_size * BLOCK_PAIRS_PER_SLOT, coref_backend)
    for reports in scorer.score_blocks(blocks, stop=stop):
        yield from reports


def _blocks(items: Iterator[Item], cap: int, coref_backend: CorefBackend) -> Iterator[list[Item]]:
    """Cut ``items``, in order, into blocks of about ``cap`` sentence-wave pairs.

    A block closes at the first item that brings its sentence-wave pairs
    (document sentences times claims, summed over its items) to ``cap`` or
    more; the last block may hold fewer. An item's document gets its coref
    clusters as the item joins a block (:func:`attach_clusters`), once per
    distinct document within the block, keyed by id and text because
    benchmark records may reuse an id for different texts; the block's
    last document is carried into the next, so summaries of one document
    that straddle a cut run coref once. The next item is taken only when
    the block needs it. If taking it raises, the items gathered so far are
    yielded as a block first, so that they are scored and reported before
    the error.
    """
    block: list[Item] = []
    pairs = 0
    prepared: dict[tuple[str, str], Document] = {}
    try:
        for document, claims, fallback in items:
            key = (document.id, document.text)
            if key not in prepared:
                prepared[key] = attach_clusters(document, coref_backend)
            block.append((prepared[key], claims, fallback))
            pairs += len(document.sentences) * len(claims)
            if pairs >= cap:
                yield block
                block, pairs, prepared = [], 0, {key: prepared[key]}
    except Exception:
        if block:
            yield block
        raise
    if block:
        yield block
