"""Wiring: build backends from config and drive corpus-level scoring.

This layer owns the policies that span modules: the empty-claims fallback
(summary sentences become the claims, flagged on the report), degradation to
empty clusters when the coreference backend fails, the one table of what
each mode scores and where it stops the scoring pipeline, and the cut of a
corpus into scoring blocks. The CLI calls into here (``build_units`` then
``score_corpus``) and does no scoring itself.
"""

from __future__ import annotations

import dataclasses
import logging
from itertools import islice
from typing import Iterable, Iterator, Sequence, TypeVar

from . import formats
from .benchmark import config_fingerprint
from .claims import (
    ClaimExtractor,
    ExtractorConfig,
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
    PremiseBudget,
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
    "build_units",
    "stream_units",
    "score_corpus",
    "scorer_fingerprint",
]

logger = logging.getLogger("sumfact.pipeline")


def _split_selector(selector: str) -> tuple[str, str]:
    kind, _, rest = selector.partition(":")
    return kind, rest


def make_nli_backend(config: RunConfig) -> EntailmentBackend:
    kind, rest = _split_selector(config.nli_backend)
    try:
        budget = PremiseBudget(config.nli_max_units) if config.nli_max_units else None
    except ValueError as exc:
        raise InputError(f"nli_max_units: {exc}") from exc
    batching = {"batch_size": config.nli_batch_size, "workers": config.workers}
    if kind == "mock":
        return MockEntailmentBackend(budget=budget, **batching)
    if kind == "remote":
        if not rest:
            raise InputError("nli_backend 'remote:' needs a URL")
        return RemoteEntailmentBackend(rest, budget=budget, **batching)
    if kind == "local":
        if not rest:
            raise InputError("nli_backend 'local:' needs a checkpoint name or path")
        return LocalEntailmentBackend(rest, max_units=config.nli_max_units, **batching)
    raise InputError(f"unknown nli_backend {config.nli_backend!r}")


def make_coref_backend(config: RunConfig) -> CorefBackend:
    kind, _ = _split_selector(config.coref_backend)
    if kind == "none":
        return NoopCorefBackend()
    if kind == "heuristic":
        try:
            return HeuristicCorefBackend(max_sentences=config.coref_max_sentences)
        except ValueError as exc:
            raise InputError(f"coref_max_sentences: {exc}") from exc
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
        try:
            settings = ExtractorConfig(
                target=rest,
                model=config.claim_model,
                timeout=config.claim_timeout,
                max_retries=config.claim_max_retries,
                api_key_env=config.claim_api_key_env,
                max_tokens=config.claim_max_tokens,
                max_in_flight=config.claim_max_in_flight,
            )
        except ValueError as exc:
            raise InputError(f"claim extractor settings: {exc}") from exc
        return RemoteLlmExtractor(settings)
    if kind == "local":
        if not rest:
            raise InputError("claim_backend 'local:' needs a model name or path")
        return LocalSeq2SeqExtractor(rest)
    raise InputError(f"unknown claim_backend {config.claim_backend!r}")


def scorer_fingerprint(
    config: RunConfig, backend: EntailmentBackend, extractor: ClaimExtractor | None
) -> str:
    """Digest of everything that can change a record's score.

    A ``cache:`` claim backend enters by the digest of its claims as well as
    its path. Modes that score summary sentences never call the extractor,
    so its settings are left out there.
    """
    parts: dict[str, object] = {
        "nli": backend.describe(),
        "nli_max_units": config.nli_max_units,
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


def build_units(
    pairs: Sequence[tuple[Document, Summary]],
    extractor: ClaimExtractor | None,
    coref_backend: CorefBackend,
    mode: str,
    *,
    missing_ok: bool = False,
    workers: int = 1,
) -> list[Item]:
    """The item ``mode`` scores for every (document, summary) pair.

    Clusters are attached once per distinct document, keyed by id and text
    because benchmark records may reuse an id for different texts. In
    ``nli_sent`` the claims are the summary's sentences (duplicates kept:
    the mean runs over sentences), never flagged as the fallback, and the
    extractor is not called. Other modes resolve claims on ``workers``
    threads, so cache misses surface here, before any scoring cost is paid.
    """
    sentences, _ = _mode(mode)
    prepared: dict[tuple[str, str], Document] = {}
    for document, _ in pairs:
        key = (document.id, document.text)
        if key not in prepared:
            prepared[key] = attach_clusters(document, coref_backend)
    if sentences:
        resolved = (
            ([Claim(summary.id, i, s.text) for i, s in enumerate(summary.sentences)], False)
            for _, summary in pairs
        )
    else:
        resolved = ordered_map(
            lambda pair: resolve_claims(pair[1], extractor, missing_ok=missing_ok), pairs, workers
        )
    return [
        (prepared[(d.id, d.text)], claims, fallback)
        for (d, _), (claims, fallback) in zip(pairs, resolved)
    ]


def stream_units(
    pairs: Iterable[tuple[Document, Summary]],
    extractor: ClaimExtractor | None,
    coref_backend: CorefBackend,
    mode: str,
    *,
    block: int,
    missing_ok: bool = False,
    workers: int = 1,
) -> Iterator[Item]:
    """:func:`build_units` over ``block`` pairs at a time, taken as items are.

    Only a block of pairs is held at once, so coref runs once per distinct
    document within a block, and an extractor failure surfaces when its
    block is reached.
    """
    for chunk in _blocks(pairs, block):
        yield from build_units(
            chunk, extractor, coref_backend, mode, missing_ok=missing_ok, workers=workers
        )


T = TypeVar("T")


def _blocks(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """Consecutive runs of ``size`` items, the last one shorter; taken lazily."""
    items = iter(items)
    return iter(lambda: list(islice(items, size)), [])


def score_corpus(items: Iterable[Item], scorer: Scorer, mode: str) -> Iterator[FactualityReport]:
    """Yield one report per item, stopping the pipeline where ``mode`` does.

    Consecutive items are scored in blocks of ``scorer.backend.batch_size``
    items, each stage one wave of backend pairs over the whole block, so
    batches fill across summaries (:meth:`Scorer.score_blocks`). Items are
    taken a block at a time, the next block while this one's last wave is
    in flight. Reports do not depend on the block size.
    """
    _, stop = _mode(mode)
    for reports in scorer.score_blocks(_blocks(items, scorer.backend.batch_size), stop=stop):
        yield from reports
