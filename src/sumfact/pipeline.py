"""Wiring: build backends from config and drive corpus-level scoring.

This layer owns the policies that span modules: the empty-claims fallback
(summary sentences become the claims, flagged on the report), degradation to
empty clusters when the coreference backend fails, the mapping of each mode
to its hypotheses and its stop in the one scoring pipeline, and the fan-out
of blocks of independent (document, summary) pairs across a thread pool. The
CLI calls into here (``build_units`` then ``score_corpus``) and does no
scoring itself.
"""

from __future__ import annotations

import dataclasses
import logging
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

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
    "make_scorer",
    "fallback_claims",
    "resolve_claims",
    "pair_summaries",
    "attach_clusters",
    "build_units",
    "score_corpus",
    "scorer_fingerprint",
    "RunUnit",
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
    if kind == "mock":
        return MockEntailmentBackend(batch_size=config.nli_batch_size, budget=budget)
    if kind == "remote":
        if not rest:
            raise InputError("nli_backend 'remote:' needs a URL")
        return RemoteEntailmentBackend(
            rest, batch_size=config.nli_batch_size, budget=budget
        )
    if kind == "local":
        if not rest:
            raise InputError("nli_backend 'local:' needs a checkpoint name or path")
        return LocalEntailmentBackend(
            rest, batch_size=config.nli_batch_size, max_units=config.nli_max_units
        )
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


def make_scorer(config: RunConfig, backend: EntailmentBackend | None = None) -> Scorer:
    return Scorer(backend or make_nli_backend(config), scoring_params(config))


def scorer_fingerprint(config: RunConfig, backend: EntailmentBackend) -> str:
    """Digest of everything that can change a record's score."""
    return config_fingerprint(
        {
            "nli": backend.describe(),
            "nli_max_units": config.nli_max_units,
            "claims": config.claim_backend,
            "claim_model": config.claim_model,
            "claim_max_tokens": config.claim_max_tokens,
            "coref": config.coref_backend,
            "coref_max_sentences": config.coref_max_sentences,
            "mode": config.mode,
            **dataclasses.asdict(scoring_params(config)),
        }
    )


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


@dataclass(frozen=True)
class RunUnit:
    """One scorable (document, summary) pair with resolved claims."""

    document: Document
    summary: Summary
    claims: tuple[Claim, ...]
    claims_fallback: bool


# Where each mode stops the pipeline; ``None`` runs it to the end.
_STOPS: dict[str, Stop | None] = {
    "full": None,
    "nli_sent": "sentence",
    "nli_claim": "sentence",
    "nli_coref": "coref",
}


def _hypotheses(unit: RunUnit, mode: str) -> tuple[Document, list[Claim], bool]:
    """The ``(document, claims, claims_fallback)`` item that ``mode`` scores for ``unit``."""
    if mode == "nli_sent":
        claims = [Claim(unit.summary.id, i, s.text) for i, s in enumerate(unit.summary.sentences)]
        return unit.document, claims, False
    return unit.document, list(unit.claims), unit.claims_fallback


def _score_block(units: Sequence[RunUnit], scorer: Scorer, mode: str) -> list[FactualityReport]:
    """Score a block of units in one mode, one report per unit.

    Every mode runs the one gated pipeline. ``nli_claim`` stops it after the
    sentence stage and ``nli_coref`` after the coref stage. ``nli_sent`` is
    ``nli_claim`` with the summary's sentences as hypotheses (duplicates
    kept: the mean runs over sentences), so it never reports the claims
    fallback.
    """
    if mode not in _STOPS:
        raise ValueError(f"unknown ablation mode {mode!r}")
    return scorer.score_summaries([_hypotheses(u, mode) for u in units], stop=_STOPS[mode])


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
    *,
    missing_ok: bool = False,
    workers: int = 1,
) -> list[RunUnit]:
    """Attach clusters and resolve claims for every (document, summary) pair.

    Clusters are attached once per distinct document, keyed by id and text
    because benchmark records may reuse an id for different texts. Claims
    resolve on ``workers`` threads. Cache misses surface here, before any
    scoring cost is paid.
    """
    prepared: dict[tuple[str, str], Document] = {}
    for document, _ in pairs:
        key = (document.id, document.text)
        if key not in prepared:
            prepared[key] = attach_clusters(document, coref_backend)
    resolved = ordered_map(
        lambda pair: resolve_claims(pair[1], extractor, missing_ok=missing_ok), pairs, workers
    )
    return [
        RunUnit(prepared[(d.id, d.text)], summary, tuple(claims), fallback)
        for (d, summary), (claims, fallback) in zip(pairs, resolved)
    ]


def score_corpus(
    units: Iterable[RunUnit], scorer: Scorer, mode: str, workers: int = 1
) -> Iterator[FactualityReport]:
    """Yield one report per unit, in order.

    Consecutive units are scored in blocks of ``scorer.backend.batch_size``
    units, each stage one wave of backend pairs over the whole block, so
    batches fill across summaries. Blocks are independent and run on
    ``workers`` threads, at most ``2 * workers`` blocks ahead of the
    consumer. Reports do not depend on the block size or on ``workers``.
    """
    units = iter(units)
    blocks = iter(lambda: list(islice(units, scorer.backend.batch_size)), [])
    scored = ordered_map(lambda block: _score_block(block, scorer, mode), blocks, workers)
    with closing(scored):
        for reports in scored:
            yield from reports
