"""Wiring: build backends from config and drive corpus-level scoring.

This layer owns the policies that span modules: the empty-claims fallback
(summary sentences become the claims, flagged on the report), degradation to
empty clusters when the coreference backend fails, the mapping of each mode
to its hypotheses and its stop in the one scoring pipeline, and the fan-out
of independent (document, summary) pairs across a thread pool. The CLI calls
into here and does no scoring of its own.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Sequence

from . import formats
from .benchmark import BenchmarkRecord, config_fingerprint
from .claims import (
    ClaimExtractor,
    ExtractorConfig,
    FileCacheExtractor,
    LocalSeq2SeqExtractor,
    RemoteLlmExtractor,
)
from .config import RunConfig, ordered_map, scoring_params
from .coref import CorefBackend, HeuristicCorefBackend, NoopCorefBackend, with_clusters
from .documents import Claim, Document, Summary, build_claims
from .errors import (
    ClaimCacheMiss,
    CorefBackendError,
    EmptyClaims,
    InputError,
)
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
    "evaluate_pair",
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
    budget = PremiseBudget(config.nli_max_units) if config.nli_max_units else None
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
    return Scorer(
        backend or make_nli_backend(config),
        scoring_params(config),
        monotone_gate=config.monotone_gate,
    )


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
            "window_size": config.window_size,
            "gate_threshold": config.gate_threshold,
            "max_coref_variants": config.max_coref_variants,
            "monotone_gate": config.monotone_gate,
        }
    )


def fallback_claims(summary: Summary) -> list[Claim]:
    """Summary sentences as claims, for when extraction yields nothing."""
    return build_claims(summary.id, [s.text for s in summary.sentences])


def resolve_claims(
    summary: Summary, extractor: ClaimExtractor | None, *, missing_ok: bool = False
) -> tuple[list[Claim], bool]:
    """Claims for a summary plus a flag marking the sentence fallback.

    With no extractor configured the fallback is taken directly. A cache
    miss is an input error unless ``missing_ok`` (the benchmark path, where
    partial caches are expected and the fallback count is reported).
    """
    if extractor is None:
        return fallback_claims(summary), True
    try:
        return extractor.extract(summary), False
    except EmptyClaims:
        logger.warning("summary '%s': extractor returned no claims; using sentences", summary.id)
        return fallback_claims(summary), True
    except ClaimCacheMiss:
        if missing_ok:
            return fallback_claims(summary), True
        raise


def attach_clusters(document: Document, backend: CorefBackend) -> Document:
    """Run coref unless the document already carries clusters.

    Backend failure degrades to no clusters (sentence-level scoring) rather
    than aborting the run.
    """
    try:
        return with_clusters(document, backend)
    except CorefBackendError as exc:
        logger.warning("%s; continuing without clusters", exc)
        return document


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


def evaluate_pair(unit: RunUnit, scorer: Scorer, mode: str) -> FactualityReport:
    """Score one unit in one mode.

    Every mode runs the one gated pipeline. ``nli_claim`` stops it after the
    sentence stage and ``nli_coref`` after the coref stage. ``nli_sent`` is
    ``nli_claim`` with the summary's sentences as hypotheses (duplicates
    kept: the mean runs over sentences), so it never reports the claims
    fallback.
    """
    if mode not in _STOPS:
        raise ValueError(f"unknown ablation mode {mode!r}")
    claims, claims_fallback = list(unit.claims), unit.claims_fallback
    if mode == "nli_sent":
        claims = [Claim(unit.summary.id, i, s.text) for i, s in enumerate(unit.summary.sentences)]
        claims_fallback = False
    return scorer.score_summary(
        unit.document, claims, claims_fallback=claims_fallback, stop=_STOPS[mode]
    )


def build_units(
    documents: Sequence[Document],
    summaries: Sequence[Summary],
    extractor: ClaimExtractor | None,
    coref_backend: CorefBackend,
    *,
    missing_ok: bool = False,
) -> list[RunUnit]:
    """Pair every summary with its document and resolve claims up front.

    All input problems (missing document ids, cache misses) surface here,
    before any scoring cost is paid.
    """
    by_id: dict[str, Document] = {}
    for document in documents:
        by_id[document.id] = document
    units = []
    prepared: dict[str, Document] = {}
    for summary in summaries:
        if summary.document_id not in by_id:
            raise InputError(
                f"summary '{summary.id}' references unknown document '{summary.document_id}'"
            )
        if summary.document_id not in prepared:
            prepared[summary.document_id] = attach_clusters(
                by_id[summary.document_id], coref_backend
            )
        claims, used_fallback = resolve_claims(summary, extractor, missing_ok=missing_ok)
        units.append(
            RunUnit(prepared[summary.document_id], summary, tuple(claims), used_fallback)
        )
    return units


def score_corpus(
    units: Sequence[RunUnit], scorer: Scorer, mode: str, workers: int = 1
) -> list[FactualityReport]:
    """Score units in order; pairs are independent, so fan out is safe."""
    return ordered_map(lambda unit: evaluate_pair(unit, scorer, mode), units, workers)


def record_scorer(
    scorer: Scorer,
    extractor: ClaimExtractor | None,
    mode: str,
    coref_backend: CorefBackend | None = None,
):
    """Benchmark adapter: BenchmarkRecord -> summary score.

    Claims resolve lazily per record with the benchmark's tolerant cache
    policy; fallback counts are readable from the returned closure's
    ``stats`` attribute. Cluster attachment is cached per document id since
    many records share one source document.
    """
    backend = coref_backend or NoopCorefBackend()
    stats = {"claims_fallback": 0}
    lock = threading.Lock()
    prepared: dict[tuple[str, str], Document] = {}

    def score(record: BenchmarkRecord) -> float:
        key = (record.document.id, record.document.text)
        document = prepared.get(key)
        if document is None:
            document = attach_clusters(record.document, backend)
            prepared[key] = document
        claims, used_fallback = resolve_claims(record.summary, extractor, missing_ok=True)
        unit = RunUnit(document, record.summary, tuple(claims), used_fallback)
        report = evaluate_pair(unit, scorer, mode)
        if report.claims_fallback:
            with lock:
                stats["claims_fallback"] += 1
        return report.score

    score.stats = stats  # type: ignore[attr-defined]
    return score
