"""Wiring layer: backend factories, claim fallback policy, corpus scoring."""

import dataclasses
import functools
import logging
import random
import sys
import threading
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumfact import (
    Claim,
    ClaimCacheMiss,
    FileCacheExtractor,
    HeuristicCorefBackend,
    InputError,
    LocalEntailmentBackend,
    LocalSeq2SeqExtractor,
    MockEntailmentBackend,
    NoopCorefBackend,
    RemoteEntailmentBackend,
    RemoteLlmExtractor,
    RunConfig,
    Scorer,
    ScoringParams,
)
from sumfact import formats, pipeline
from sumfact.config import _SELECTORS, MODES
from sumfact.formats import render_report
from sumfact.pipeline import (
    attach_clusters,
    fallback_claims,
    make_claim_extractor,
    make_coref_backend,
    make_nli_backend,
    resolve_claims,
    score_corpus,
    scorer_fingerprint,
    scoring_params,
)

from cases import (
    VOCAB,
    RecordingBackend,
    check_cut,
    doc_from_sentences,
    random_news_corpus,
    score_block,
    summary_from_sentences,
)


class CountingCoref:
    def __init__(self, result=()):
        self.calls = 0
        self.result = list(result)

    def clusters(self, document):
        self.calls += 1
        return list(self.result)

    def describe(self):
        return "counting"


class BoomCoref:
    def clusters(self, document):
        raise RuntimeError("resolver crashed")

    def describe(self):
        return "boom"


FACTORIES = {
    "nli_backend": make_nli_backend,
    "coref_backend": make_coref_backend,
    "claim_backend": make_claim_extractor,
}


@pytest.mark.parametrize("field, factory", list(FACTORIES.items()))
def test_factories_reject_unknown_kinds(field, factory):
    # A RunConfig is valid by construction, so an unknown kind never reaches a factory.
    with pytest.raises(InputError, match="backend selector 'quantum:x': kind must be one of"):
        factory(RunConfig(**{field: "quantum:x"}))


@pytest.mark.parametrize(
    "key, kind", [(key, kind) for key, kinds in _SELECTORS.items() for kind in kinds]
)
def test_every_selector_kind_builds_through_its_factory(monkeypatch, tmp_path, key, kind):
    # The selector table and the factories must not drift apart: each kind
    # the config accepts builds, and its backend describes itself by it.
    monkeypatch.setattr(
        "sumfact.pipeline.LocalEntailmentBackend",
        functools.partial(
            LocalEntailmentBackend,
            model=object(),
            tokenizer=object(),
            label_map={"entailment": 0, "neutral": 1, "contradiction": 2},
        ),
    )
    values = {"cache": str(tmp_path / "claims.json"), "remote": "http://x.local/v1", "local": "m"}
    (tmp_path / "claims.json").write_text('{"s1": ["A claim."]}', encoding="utf-8")
    selector = f"{kind}:{values[kind]}" if _SELECTORS[key][kind] else kind
    built = FACTORIES[key](RunConfig(**{key: selector}))
    assert (built.describe() if built else "none").startswith(kind)


class TestNliFactory:
    def test_mock_default(self):
        backend = make_nli_backend(RunConfig())
        assert isinstance(backend, MockEntailmentBackend)
        assert backend.batch_size == 32
        assert backend.max_units is None

    def test_batch_and_budget_passthrough(self):
        # Every kind takes the batch size and the budget the same way; null
        # and 0 both mean no budget, so they share one fingerprint.
        for selector in ("mock", "remote:http://nli.local/v1"):
            digests = []
            for units, expected in ((None, None), (0, None), (64, 64)):
                config = RunConfig(nli_backend=selector, nli_batch_size=4, nli_max_units=units)
                backend = make_nli_backend(config)
                assert backend.batch_size == 4
                assert backend.max_units == expected
                digests.append(scorer_fingerprint(config, backend, None))
            assert digests[0] == digests[1] != digests[2]

    def test_remote(self):
        backend = make_nli_backend(RunConfig(nli_backend="remote:http://nli.local/v1"))
        assert isinstance(backend, RemoteEntailmentBackend)
        assert backend.url == "http://nli.local/v1"
        assert backend.describe() == "remote:http://nli.local/v1"

    def test_remote_needs_url(self):
        with pytest.raises(InputError, match="needs a URL"):
            make_nli_backend(RunConfig(nli_backend="remote:"))

    def test_local_needs_checkpoint(self):
        with pytest.raises(InputError, match="checkpoint"):
            make_nli_backend(RunConfig(nli_backend="local:"))

    @pytest.mark.parametrize("units", [None, 0])
    def test_unlimited_budget_leaves_local_its_tokenizer_limit(self, monkeypatch, units):
        seen = {}
        monkeypatch.setattr(
            "sumfact.pipeline.LocalEntailmentBackend", lambda checkpoint, **kw: seen.update(kw)
        )
        make_nli_backend(RunConfig(nli_backend="local:ckpt", nli_max_units=units))
        assert seen["max_units"] is None


class TestCorefFactory:
    def test_none(self):
        assert isinstance(make_coref_backend(RunConfig()), NoopCorefBackend)

    def test_heuristic_with_cap(self):
        config = RunConfig(coref_backend="heuristic", coref_max_sentences=2)
        backend = make_coref_backend(config)
        assert isinstance(backend, HeuristicCorefBackend)
        assert backend.max_sentences == 2
        assert backend.describe() == "heuristic:max_sentences=2"


class TestClaimFactory:
    def test_none(self):
        assert make_claim_extractor(RunConfig()) is None

    def test_cache(self, tmp_path):
        path = tmp_path / "claims.json"
        path.write_text('{"s1": ["A claim."]}')
        extractor = make_claim_extractor(RunConfig(claim_backend=f"cache:{path}"))
        assert isinstance(extractor, FileCacheExtractor)
        assert extractor.describe() == f"cache:{path}"

    def test_cache_needs_path(self):
        with pytest.raises(InputError, match="needs a file path"):
            make_claim_extractor(RunConfig(claim_backend="cache:"))

    def test_remote_maps_config(self):
        config = RunConfig(
            claim_backend="remote:http://llm.local/chat",
            claim_model="m2",
            claim_timeout=12.0,
            claim_max_retries=4,
            claim_api_key_env="OTHER_KEY",
            claim_max_tokens=256,
        )
        extractor = make_claim_extractor(config)
        assert isinstance(extractor, RemoteLlmExtractor)
        assert extractor.service.url == "http://llm.local/chat"
        assert extractor.model == "m2"
        assert extractor.service.timeout == 12.0
        assert extractor.service.retries == 4
        assert extractor.api_key_env == "OTHER_KEY"
        assert extractor.max_tokens == 256

    def test_remote_needs_url(self):
        with pytest.raises(InputError, match="needs a URL"):
            make_claim_extractor(RunConfig(claim_backend="remote:"))

    @pytest.mark.parametrize("max_tokens", [0, -1])
    def test_remote_rejects_max_tokens_below_one(self, max_tokens):
        # Checked with every other key, before any backend is built.
        with pytest.raises(InputError, match="max_tokens must be >= 1"):
            RunConfig(claim_backend="remote:http://llm.local/chat", claim_max_tokens=max_tokens)

    def test_local(self):
        extractor = make_claim_extractor(RunConfig(claim_backend="local:flan-x"))
        assert isinstance(extractor, LocalSeq2SeqExtractor)
        assert extractor.model_id == "flan-x"


class TestScorerFactory:
    def test_params_mapping(self):
        config = RunConfig(window_size=3, gate_threshold=0.4, max_coref_variants=7)
        params = scoring_params(config)
        assert (params.window_size, params.gate_threshold, params.max_coref_variants) == (
            3,
            0.4,
            7,
        )

    def test_monotone_gate_passthrough(self):
        assert scoring_params(RunConfig()).monotone_gate is False
        assert scoring_params(RunConfig(monotone_gate=True)).monotone_gate is True


class TestScorerFingerprint:
    @pytest.fixture(autouse=True)
    def claim_file(self, tmp_path, monkeypatch):
        # ``cache:claims.json`` below names this file, so it must exist.
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "claims.json"
        path.write_text('{"s1": ["A claim."]}', encoding="utf-8")
        return path

    @staticmethod
    def digest(config):
        return scorer_fingerprint(config, make_nli_backend(config), make_claim_extractor(config))

    def test_stable_for_same_inputs(self):
        a = self.digest(RunConfig())
        b = self.digest(RunConfig())
        assert a == b and len(a) == 16

    @pytest.mark.parametrize(
        "change",
        [
            {"window_size": 3},
            {"gate_threshold": 0.3},
            {"max_coref_variants": 5},
            {"monotone_gate": True},
            {"mode": "nli_claim"},
            {"coref_backend": "heuristic"},
            {"claim_backend": "cache:claims.json"},
        ],
    )
    def test_sensitive_to_scoring_inputs(self, change):
        assert self.digest(RunConfig(**change)) != self.digest(RunConfig())

    def test_sensitive_to_nli_backend(self):
        config = RunConfig()
        mock = scorer_fingerprint(config, MockEntailmentBackend(), None)
        remote = scorer_fingerprint(config, RemoteEntailmentBackend("http://x"), None)
        assert mock != remote

    def test_insensitive_to_presentation_knobs(self):
        base = self.digest(RunConfig())
        assert self.digest(RunConfig(log_level="debug", workers=8)) == base

    def test_claim_file_enters_by_content(self, claim_file):
        config = RunConfig(claim_backend="cache:claims.json")
        before = self.digest(config)
        claim_file.write_text('{\n  "s1": ["A claim."]\n}\n', encoding="utf-8")
        assert self.digest(config) == before
        claim_file.write_text('{"s1": ["Another claim."]}', encoding="utf-8")
        assert self.digest(config) != before

    # Every RunConfig field, with a different valid value. Flipping one must
    # change the fingerprint, so a score cache never serves a stale score.
    FLIPS = {
        "nli_backend": "remote:http://127.0.0.1:9",
        "nli_max_units": 200,
        "claim_backend": "cache:claims.json",
        "claim_model": "other-model",
        "claim_max_tokens": 64,
        "coref_backend": "heuristic",
        "coref_max_sentences": 3,
        "window_size": 2,
        "gate_threshold": 0.5,
        "max_coref_variants": 3,
        "monotone_gate": True,
        "mode": "nli_coref",
    }
    # Fields left out of the fingerprint, each with the reason it cannot
    # change a record's score.
    ALLOWED = {
        "workers": ("results do not depend on the worker count", 4),
        "log_level": ("logging only", "debug"),
        "cache_dir": ("where the cache lives, not what it holds", "elsewhere"),
        "protocol": ("tuning reads scores, it does not make them", "single_threshold"),
        "bootstrap_seed": ("spread estimate only", 7),
        "bootstrap_resamples": ("spread estimate only", 10),
        "nli_batch_size": ("scores are batch-invariant", 4),
        "claim_api_key_env": ("claim transport only", "OTHER_KEY"),
        "claim_timeout": ("claim transport only", 5.0),
        "claim_max_retries": ("claim transport only", 0),
    }
    # Fingerprinted fields that nli_sent leaves out: it scores the summary
    # sentences and never calls the claim extractor.
    SENTENCE_MODE_BLIND = {"claim_backend", "claim_model", "claim_max_tokens"}

    def test_digests_are_pinned(self):
        # A changed digest silently recomputes every existing score cache.
        assert self.digest(RunConfig()) == "0073503b7d48b29c"
        assert self.digest(RunConfig(monotone_gate=True, window_size=3)) == "6e866c9032cce726"
        assert self.digest(RunConfig(mode="nli_claim", claim_model="m")) == "ded0310a05885e95"
        config = RunConfig(
            mode="nli_coref", claim_backend="remote:http://127.0.0.1:9", claim_max_tokens=64
        )
        assert self.digest(config) == "0981e90dc7aa9073"

    @pytest.mark.parametrize("units", [None, 0])
    def test_both_unlimited_budgets_share_a_digest(self, units):
        # 0 and null both mean no budget, so they name one cache file.
        assert self.digest(RunConfig(nli_max_units=units)) == "0073503b7d48b29c"

    def test_every_field_is_fingerprinted_or_allow_listed(self):
        names = {f.name for f in dataclasses.fields(RunConfig)}
        assert names == set(self.FLIPS) | set(self.ALLOWED)
        base = self.digest(RunConfig())
        for name, value in self.FLIPS.items():
            assert self.digest(replace(RunConfig(), **{name: value})) != base, name
        for name, (_, value) in self.ALLOWED.items():
            assert self.digest(replace(RunConfig(), **{name: value})) == base, name
        sentences = RunConfig(mode="nli_sent")
        base = self.digest(sentences)
        for name, value in self.FLIPS.items():
            if name == "mode":
                continue
            same = self.digest(replace(sentences, **{name: value})) == base
            assert same == (name in self.SENTENCE_MODE_BLIND), name


class TestClaimResolution:
    def summary(self):
        return summary_from_sentences("s1", "d1", ["First point.", "Second point."])

    def test_fallback_uses_sentences(self):
        claims = fallback_claims(self.summary())
        assert claims == [Claim("s1", 0, "First point."), Claim("s1", 1, "Second point.")]

    def test_fallback_dedupes_repeated_sentences(self):
        summary = summary_from_sentences("s1", "d1", ["Same line.", "Same line."])
        assert fallback_claims(summary) == [Claim("s1", 0, "Same line.")]

    def test_no_extractor_takes_fallback(self):
        claims, used_fallback = resolve_claims(self.summary(), None)
        assert used_fallback is True
        assert [c.text for c in claims] == ["First point.", "Second point."]

    def test_cache_hit(self):
        extractor = FileCacheExtractor({"s1": ["A cached claim."]})
        claims, used_fallback = resolve_claims(self.summary(), extractor)
        assert used_fallback is False
        assert claims == [Claim("s1", 0, "A cached claim.")]

    @pytest.mark.parametrize(
        "extractor",
        [
            FileCacheExtractor({"s1": []}),
            FileCacheExtractor({"s1": ["  "]}),
            LocalSeq2SeqExtractor("m", generate=lambda _: '{"claims": []}'),
        ],
        ids=["cache-empty", "cache-blank", "seq2seq-empty"],
    )
    def test_empty_extraction_falls_back_with_warning(self, extractor, caplog):
        with caplog.at_level(logging.WARNING, logger="sumfact.pipeline"):
            claims, used_fallback = resolve_claims(self.summary(), extractor)
        assert used_fallback is True
        assert [c.text for c in claims] == ["First point.", "Second point."]
        assert any("no claims" in r.getMessage() for r in caplog.records)

    def test_cache_miss_raises_by_default(self):
        extractor = FileCacheExtractor({"other": ["x"]})
        with pytest.raises(ClaimCacheMiss, match="'s1'"):
            resolve_claims(self.summary(), extractor)

    def test_cache_miss_tolerated_when_asked(self):
        extractor = FileCacheExtractor({"other": ["x"]})
        claims, used_fallback = resolve_claims(self.summary(), extractor, missing_ok=True)
        assert used_fallback is True
        assert len(claims) == 2


class TestAttachClusters:
    def test_existing_clusters_win(self):
        doc = doc_from_sentences(
            "d", ["Mary spoke.", "Mary left."], [[(0, 0, 4), (1, 0, 4)]]
        )
        backend = CountingCoref()
        assert attach_clusters(doc, backend) is doc
        assert backend.calls == 0

    def test_empty_result_returns_same_document(self):
        doc = doc_from_sentences("d", ["Mary spoke."])
        assert attach_clusters(doc, NoopCorefBackend()) is doc

    def test_heuristic_attaches(self):
        doc = doc_from_sentences("d", ["Mary spoke.", "She left."])
        enriched = attach_clusters(doc, HeuristicCorefBackend())
        assert len(enriched.coref_clusters) == 1
        assert doc.coref_clusters == ()  # original untouched

    def test_backend_failure_degrades(self, caplog):
        doc = doc_from_sentences("d", ["Mary spoke."])
        with caplog.at_level(logging.WARNING, logger="sumfact.pipeline"):
            result = attach_clusters(doc, BoomCoref())
        assert result is doc
        assert any("continuing without clusters" in r.getMessage() for r in caplog.records)

    def test_failure_warning_names_document(self, caplog):
        with caplog.at_level(logging.WARNING, logger="sumfact.pipeline"):
            attach_clusters(doc_from_sentences("d", ["Bob ran."]), BoomCoref())
        assert [r.getMessage() for r in caplog.records] == [
            "coreference backend failed on document 'd': resolver crashed; "
            "continuing without clusters"
        ]

    def test_singletons_filtered(self):
        doc = doc_from_sentences("d", ["Bob ran.", "Bob hid."])
        (pair,) = HeuristicCorefBackend().clusters(doc)
        singleton = SimpleNamespace(mentions=pair.mentions[:1])
        assert attach_clusters(doc, CountingCoref([singleton])) is doc
        assert attach_clusters(doc, CountingCoref([singleton, pair])).coref_clusters == (pair,)


def resolved(pairs, extractor, coref_backend, mode, workers=1, **kwargs):
    """The items ``score_corpus`` hands the scorer for ``pairs``, block after
    block, and the reports it yields, with a backend of ``workers``."""
    scorer = BlockRecorder(MockEntailmentBackend(workers=workers))
    reports = list(score_corpus(pairs, scorer, extractor, coref_backend, mode, **kwargs))
    return [item for block in scorer.blocks for item in block], reports


def join_by_id(documents, summaries):
    """Each summary with its document, joined by id."""
    by_id = {document.id: document for document in documents}
    return [(by_id[summary.document_id], summary) for summary in summaries]


class TestBuildUnits:
    """How ``score_corpus`` resolves (document, summary) pairs into the
    scorer's ``(document, claims, claims_fallback)`` items."""

    def corpus(self):
        docs = [
            doc_from_sentences("d1", ["alpha beta.", "gamma delta."]),
            doc_from_sentences("d2", ["epsilon zeta."]),
        ]
        summaries = [
            summary_from_sentences("s1", "d1", ["alpha beta."]),
            summary_from_sentences("s2", "d2", ["epsilon zeta."]),
        ]
        return docs, summaries

    def test_happy_path(self):
        docs, summaries = self.corpus()
        extractor = FileCacheExtractor({"s1": ["Alpha claim."], "s2": ["Zeta claim."]})
        items, _ = resolved(join_by_id(docs, summaries), extractor, NoopCorefBackend(), "full")
        assert items == [
            (docs[0], [Claim("s1", 0, "Alpha claim.")], False),
            (docs[1], [Claim("s2", 0, "Zeta claim.")], False),
        ]

    def test_unknown_document_id(self, tmp_path):
        # The corpus reader checks every summary's document before it reads
        # any line again.
        docs, sums = tmp_path / "docs.jsonl", tmp_path / "sums.jsonl"
        docs.write_text('{"id": "d1", "text": "alpha beta."}\n')
        sums.write_text(
            '{"id": "s1", "document_id": "d1", "text": "alpha."}\n'
            '{"id": "s9", "document_id": "missing-doc", "text": "alpha."}\n'
        )
        doc_rows, sum_rows = formats.index_documents(str(docs)), formats.index_summaries(str(sums))
        with pytest.raises(
            InputError, match="summary 's9' references unknown document 'missing-doc'"
        ):
            formats.read_corpus(str(docs), doc_rows, str(sums), sum_rows)

    def test_document_prepared_once(self):
        doc = doc_from_sentences("d1", ["alpha beta."])
        summaries = [
            summary_from_sentences("s1", "d1", ["alpha."]),
            summary_from_sentences("s2", "d1", ["beta."]),
        ]
        backend = CountingCoref()
        items, _ = resolved(join_by_id([doc], summaries), None, backend, "full")
        assert backend.calls == 1
        assert items[0][0] is items[1][0]

    def test_document_straddling_a_block_cut_is_prepared_once(self, monkeypatch):
        # Each summary of d1 is 4 x 3 = 12 sentence-wave pairs, and blocks
        # close at 2 x 15 = 30 of them: d1's four summaries are cut after the
        # third, and the fourth opens the next block with d2's summary.
        # Coref runs once per document all the same.
        monkeypatch.setattr("sumfact.pipeline.BLOCK_PAIRS_PER_SLOT", 15)
        d1 = doc_from_sentences("d1", ["alpha beta.", "gamma delta.", "eps zeta.", "eta theta."])
        d2 = doc_from_sentences("d2", ["iota kappa."])
        pairs = [(d1, summary_from_sentences(f"s{i}", "d1", ["a.", "b.", "c."])) for i in range(4)]
        pairs.append((d2, summary_from_sentences("t", "d2", ["iota."])))
        scorer = BlockRecorder(MockEntailmentBackend(batch_size=2))
        backend = CountingCoref()
        assert len(list(score_corpus(pairs, scorer, None, backend, "full"))) == 5
        assert [len(block) for block in scorer.blocks] == [3, 2]
        assert backend.calls == 2

    def test_missing_ok_passthrough(self):
        docs, summaries = self.corpus()
        pairs = join_by_id(docs, summaries)
        extractor = FileCacheExtractor({"s1": ["Alpha claim."]})
        with pytest.raises(ClaimCacheMiss):
            resolved(pairs, extractor, NoopCorefBackend(), "full")
        items, _ = resolved(pairs, extractor, NoopCorefBackend(), "full", missing_ok=True)
        assert items[1] == (docs[1], fallback_claims(summaries[1]), True)

    def test_shared_document_id_with_different_texts(self):
        # Benchmark records may reuse a document id for different texts:
        # each summary is scored against its own text, and coref runs once
        # per distinct (id, text).
        first = doc_from_sentences("shared", ["alpha beta.", "gamma delta."])
        second = doc_from_sentences("shared", ["epsilon zeta."])
        pairs = [
            (first, summary_from_sentences("s1", "shared", ["alpha beta."])),
            (second, summary_from_sentences("s2", "shared", ["alpha beta."])),
            (first, summary_from_sentences("s3", "shared", ["alpha beta."])),
        ]
        backend = CountingCoref()
        items, reports = resolved(pairs, None, backend, "full")
        assert backend.calls == 2
        assert [document.text for document, _, _ in items] == [first.text, second.text, first.text]
        for (document, summary), report in zip(pairs, reports):
            (direct,) = score_block(
                Scorer(MockEntailmentBackend()), [(document, fallback_claims(summary), True)]
            )
            assert report == direct
        assert reports[0].score != reports[1].score

    def test_claims_resolve_concurrently(self):
        # Each extraction waits for the other: only two concurrent workers
        # get past the barrier.
        barrier = threading.Barrier(2, timeout=5)

        class BarrierExtractor:
            def extract(self, summary):
                barrier.wait()
                return [Claim(summary.id, 0, f"{summary.id} claim.")]

            def describe(self):
                return "barrier"

        docs, summaries = self.corpus()
        pairs = join_by_id(docs, summaries)
        items, _ = resolved(pairs, BarrierExtractor(), NoopCorefBackend(), "full", workers=2)
        assert [claims for _, claims, _ in items] == [
            [Claim("s1", 0, "s1 claim.")],
            [Claim("s2", 0, "s2 claim.")],
        ]


class TestEvaluatePair:
    """One pair resolved and scored in one mode by ``score_corpus``."""

    DOC = doc_from_sentences("d1", ["alpha beta.", "gamma delta."])
    SUMMARY = summary_from_sentences("s1", "d1", ["alpha beta."])

    def report(self, fallback, mode):
        # No extractor takes the sentence fallback; a cache hit does not.
        extractor = None if fallback else FileCacheExtractor({"s1": ["alpha beta."]})
        (report,) = score_corpus(
            [(self.DOC, self.SUMMARY)], Scorer(MockEntailmentBackend()), extractor,
            NoopCorefBackend(), mode,
        )
        return report

    def test_full_mode_keeps_flag(self):
        assert self.report(False, "full").claims_fallback is False
        assert self.report(True, "full").claims_fallback is True

    def test_ablation_marks_fallback(self):
        assert self.report(True, "nli_claim").claims_fallback is True

    def test_nli_sent_ignores_fallback(self):
        assert self.report(True, "nli_sent").claims_fallback is False

    def test_full_matches_direct_scoring(self):
        (direct,) = score_block(
            Scorer(MockEntailmentBackend()), [(self.DOC, [Claim("s1", 0, "alpha beta.")], False)]
        )
        assert self.report(False, "full") == direct

    def test_nli_sent_never_calls_the_extractor(self):
        class CountingExtractor:
            calls = 0

            def extract(self, summary):
                self.calls += 1
                return []

            def describe(self):
                return "counting"

        extractor = CountingExtractor()
        summary = summary_from_sentences("s1", "d1", ["Alpha beta.", "Alpha beta."])
        pairs = [(self.DOC, summary)] * 3
        items, _ = resolved(pairs, extractor, NoopCorefBackend(), "nli_sent", workers=2)
        assert extractor.calls == 0
        # The sentences verbatim, duplicates kept, never flagged as the fallback.
        sentences = [Claim("s1", 0, "Alpha beta."), Claim("s1", 1, "Alpha beta.")]
        assert items == [(self.DOC, sentences, False)] * 3
        resolved(pairs, extractor, NoopCorefBackend(), "nli_claim")
        assert extractor.calls == 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation mode 'bogus'"):
            resolved([(self.DOC, self.SUMMARY)], None, NoopCorefBackend(), "bogus")


def sentence_pairs(docs, texts):
    """A one-sentence summary ``s<i>`` of each document: with no extractor,
    the sentence is the summary's one claim."""
    return [
        (doc, summary_from_sentences(f"s{i}", doc.id, [text]))
        for i, (doc, text) in enumerate(zip(docs, texts))
    ]


class TestScoreCorpus:
    def pairs(self):
        docs = [doc_from_sentences(f"d{i}", [f"word{i} alpha.", "beta gamma."]) for i in range(6)]
        return sentence_pairs(docs, [f"word{i} beta." for i in range(6)])

    def test_workers_do_not_change_reports(self):
        pairs, coref = self.pairs(), NoopCorefBackend()
        serial = list(score_corpus(pairs, Scorer(MockEntailmentBackend()), None, coref, "full"))
        threaded = list(
            score_corpus(
                pairs, Scorer(MockEntailmentBackend(batch_size=2, workers=3)), None, coref, "full"
            )
        )
        assert serial == threaded
        assert [r.summary_id for r in serial] == [f"s{i}" for i in range(6)]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_failing_pair_source_reports_every_pair_before_it(self, workers, monkeypatch):
        # The source fails at the 11th of 20 pairs, across blocks of three
        # items: at any worker count the reports of the ten pairs before it
        # come first, then its error.
        monkeypatch.setattr("sumfact.pipeline.BLOCK_PAIRS_PER_SLOT", 3)
        docs = [doc_from_sentences(f"d{i}", [f"word{i} alpha.", "beta gamma."]) for i in range(20)]
        pairs = sentence_pairs(docs, [f"word{i} beta." for i in range(20)])
        cache = {summary.id: [summary.text] for _, summary in pairs}

        def source():
            yield from pairs[:10]
            raise InputError("sums.jsonl changed during the run")

        def scored(pairs, backend):
            extractor = FileCacheExtractor(cache)
            return score_corpus(pairs, Scorer(backend), extractor, NoopCorefBackend(), "full")

        got = []
        with pytest.raises(InputError, match="changed during the run"):
            for report in scored(source(), MockEntailmentBackend(batch_size=2, workers=workers)):
                got.append(report)
        assert got == list(scored(pairs[:10], MockEntailmentBackend()))

    def test_pairs_are_taken_a_block_at_a_time(self, monkeypatch):
        # Items of two sentence-wave pairs, and blocks that close at 2 x 3 =
        # 6 pairs: three items. A pair is read only when a block needs its
        # item, and the scorer takes the next block while this one's last
        # wave is in flight: never further ahead.
        monkeypatch.setattr("sumfact.pipeline.BLOCK_PAIRS_PER_SLOT", 3)
        docs = [doc_from_sentences(f"d{i}", [f"word{i} alpha.", "beta gamma."]) for i in range(12)]
        taken = []

        def pairs():
            for n, pair in enumerate(sentence_pairs(docs, [f"word{i} beta." for i in range(12)])):
                taken.append(n)
                yield pair

        scorer = BlockRecorder(MockEntailmentBackend(batch_size=2))
        reports = score_corpus(pairs(), scorer, None, NoopCorefBackend(), "full")
        assert taken == []
        next(reports)
        # Blocks 0 and 1: block 1 is taken before block 0's reports.
        assert taken == list(range(6))
        next(reports), next(reports)
        assert taken == list(range(6))
        next(reports)
        # Block 2, and not one pair of block 3.
        assert taken == list(range(9))
        assert len(list(reports)) == 8
        assert taken == list(range(12))
        assert [len(block) for block in scorer.blocks] == [3, 3, 3, 3]

    def test_cache_miss_in_a_blocks_second_chunk_reports_the_chunk_before(self):
        # All six items make one block; s3 has no claims, so resolving it
        # fails, and every item before it is scored and reported before the
        # error, with one worker or with extractions running ahead on three.
        pairs = self.pairs()
        cache = {summary.id: [summary.text] for _, summary in pairs}
        del cache["s3"]

        def scored(pairs, scorer):
            extractor = FileCacheExtractor(cache)
            return score_corpus(pairs, scorer, extractor, NoopCorefBackend(), "full")

        for workers in (1, 3):
            scorer = BlockRecorder(MockEntailmentBackend(batch_size=2, workers=workers))
            got = []
            with pytest.raises(ClaimCacheMiss, match="'s3'"):
                for report in scored(pairs, scorer):
                    got.append(report)
            assert got == list(scored(pairs[:3], Scorer(MockEntailmentBackend())))
            blocks = [[c[0].summary_id for _, c, _ in block] for block in scorer.blocks]
            assert blocks == [["s0", "s1", "s2"]]
        # Without the miss, the six items are one block.
        cache["s3"] = ["word3 beta."]
        complete = BlockRecorder(MockEntailmentBackend(batch_size=2))
        assert len(list(scored(pairs, complete))) == 6
        assert [len(block) for block in complete.blocks] == [6]


class BlockRecorder(Scorer):
    """A scorer keeping every block ``score_corpus`` hands it, as a list of items."""

    def score_blocks(self, blocks, *, stop=None):
        self.blocks = []

        def recorded():
            for block in blocks:
                self.blocks.append(list(block))
                yield block

        return super().score_blocks(recorded(), stop=stop)


class TestBlocks:
    """``score_corpus`` scores blocks cut by sentence-wave pairs, each stage
    one wave of backend pairs over the block; blocks change batching only."""

    PARAMS = ScoringParams(window_size=2, gate_threshold=0.9)
    BUDGET = 200

    @pytest.mark.parametrize("mode", MODES)
    def test_reports_do_not_depend_on_blocks(self, mode):
        pairs, cache = random_news_corpus(random.Random(4242), 24, 3)
        extractor, coref = FileCacheExtractor(cache), HeuristicCorefBackend()

        def scored(pairs, backend):
            return score_corpus(
                pairs, Scorer(backend, self.PARAMS), extractor, coref, mode, missing_ok=True
            )

        expected = [
            report
            for pair in pairs
            for report in scored([pair], MockEntailmentBackend(max_units=self.BUDGET))
        ]
        if mode == "full":
            # The corpus reaches every stage, budget chunking and the fallback.
            verdicts = [v for report in expected for v in report.verdicts]
            assert {v.stage for v in verdicts} == {"coref", "multi_granularity"}
            assert any(v.aligned.substitution for v in verdicts)
            assert any(
                v.stage == "multi_granularity" and v.aligned.granularity == "window"
                for v in verdicts
            )
            assert any(len(doc.text) > self.BUDGET for doc, _ in pairs)
            assert 0 < sum(r.claims_fallback for r in expected) < len(pairs)
        rendered = [render_report(report) for report in expected]
        for batch_size in (1, 4, 32):
            for workers in (1, 3):
                backend = MockEntailmentBackend(
                    batch_size=batch_size, max_units=self.BUDGET, workers=workers
                )
                reports = scored(pairs, backend)
                assert [render_report(r) for r in reports] == rendered, (batch_size, workers)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 60), st.integers(1, 6)), min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
        st.one_of(st.just(pipeline.BLOCK_PAIRS_PER_SLOT), st.integers(1, 40)),
    )
    # Items of six pairs each: at batch size 3 every block reaches its cap of 6 exactly.
    @example([(2, 3), (3, 2), (6, 1), (1, 6), (2, 3)], 0, 2)
    def test_blocks_are_cut_by_sentence_wave_pairs(self, shape, seed, per_slot):
        # Summaries of documents of 1-60 sentences with 1-6 claims each: the
        # blocks partition the items in input order, each reaching the cap
        # only at its last item, and the reports are those of each item alone.
        rng = random.Random(seed)

        def text(n):
            return " ".join(rng.choice(VOCAB) for _ in range(rng.randint(2, 5))) + f" n{n}."

        pairs, cache = [], {}
        for u, (sentences, claims) in enumerate(shape):
            doc = doc_from_sentences(f"d{u}", [text(s) for s in range(sentences)])
            pairs.append((doc, summary_from_sentences(f"s{u}", doc.id, [text(0)])))
            cache[f"s{u}"] = [text(c) for c in range(claims)]
        extractor = FileCacheExtractor(cache)

        def scored(pairs, scorer):
            return [
                render_report(report)
                for report in score_corpus(pairs, scorer, extractor, NoopCorefBackend(), "full")
            ]

        alone = Scorer(MockEntailmentBackend(), self.PARAMS)
        expected = [line for pair in pairs for line in scored([pair], alone)]
        with mock.patch.object(pipeline, "BLOCK_PAIRS_PER_SLOT", per_slot):
            for batch_size in (1, 3, 32):
                for workers in (1, 2):
                    backend = MockEntailmentBackend(batch_size=batch_size, workers=workers)
                    scorer = BlockRecorder(backend, self.PARAMS)
                    assert scored(pairs, scorer) == expected, (batch_size, workers)
                    items = [item for block in scorer.blocks for item in block]
                    assert [c[0].summary_id for _, c, _ in items] == [s.id for _, s in pairs]
                    cap = batch_size * per_slot
                    for n, block in enumerate(scorer.blocks):
                        work = [len(doc.sentences) * len(claims) for doc, claims, _ in block]
                        assert sum(work[:-1]) < cap
                        if n < len(scorer.blocks) - 1:
                            assert sum(work) >= cap

    def test_one_backend_pass_per_wave_and_block(self, monkeypatch):
        # One-claim summaries, each with its own document of m sentences, no
        # coref and a gate every claim misses: per block of B summaries the
        # sentence wave sends B*m pairs and the window and document wave
        # B*(m - j + 1) windows plus B documents. At m pairs per slot a block
        # closes at batch_size * m pairs, so B is batch_size.
        m, j, n_items, batch_size = 4, 2, 10, 3
        monkeypatch.setattr("sumfact.pipeline.BLOCK_PAIRS_PER_SLOT", m)
        docs = [
            doc_from_sentences(f"d{u}", [f"{'x' * (s + 1)} w{u}s{s} tail." for s in range(m)])
            for u in range(n_items)
        ]
        claims = [f"w{u}s0 other." for u in range(n_items)]
        pairs = sentence_pairs(docs, claims)
        backend = RecordingBackend(batch_size=batch_size)
        scorer = Scorer(backend, ScoringParams(window_size=j, gate_threshold=0.9))
        reports = list(score_corpus(pairs, scorer, None, NoopCorefBackend(), "full"))
        assert [r.verdicts[0].stage for r in reports] == ["multi_granularity"] * n_items
        blocks = [min(batch_size, n_items - lo) for lo in range(0, n_items, batch_size)]
        waves = [b * m for b in blocks] + [b * (m - j + 2) for b in blocks]
        calls = backend.calls
        assert Counter(sum(map(len, call)) for call in calls) == Counter(waves)
        # Each wave's batches are cut by padded size, capped by the block's
        # largest pair: a whole document with its claim, of one size here.
        (bound,) = {len(doc.text) + len(text) for doc, text in zip(docs, claims)}
        for call in calls:
            check_cut(call, batch_size, bound=bound)
        for batch in backend.batches:
            lengths = [len(p) + len(h) for p, h in batch]
            assert lengths == sorted(lengths)


class TestPairsInFlight:
    """With ``workers > 1`` the backend keeps several batches of one wave in
    flight, and the next block's first wave is sent while the block before
    has its last in flight. A pair is sent once by each block that asks for
    it, however many workers there are."""

    @staticmethod
    def barrier_backend(first_batches, after=0):
        """A recording mock whose first ``first_batches`` batches after the
        first ``after`` each wait for all of them, so those batches are in
        flight at once."""
        barrier = threading.Barrier(first_batches, timeout=10)
        started = iter([False] * after + [True] * first_batches)

        class BarrierBackend(RecordingBackend):
            def _infer(self, pairs, table):
                if next(started, False):
                    barrier.wait()
                return super()._infer(pairs, table)

        return BarrierBackend

    @staticmethod
    def scored(pairs, scorer, extractor=None, coref=None):
        return list(
            score_corpus(pairs, scorer, extractor, coref or NoopCorefBackend(), "full",
                         missing_ok=True)
        )

    def test_shared_pair_is_sent_once(self):
        # Both summaries make one block of two pairs.
        shared = "shared alpha beta."
        docs = [doc_from_sentences(f"d{u}", [shared, f"unique{u} gamma."]) for u in range(2)]
        pairs = sentence_pairs(docs, [shared] * 2)
        serial = Scorer(MockEntailmentBackend(batch_size=2))
        expected = self.scored(pairs, serial)
        # The block's two sentence batches wait for each other.
        backend = self.barrier_backend(2)(batch_size=2, workers=3)
        scorer = Scorer(backend, serial.params)
        assert self.scored(pairs, scorer) == expected
        assert backend.sent.count((shared, shared)) == 1
        assert scorer.backend_calls == serial.backend_calls == {
            "sentence": 3, "coref": 0, "window": 0, "document": 0
        }

    @pytest.mark.parametrize("workers", [1, 3])
    def test_shared_window_pair_is_sent_once(self, workers):
        # Two documents open with the same two sentences, so with j=2 they
        # share the window premise over them. The claim misses the gate, and
        # both items make one block.
        window = "alpha beta. gamma delta."
        docs = [
            doc_from_sentences(f"d{u}", ["alpha beta.", "gamma delta.", f"unique{u} tail."])
            for u in range(2)
        ]
        pairs = sentence_pairs(docs, ["zz yy."] * 2)
        params = ScoringParams(window_size=2, gate_threshold=0.9)
        serial = Scorer(MockEntailmentBackend(batch_size=2), params)
        expected = self.scored(pairs, serial)
        # With several workers, the first two of the window wave's three
        # batches wait for each other; the block's cap (twice a document with
        # its claim) holds its four sentence pairs in one batch.
        backend = self.barrier_backend(2 if workers > 1 else 1, after=1)(
            batch_size=2, workers=workers
        )
        scorer = Scorer(backend, params)
        assert self.scored(pairs, scorer) == expected
        sent = backend.sent
        assert sent.count((window, "zz yy.")) == 1
        assert len(sent) == len(set(sent))
        assert scorer.backend_calls == serial.backend_calls == {
            "sentence": 4, "coref": 0, "window": 3, "document": 2
        }

    @classmethod
    def sent_by_many_workers(cls, corpus, params, batch_size=1):
        """Reports and pairs sent with one worker; then, three times over with
        eight, check the reports and ``backend_calls`` and yield the pairs sent."""
        serial_backend = RecordingBackend(batch_size=batch_size)
        serial = Scorer(serial_backend, params)
        expected = cls.scored(corpus[0], serial, *corpus[1:])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                backend = RecordingBackend(batch_size=batch_size, workers=8)
                scorer = Scorer(backend, params)
                assert cls.scored(corpus[0], scorer, *corpus[1:]) == expected
                assert scorer.backend_calls == serial.backend_calls
                yield backend.sent, serial_backend.sent
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def news_corpus():
        """``(pairs, extractor, coref backend)``: summaries of one document
        share pairs, across blocks of one pair."""
        pairs, cache = random_news_corpus(random.Random(7), 6, 8)
        return pairs, FileCacheExtractor(cache), HeuristicCorefBackend()

    def test_many_workers_send_each_pair_once(self):
        # One block spans the whole run: every pair is sent once.
        corpus = self.news_corpus()
        params = ScoringParams(window_size=2, gate_threshold=0.9)
        for sent, _ in self.sent_by_many_workers(corpus, params, len(corpus[0])):
            assert len(sent) == len(set(sent))

    def test_many_workers_send_what_one_worker_sends(self):
        # A pair used again in a later block is sent again, as often with
        # any workers.
        params = ScoringParams(window_size=2, gate_threshold=0.9)
        for sent, serial_sent in self.sent_by_many_workers(self.news_corpus(), params):
            assert len(sent) > len(set(sent))
            assert Counter(sent) == Counter(serial_sent)


class TestRecordScorer:
    """Benchmark records scored as the ``benchmark`` command scores them:
    ``score_corpus`` over their (document, summary) pairs."""

    def record(self, rid, summary_texts=("alpha beta.",)):
        doc = doc_from_sentences("shared-doc", ["alpha beta.", "gamma delta."])
        return doc, summary_from_sentences(f"{rid}:sum", "shared-doc", list(summary_texts))

    def reports(self, pairs, extractor=None, mode="full", coref_backend=None):
        scorer = Scorer(MockEntailmentBackend())
        coref_backend = coref_backend or NoopCorefBackend()
        return list(score_corpus(pairs, scorer, extractor, coref_backend, mode, missing_ok=True))

    def fallbacks(self, pairs, **kwargs):
        return sum(r.claims_fallback for r in self.reports(pairs, **kwargs))

    def test_score_matches_direct_pipeline(self):
        doc, summary = self.record("r1")
        (direct,) = score_block(
            Scorer(MockEntailmentBackend()), [(doc, fallback_claims(summary), True)]
        )
        assert self.reports([(doc, summary)])[0].score == direct.score

    def test_fallback_counting(self):
        assert self.fallbacks([self.record(f"r{i}") for i in range(3)]) == 3

    def test_nli_sent_does_not_count_fallback(self):
        assert self.fallbacks([self.record("r1")], mode="nli_sent") == 0

    def test_cache_hits_do_not_count(self):
        extractor = FileCacheExtractor({"r1:sum": ["Alpha claim."]})
        assert self.fallbacks([self.record("r1")], extractor=extractor) == 0

    def test_coref_runs_once_per_document(self):
        backend = CountingCoref()
        self.reports([self.record("r1"), self.record("r2")], coref_backend=backend)
        assert backend.calls == 1
