"""Wiring layer: backend factories, claim fallback policy, corpus scoring."""

import dataclasses
import logging
import math
import random
import sys
import threading
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from sumfact import (
    BenchmarkRecord,
    Claim,
    ClaimCacheMiss,
    FileCacheExtractor,
    HeuristicCorefBackend,
    InputError,
    LocalSeq2SeqExtractor,
    MockEntailmentBackend,
    NoopCorefBackend,
    PremiseBudget,
    RemoteEntailmentBackend,
    RemoteLlmExtractor,
    RunConfig,
    Scorer,
    ScoringParams,
)
from sumfact import scoring
from sumfact.config import MODES
from sumfact.formats import render_report
from sumfact.pipeline import (
    attach_clusters,
    build_units,
    fallback_claims,
    make_claim_extractor,
    make_coref_backend,
    make_nli_backend,
    pair_summaries,
    resolve_claims,
    score_corpus,
    scorer_fingerprint,
    scoring_params,
)

from cases import doc_from_sentences, random_news_corpus, summary_from_sentences


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


class TestNliFactory:
    def test_mock_default(self):
        backend = make_nli_backend(RunConfig())
        assert isinstance(backend, MockEntailmentBackend)
        assert backend.batch_size == 32
        assert backend.budget is None

    def test_batch_and_budget_passthrough(self):
        config = RunConfig(nli_batch_size=4, nli_max_units=64)
        backend = make_nli_backend(config)
        assert backend.batch_size == 4
        assert backend.budget.max_units == 64

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
            claim_max_in_flight=2,
        )
        extractor = make_claim_extractor(config)
        assert isinstance(extractor, RemoteLlmExtractor)
        assert extractor.config.target == "http://llm.local/chat"
        assert extractor.config.model == "m2"
        assert extractor.config.timeout == 12.0
        assert extractor.config.max_retries == 4
        assert extractor.config.api_key_env == "OTHER_KEY"
        assert extractor.config.max_tokens == 256
        assert extractor.config.max_in_flight == 2

    def test_remote_needs_url(self):
        with pytest.raises(InputError, match="needs a URL"):
            make_claim_extractor(RunConfig(claim_backend="remote:"))

    @pytest.mark.parametrize("max_tokens", [0, -1])
    def test_remote_rejects_max_tokens_below_one(self, max_tokens):
        config = RunConfig(claim_backend="remote:http://llm.local/chat", claim_max_tokens=max_tokens)
        with pytest.raises(InputError, match="max_tokens must be >= 1"):
            make_claim_extractor(config)

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
        "claim_max_in_flight": ("claim transport only", 1),
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


class TestBuildUnits:
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
        items = build_units(pair_summaries(docs, summaries), extractor, NoopCorefBackend(), "full")
        assert items == [
            (docs[0], [Claim("s1", 0, "Alpha claim.")], False),
            (docs[1], [Claim("s2", 0, "Zeta claim.")], False),
        ]

    def test_unknown_document_id(self):
        docs, _ = self.corpus()
        stray = summary_from_sentences("s9", "missing-doc", ["alpha."])
        with pytest.raises(
            InputError, match="summary 's9' references unknown document 'missing-doc'"
        ):
            pair_summaries(docs, [stray])

    def test_document_prepared_once(self):
        doc = doc_from_sentences("d1", ["alpha beta."])
        summaries = [
            summary_from_sentences("s1", "d1", ["alpha."]),
            summary_from_sentences("s2", "d1", ["beta."]),
        ]
        backend = CountingCoref()
        items = build_units(pair_summaries([doc], summaries), None, backend, "full")
        assert backend.calls == 1
        assert items[0][0] is items[1][0]

    def test_missing_ok_passthrough(self):
        docs, summaries = self.corpus()
        pairs = pair_summaries(docs, summaries)
        extractor = FileCacheExtractor({"s1": ["Alpha claim."]})
        with pytest.raises(ClaimCacheMiss):
            build_units(pairs, extractor, NoopCorefBackend(), "full")
        items = build_units(pairs, extractor, NoopCorefBackend(), "full", missing_ok=True)
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
        items = build_units(pairs, None, backend, "full")
        assert backend.calls == 2
        assert [document.text for document, _, _ in items] == [first.text, second.text, first.text]
        reports = list(score_corpus(items, Scorer(MockEntailmentBackend()), "full"))
        for (document, summary), report in zip(pairs, reports):
            (direct,) = Scorer(MockEntailmentBackend()).score_summaries(
                [(document, fallback_claims(summary), True)]
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
        pairs = pair_summaries(docs, summaries)
        items = build_units(pairs, BarrierExtractor(), NoopCorefBackend(), "full", workers=2)
        assert [claims for _, claims, _ in items] == [
            [Claim("s1", 0, "s1 claim.")],
            [Claim("s2", 0, "s2 claim.")],
        ]


class TestEvaluatePair:
    """One pair built and scored in one mode: ``build_units`` then ``score_corpus``."""

    DOC = doc_from_sentences("d1", ["alpha beta.", "gamma delta."])
    SUMMARY = summary_from_sentences("s1", "d1", ["alpha beta."])

    def report(self, fallback, mode):
        # No extractor takes the sentence fallback; a cache hit does not.
        extractor = None if fallback else FileCacheExtractor({"s1": ["alpha beta."]})
        items = build_units([(self.DOC, self.SUMMARY)], extractor, NoopCorefBackend(), mode)
        (report,) = score_corpus(items, Scorer(MockEntailmentBackend()), mode)
        return report

    def test_full_mode_keeps_flag(self):
        assert self.report(False, "full").claims_fallback is False
        assert self.report(True, "full").claims_fallback is True

    def test_ablation_marks_fallback(self):
        assert self.report(True, "nli_claim").claims_fallback is True

    def test_nli_sent_ignores_fallback(self):
        assert self.report(True, "nli_sent").claims_fallback is False

    def test_full_matches_direct_scoring(self):
        (direct,) = Scorer(MockEntailmentBackend()).score_summaries(
            [(self.DOC, [Claim("s1", 0, "alpha beta.")], False)]
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
        items = build_units(pairs, extractor, NoopCorefBackend(), "nli_sent", workers=2)
        assert extractor.calls == 0
        # The sentences verbatim, duplicates kept, never flagged as the fallback.
        sentences = [Claim("s1", 0, "Alpha beta."), Claim("s1", 1, "Alpha beta.")]
        assert items == [(self.DOC, sentences, False)] * 3
        build_units(pairs, extractor, NoopCorefBackend(), "nli_claim")
        assert extractor.calls == 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation mode 'bogus'"):
            build_units([(self.DOC, self.SUMMARY)], None, NoopCorefBackend(), "bogus")


class TestScoreCorpus:
    def items(self):
        docs = [doc_from_sentences(f"d{i}", [f"word{i} alpha.", "beta gamma."]) for i in range(6)]
        return [(doc, [Claim(f"s{i}", 0, f"word{i} beta.")], False) for i, doc in enumerate(docs)]

    def test_workers_do_not_change_reports(self):
        items = self.items()
        serial = list(score_corpus(items, Scorer(MockEntailmentBackend()), "full"))
        threaded = list(
            score_corpus(items, Scorer(MockEntailmentBackend(batch_size=2, workers=3)), "full")
        )
        assert serial == threaded
        assert [r.summary_id for r in serial] == [f"s{i}" for i in range(6)]


class RecordingBackend(MockEntailmentBackend):
    """The mock, keeping every batch it is sent."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.batches = []

    def _infer(self, pairs, table):
        self.batches.append(list(pairs))
        return super()._infer(pairs, table)


class TestBlocks:
    """``score_corpus`` scores blocks of ``batch_size`` items, each stage one
    wave of backend pairs over the block; blocks change batching only."""

    PARAMS = ScoringParams(window_size=2, gate_threshold=0.9)
    BUDGET = PremiseBudget(200)

    @pytest.mark.parametrize("mode", MODES)
    def test_reports_do_not_depend_on_blocks(self, mode):
        pairs, cache = random_news_corpus(random.Random(4242), 24, 3)
        items = build_units(
            pairs, FileCacheExtractor(cache), HeuristicCorefBackend(), mode, missing_ok=True
        )

        def fresh():
            return Scorer(MockEntailmentBackend(budget=self.BUDGET), self.PARAMS)

        expected = [report for item in items for report in score_corpus([item], fresh(), mode)]
        if mode == "full":
            # The corpus reaches every stage, budget chunking and the fallback.
            verdicts = [v for report in expected for v in report.verdicts]
            assert {v.stage for v in verdicts} == {"coref", "multi_granularity"}
            assert any(v.aligned.substitution for v in verdicts)
            assert any(
                v.stage == "multi_granularity" and v.aligned.granularity == "window"
                for v in verdicts
            )
            assert any(len(doc.text) > self.BUDGET.max_units for doc, _, _ in items)
            assert 0 < sum(r.claims_fallback for r in expected) < len(items)
        rendered = [render_report(report) for report in expected]
        for batch_size in (1, 4, 32):
            for workers in (1, 3):
                backend = MockEntailmentBackend(
                    batch_size=batch_size, budget=self.BUDGET, workers=workers
                )
                reports = score_corpus(items, Scorer(backend, self.PARAMS), mode)
                assert [render_report(r) for r in reports] == rendered, (batch_size, workers)

    def test_one_backend_pass_per_wave_and_block(self):
        # One-claim items, each with its own document of m sentences, no
        # coref and a gate every claim misses: per block of B items the
        # sentence wave sends B*m pairs and the window and document wave
        # B*(m - j + 1) windows plus B documents.
        m, j, n_items, batch_size = 4, 2, 10, 3
        items = []
        for u in range(n_items):
            doc = doc_from_sentences(f"d{u}", [f"{'x' * (s + 1)} w{u}s{s} tail." for s in range(m)])
            items.append((doc, [Claim(f"s{u}", 0, f"w{u}s0 other.")], False))
        backend = RecordingBackend(batch_size=batch_size)
        scorer = Scorer(backend, ScoringParams(window_size=j, gate_threshold=0.9))
        reports = list(score_corpus(items, scorer, "full"))
        assert [r.verdicts[0].stage for r in reports] == ["multi_granularity"] * n_items
        blocks = [min(batch_size, n_items - lo) for lo in range(0, n_items, batch_size)]
        waves = [b * m for b in blocks] + [b * (m - j + 2) for b in blocks]
        assert len(backend.batches) == sum(math.ceil(w / batch_size) for w in waves)
        assert sum(map(len, backend.batches)) == sum(waves)
        for batch in backend.batches:
            lengths = [len(p) + len(h) for p, h in batch]
            assert lengths == sorted(lengths)


class TestPairsInFlight:
    """With ``workers > 1`` the backend keeps several batches of one wave in
    flight, and blocks are still scored one after another: a pair that an
    earlier block sent is answered from the memo, not sent again."""

    @staticmethod
    def barrier_backend(first_batches):
        """A recording mock whose first ``first_batches`` batches each wait
        for all of them, so those batches are in flight at once."""
        barrier = threading.Barrier(first_batches, timeout=10)
        started = iter(range(first_batches))

        class BarrierBackend(RecordingBackend):
            def _infer(self, pairs, table):
                if next(started, None) is not None:
                    barrier.wait()
                return super()._infer(pairs, table)

        return BarrierBackend

    def test_shared_pair_is_sent_once(self):
        shared = "shared alpha beta."
        items = []
        for u in range(2):
            doc = doc_from_sentences(f"d{u}", [shared, f"unique{u} gamma."])
            items.append((doc, [Claim(f"s{u}", 0, shared)], False))
        serial = Scorer(MockEntailmentBackend(batch_size=1))
        expected = list(score_corpus(items, serial, "full"))
        # The first block's two sentence batches wait for each other.
        backend = self.barrier_backend(2)(batch_size=1, workers=3)
        scorer = Scorer(backend, serial.params)
        assert list(score_corpus(items, scorer, "full")) == expected
        sent = [pair for batch in backend.batches for pair in batch]
        assert sent.count((shared, shared)) == 1
        assert scorer.backend_calls == serial.backend_calls == {
            "sentence": 3, "coref": 0, "window": 0, "document": 0
        }

    @pytest.mark.parametrize("workers", [1, 3])
    def test_shared_window_pair_is_sent_once(self, workers):
        # Two documents open with the same two sentences, so with j=2 they
        # share the window premise over them. The claim misses the gate, and
        # each item is its own block.
        window = "alpha beta. gamma delta."
        items = []
        for u in range(2):
            doc = doc_from_sentences(f"d{u}", ["alpha beta.", "gamma delta.", f"unique{u} tail."])
            items.append((doc, [Claim(f"s{u}", 0, "zz yy.")], False))
        params = ScoringParams(window_size=2, gate_threshold=0.9)
        serial = Scorer(MockEntailmentBackend(batch_size=1), params)
        expected = list(score_corpus(items, serial, "full"))
        # With several workers, the first block's three sentence batches
        # wait for each other.
        backend = self.barrier_backend(3 if workers > 1 else 1)(batch_size=1, workers=workers)
        scorer = Scorer(backend, params)
        assert list(score_corpus(items, scorer, "full")) == expected
        sent = [pair for batch in backend.batches for pair in batch]
        assert sent.count((window, "zz yy.")) == 1
        assert len(sent) == len(set(sent))
        assert scorer.backend_calls == serial.backend_calls == {
            "sentence": 4, "coref": 0, "window": 3, "document": 2
        }

    @staticmethod
    def sent_by_many_workers(items, params):
        """Reports and pairs sent with one worker; then, three times over with
        eight, check the reports and ``backend_calls`` and yield the pairs sent."""
        serial_backend = RecordingBackend(batch_size=1)
        serial = Scorer(serial_backend, params)
        expected = list(score_corpus(items, serial, "full"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                backend = RecordingBackend(batch_size=1, workers=8)
                scorer = Scorer(backend, params)
                assert list(score_corpus(items, scorer, "full")) == expected
                assert scorer.backend_calls == serial.backend_calls
                sent = [pair for batch in backend.batches for pair in batch]
                yield sent, [pair for batch in serial_backend.batches for pair in batch]
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def news_items():
        # Summaries of one document share pairs, across blocks of one item.
        pairs, cache = random_news_corpus(random.Random(7), 6, 8)
        return build_units(
            pairs, FileCacheExtractor(cache), HeuristicCorefBackend(), "full", missing_ok=True
        )

    def test_many_workers_send_each_pair_once(self, monkeypatch):
        # A memo that spans the whole run: every pair is sent once.
        items = self.news_items()
        monkeypatch.setattr(scoring, "MEMO_BLOCKS", len(items))
        params = ScoringParams(window_size=2, gate_threshold=0.9)
        for sent, _ in self.sent_by_many_workers(items, params):
            assert len(sent) == len(set(sent))

    def test_many_workers_send_what_one_worker_sends(self):
        # The bounded memo sends some pairs again, as often with any workers.
        params = ScoringParams(window_size=2, gate_threshold=0.9)
        for sent, serial_sent in self.sent_by_many_workers(self.news_items(), params):
            assert len(sent) > len(set(sent))
            assert Counter(sent) == Counter(serial_sent)


class TestRecordScorer:
    """Benchmark records scored as the ``benchmark`` command scores them:
    ``build_units`` over their (document, summary) pairs, then ``score_corpus``."""

    def record(self, rid, summary_texts=("alpha beta.",)):
        doc = doc_from_sentences("shared-doc", ["alpha beta.", "gamma delta."])
        summary = summary_from_sentences(f"{rid}:sum", "shared-doc", list(summary_texts))
        return BenchmarkRecord(rid, doc, summary, True, "sys", "A", "test")

    def reports(self, records, extractor=None, mode="full", coref_backend=None):
        pairs = [(r.document, r.summary) for r in records]
        items = build_units(
            pairs, extractor, coref_backend or NoopCorefBackend(), mode, missing_ok=True
        )
        return list(score_corpus(items, Scorer(MockEntailmentBackend()), mode))

    def fallbacks(self, records, **kwargs):
        return sum(r.claims_fallback for r in self.reports(records, **kwargs))

    def test_score_matches_direct_pipeline(self):
        record = self.record("r1")
        (direct,) = Scorer(MockEntailmentBackend()).score_summaries(
            [(record.document, fallback_claims(record.summary), True)]
        )
        assert self.reports([record])[0].score == direct.score

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
