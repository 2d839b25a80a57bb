"""Top-level behavioral guarantees, one scrapeable PASS/FAIL line per check.

Every test here covers one externally visible guarantee of the toolkit and
prints ``ACCEPTANCE <label>: PASS`` (or FAIL) through the ``criterion``
fixture so the outcome can be grepped from the pytest output. Comparisons are
exact unless a tolerance appears inline; the independent reference
implementation lives in ``oracles.py``. Checks that need model weights or
labeled corpora are in ``test_heavy.py`` behind environment variables.
"""

import json
import logging
import random
from dataclasses import replace

import pytest

from sumfact import (
    Claim,
    MockEntailmentBackend,
    NoopCorefBackend,
    Scorer,
    ScoringParams,
    easiness_f1,
    easiness_precision,
    easiness_recall,
    rouge1_f1,
    run_benchmark,
)
from sumfact.formats import render_report
from sumfact.pipeline import score_corpus

from cases import (
    GivenClaims,
    benchmark_row,
    doc_from_sentences,
    random_case,
    score_block,
    summary_from_sentences,
)
from oracles import oracle_verdict, verdict_to_view, window_stage

TOL = 1e-9


def test_staged_alignment_matches_oracle(criterion):
    """500 random cases: every verdict field equals the brute-force oracle."""
    with criterion("staged-alignment-matches-oracle"):
        rng = random.Random(20250601)
        for case_id in range(500):
            doc, claims, params = random_case(rng, case_id)
            plain = Scorer(MockEntailmentBackend(), ScoringParams(**params))
            mono = Scorer(
                MockEntailmentBackend(), ScoringParams(**params, monotone_gate=True)
            )
            (report,) = score_block(plain, [(doc, claims, False)])
            (mono_report,) = score_block(mono, [(doc, claims, False)])
            for claim, verdict, mono in zip(claims, report.verdicts, mono_report.verdicts):
                assert verdict_to_view(verdict) == oracle_verdict(doc, claim, **params)
                assert verdict_to_view(mono) == oracle_verdict(
                    doc, claim, monotone_gate=True, **params
                )
            expected = [oracle_verdict(doc, c, **params)["score"] for c in claims]
            assert report.score == sum(expected) / len(expected)


def test_gate_skips_coarser_stages(criterion, caplog):
    """Window/document premises are only evaluated when the gate is missed."""
    with criterion("gate-skips-coarser-stages"):
        rng = random.Random(777)

        # A gate at the score floor is always met: zero coarse-stage calls
        # and zero coarse-stage batch log rows across 60 random cases.
        with caplog.at_level(logging.DEBUG, logger="sumfact.scoring"):
            for case_id in range(60):
                doc, claims, params = random_case(rng, case_id)
                params = dict(params, gate_threshold=-1.0)
                scorer = Scorer(MockEntailmentBackend(), ScoringParams(**params))
                (report,) = score_block(scorer, [(doc, claims, False)])
                assert all(verdict.stage == "coref" for verdict in report.verdicts)
                assert scorer.backend_calls["window"] == 0
                assert scorer.backend_calls["document"] == 0
        stages = {json.loads(r.message)["stage"] for r in caplog.records}
        assert stages <= {"sentence", "coref"}
        caplog.clear()

        # Natural parameters: cases where every claim stops at the gate make
        # no coarse calls, and per the batch log no gated claim ever triggers
        # a window/document batch even when its neighbors do.
        gated: dict[tuple[str, int], bool] = {}
        with caplog.at_level(logging.DEBUG, logger="sumfact.scoring"):
            for case_id in range(60):
                doc, claims, params = random_case(rng, 1000 + case_id)
                scorer = Scorer(MockEntailmentBackend(), ScoringParams(**params))
                stopped = []
                (report,) = score_block(scorer, [(doc, claims, False)])
                for claim, verdict in zip(claims, report.verdicts):
                    at_gate = verdict.stage == "coref"
                    stopped.append(at_gate)
                    gated[(claim.summary_id, claim.index)] = at_gate
                if all(stopped):
                    assert scorer.backend_calls["window"] == 0
                    assert scorer.backend_calls["document"] == 0
        for row in (json.loads(r.message) for r in caplog.records):
            if row["stage"] in ("window", "document"):
                assert gated[(row["summary_id"], row["claim_index"])] is False

        # Forward direction on a fixed miss: coarse stages do run and win.
        doc = doc_from_sentences(
            "d-gate", ["alpha beta.", "gamma delta.", "epsilon zeta."]
        )
        claim = Claim("s-gate", 0, "alpha epsilon.")
        scorer = Scorer(
            MockEntailmentBackend(), ScoringParams(window_size=2, gate_threshold=0.8)
        )
        (report,) = score_block(scorer, [(doc, [claim], False)])
        (verdict,) = report.verdicts
        assert verdict.stage == "multi_granularity"
        assert verdict.score == 1.0
        assert verdict.aligned.granularity == "document"
        assert scorer.backend_calls["window"] == 2  # both 2-sentence joins
        assert scorer.backend_calls["document"] == 1  # the full join, once


def test_stage_decomposition_identities(criterion):
    """Published identities between the stages, exact, over 200 random cases."""
    with criterion("stage-decomposition-identities"):
        rng = random.Random(424242)
        multi_verdicts = 0
        for case_id in range(200):
            doc, claims, params = random_case(rng, case_id)
            scorer = Scorer(MockEntailmentBackend(), ScoringParams(**params))
            n = len(doc.sentences)
            (sentence,) = score_block(scorer, [(doc, claims, False)], stop="sentence")
            (report,) = score_block(scorer, [(doc, claims, False)])
            for claim, sent, verdict in zip(claims, sentence.verdicts, report.verdicts):
                # One-sentence windows are exactly the sentence stage.
                window_score, window_span = window_stage(scorer, doc, claim, 1)
                assert (window_score, window_span.sentence_start) == (
                    sent.score,
                    sent.aligned.sentence_start,
                )
                # The multi stage is the max of window and whole-document runs.
                window_score, window_span = window_stage(scorer, doc, claim, params["window_size"])
                document_score, document_span = window_stage(scorer, doc, claim, n)
                expected = "document" if document_score >= window_score else "window"
                multi_span = document_span if expected == "document" else window_span
                assert multi_span.granularity == expected
                if verdict.stage == "multi_granularity":
                    multi_verdicts += 1
                    assert verdict.score == max(window_score, document_score)
                    assert verdict.aligned == multi_span
            # The summary score is the arithmetic mean of its claim scores.
            total = sum(v.score for v in report.verdicts)
            assert report.score == total / len(report.verdicts)
        assert multi_verdicts > 0


def test_batching_invariant_output(criterion):
    """Rendered reports are byte-identical across backend batch sizes."""
    with criterion("batching-invariant-output"):
        rng = random.Random(98765)
        cases = [random_case(rng, i) for i in range(30)]
        rendered = []
        for batch_size in (1, 4, 32):
            lines = []
            for doc, claims, params in cases:
                scorer = Scorer(
                    MockEntailmentBackend(batch_size=batch_size),
                    ScoringParams(**params),
                )
                (report,) = score_block(scorer, [(doc, claims, False)])
                lines.append(render_report(report))
            rendered.append(lines)
        assert rendered[0] == rendered[1] == rendered[2]


def test_claim_overlap_metrics(criterion):
    """Unigram-F1 goldens plus exact symmetry and precision/recall duality."""
    with criterion("claim-overlap-metrics"):
        assert rouge1_f1("the cat sat", "the cat ran here") == pytest.approx(
            4 / 7, abs=TOL
        )
        assert rouge1_f1("a b c", "a b c") == 1.0
        assert rouge1_f1("a b", "c d") == 0.0

        system = ["the cat sat", "a dog"]
        human = ["the cat ran here", "a dog barks"]
        assert easiness_precision(system, human) == pytest.approx(24 / 35, abs=TOL)
        assert easiness_recall(system, human) == pytest.approx(24 / 35, abs=TOL)
        assert easiness_f1(system, human) == pytest.approx(24 / 35, abs=TOL)

        rng = random.Random(31415)
        words = ["alpha", "beta", "gamma", "delta", "not", "stone"]

        def phrase(k_min, k_max):
            return " ".join(rng.choice(words) for _ in range(rng.randint(k_min, k_max)))

        for _ in range(100):
            a, b = phrase(0, 6), phrase(0, 6)
            assert rouge1_f1(a, b) == rouge1_f1(b, a)
        for _ in range(50):
            left = [phrase(1, 5) for _ in range(rng.randint(1, 4))]
            right = [phrase(1, 5) for _ in range(rng.randint(1, 4))]
            assert easiness_recall(left, right) == easiness_precision(right, left)


def _table_scorer(table):
    return lambda pending: [table[record.record_id] for record in pending]


def test_benchmark_balanced_accuracy(criterion):
    """Threshold tuning and balanced accuracy hit exact values on fixtures."""
    with criterion("benchmark-balanced-accuracy"):
        # Perfectly separable scores: balanced accuracy exactly 1.0.
        records = [
            benchmark_row("v1", "d", "validation", True),
            benchmark_row("v2", "d", "validation", False),
            benchmark_row("t1", "d", "test", True),
            benchmark_row("t2", "d", "test", False),
        ]
        table = {"v1": 0.9, "v2": 0.1, "t1": 0.8, "t2": 0.2}
        report = run_benchmark(
            records, _table_scorer(table), "per_split", bootstrap_seed=None
        )
        assert report.average_balanced_accuracy == 1.0
        assert report.datasets[0].balanced_accuracy == 1.0
        assert report.datasets[0].threshold == pytest.approx(0.5)

        # Uninformative constant scores: exactly the 0.5 chance level.
        constant = run_benchmark(
            records, _table_scorer({k: 0.5 for k in table}), "per_split",
            bootstrap_seed=None,
        )
        assert constant.average_balanced_accuracy == 0.5

        # Two datasets that separate at different thresholds: pooling costs
        # accuracy in a predictable way, averaging exactly 0.75.
        mixed = [
            benchmark_row("a1", "A", "validation", True),
            benchmark_row("a2", "A", "validation", False),
            benchmark_row("a3", "A", "test", True),
            benchmark_row("a4", "A", "test", False),
            benchmark_row("b1", "B", "validation", True),
            benchmark_row("b2", "B", "validation", False),
            benchmark_row("b3", "B", "test", True),
            benchmark_row("b4", "B", "test", False),
        ]
        scores = {
            "a1": 0.6, "a2": 0.4, "a3": 0.55, "a4": 0.45,
            "b1": 0.3, "b2": 0.2, "b3": 0.35, "b4": 0.15,
        }
        pooled = run_benchmark(
            mixed, _table_scorer(scores), "single_threshold", bootstrap_seed=None
        )
        assert pooled.pooled_threshold == pytest.approx(0.25)
        by_name = {r.dataset: r for r in pooled.datasets}
        assert by_name["A"].balanced_accuracy == 0.5
        assert by_name["B"].balanced_accuracy == 1.0
        assert pooled.average_balanced_accuracy == 0.75


def test_coref_ablation_degrades_to_claim_scoring(criterion):
    """Without clusters the coref ablation equals the claim-only ablation."""
    with criterion("coref-ablation-degrades-to-claim-scoring"):
        rng = random.Random(1618)
        for case_id in range(100):
            doc, claims, params = random_case(rng, case_id)
            summary = summary_from_sentences(claims[0].summary_id, doc.id, ["unused."])
            pair = (replace(doc, coref_clusters=()), summary)
            claim_only, with_coref = (
                list(score_corpus(
                    [pair], Scorer(MockEntailmentBackend(), ScoringParams(**params)),
                    GivenClaims(claims), NoopCorefBackend(), mode,
                ))[0]
                for mode in ("nli_claim", "nli_coref")
            )
            assert [v.claim for v in claim_only.verdicts] == list(claims)
            assert with_coref.score == claim_only.score
            for va, vb in zip(claim_only.verdicts, with_coref.verdicts):
                assert vb.score == va.score
                assert va.stage == vb.stage == "sentence"
                assert vb.aligned == va.aligned
                assert set(va.sub_scores) == {"sentence"}
                assert set(vb.sub_scores) == {"sentence", "coref"}
                assert vb.sub_scores["coref"] == vb.sub_scores["sentence"]
                assert vb.sub_scores["sentence"] == va.sub_scores["sentence"]
