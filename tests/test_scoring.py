"""Staged claim scoring: per-stage operators, gating, tie-breaks, chunking."""

import json
import logging
import random
import threading
from collections import Counter

import pytest

from sumfact import (
    Claim,
    MockEntailmentBackend,
    NliBackendError,
    NoopCorefBackend,
    OversizedPremise,
    PremiseBudget,
    Scorer,
    ScoringParams,
    Substitution,
    coref_variants,
)
from sumfact.pipeline import build_units, score_corpus
from sumfact.scoring import MEMO_BLOCKS, AlignedSpan

import oracles
from cases import doc_from_sentences, random_case, summary_from_sentences


def claim(text, sid="s1", index=0):
    return Claim(sid, index, text)


def make_scorer(backend=None, **params):
    return Scorer(backend or MockEntailmentBackend(), ScoringParams(**params))


def verdicts(scorer, doc, *claims, stop=None):
    """Verdicts of ``claims``, scored as one summary."""
    return scorer.score_summaries([(doc, claims, False)], stop=stop)[0].verdicts


class TestScoringParams:
    def test_defaults(self):
        p = ScoringParams()
        assert (p.window_size, p.gate_threshold, p.max_coref_variants) == (5, 0.8, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoringParams(window_size=0)
        with pytest.raises(ValueError):
            ScoringParams(gate_threshold=1.5)
        with pytest.raises(ValueError):
            ScoringParams(max_coref_variants=0)


class TestAlignedSpan:
    def test_sentence_span_must_be_single(self):
        with pytest.raises(ValueError):
            AlignedSpan("sentence", 0, 1, "x")

    def test_substitution_only_on_coref(self):
        with pytest.raises(ValueError):
            AlignedSpan("window", 0, 1, "x", Substitution("a", "b"))

    def test_document_starts_at_zero(self):
        with pytest.raises(ValueError):
            AlignedSpan("document", 1, 3, "x")

    def test_range_ordering(self):
        with pytest.raises(ValueError):
            AlignedSpan("window", 3, 1, "x")


class TestNliScore:
    def test_matches_backend_score(self, mock_backend):
        assert mock_backend.entail_batch([("alpha beta", "alpha gamma")])[0].score == 0.5


class TestSentenceStage:
    def test_best_and_argmax(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        (verdict,) = verdicts(scorer, doc, claim("gamma delta."), stop="sentence")
        assert (verdict.score, verdict.aligned.sentence_start) == (1.0, 1)

    def test_tie_goes_to_lowest_index(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "alpha beta."])
        (verdict,) = verdicts(scorer, doc, claim("alpha."), stop="sentence")
        assert (verdict.score, verdict.aligned.sentence_start) == (1.0, 0)


VUNIPOLA_SENTS = ["Billy Vunipola has been ruled out.", "The player will return soon."]
VUNIPOLA_CLUSTERS = [[(0, 0, 14), (1, 0, 10)]]  # "Billy Vunipola" <-> "The player"


def vunipola_doc():
    return doc_from_sentences("d", VUNIPOLA_SENTS, VUNIPOLA_CLUSTERS)


class TestCorefVariants:
    def test_single_substitution_per_variant(self):
        doc = vunipola_doc()
        variants = coref_variants(doc, 0, ScoringParams())
        assert variants == [
            (
                "The player has been ruled out.",
                Substitution("Billy Vunipola", "The player"),
            )
        ]
        variants = coref_variants(doc, 1, ScoringParams())
        assert variants == [
            (
                "Billy Vunipola will return soon.",
                Substitution("The player", "Billy Vunipola"),
            )
        ]

    def test_ordered_by_mention_start(self):
        doc = doc_from_sentences(
            "d",
            ["alpha beta gamma delta.", "epsilon zeta."],
            [
                [(0, 11, 16), (1, 0, 7)],  # "gamma" <-> "epsilon"
                [(0, 0, 5), (1, 8, 12)],  # "alpha" <-> "zeta"
            ],
        )
        variants = coref_variants(doc, 0, ScoringParams())
        # Mention at offset 0 ("alpha") comes before the one at offset 11.
        assert [v[1] for v in variants] == [
            Substitution("alpha", "zeta"),
            Substitution("gamma", "epsilon"),
        ]

    def test_cap_respected(self):
        doc = doc_from_sentences(
            "d",
            ["alpha beta.", "gamma delta.", "epsilon zeta."],
            [[(0, 0, 5), (1, 0, 5), (2, 0, 7)]],
        )
        capped = coref_variants(doc, 0, ScoringParams(max_coref_variants=1))
        assert len(capped) == 1
        full = coref_variants(doc, 0, ScoringParams())
        assert len(full) == 2  # two other surfaces for the one local mention

    def test_duplicate_surfaces_skipped(self):
        doc = doc_from_sentences(
            "d", ["Smith ran.", "Smith hid."], [[(0, 0, 5), (1, 0, 5)]]
        )
        assert coref_variants(doc, 0, ScoringParams()) == []

    def test_no_local_mentions(self):
        doc = doc_from_sentences(
            "d", ["alpha beta.", "gamma delta.", "plain text."],
            [[(0, 0, 5), (1, 0, 5)]],
        )
        assert coref_variants(doc, 2, ScoringParams()) == []

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            coref_variants(vunipola_doc(), 5, ScoringParams())


class TestCorefStage:
    def test_substitution_wins(self, scorer):
        # claim tokens {the,player,was,ruled,out}: anchor s0 scores 0.4, the
        # substituted variant "The player has been ruled out." scores 0.8.
        doc, c = vunipola_doc(), claim("The player was ruled out.")
        (verdict,) = verdicts(scorer, doc, c, stop="coref")
        score, span = verdict.score, verdict.aligned
        assert score == pytest.approx(0.8)
        assert span.granularity == "coref_sentence"
        assert (span.sentence_start, span.sentence_end) == (0, 0)
        assert span.premise_text == "The player has been ruled out."
        assert span.substitution == Substitution("Billy Vunipola", "The player")

    def test_original_wins_ties(self, scorer):
        # Variant does not change the token overlap; the original must win.
        doc = doc_from_sentences(
            "d", ["alpha beta.", "gamma beta."], [[(0, 6, 10), (1, 6, 10)]]
        )
        c = claim("alpha.")
        (verdict,) = verdicts(scorer, doc, c, stop="coref")
        score, span = verdict.score, verdict.aligned
        assert score == 1.0
        assert span.granularity == "sentence"
        assert span.substitution is None

    def test_no_clusters_degrades_to_sentence_stage(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        c = claim("gamma.")
        (verdict,) = verdicts(scorer, doc, c, stop="coref")
        score, span = verdict.score, verdict.aligned
        assert score == 1.0
        assert span.granularity == "sentence"
        assert (span.sentence_start, span.sentence_end) == (1, 1)

    def test_never_below_sentence_score(self, scorer):
        # All variants are worse; the original stays in the candidate set.
        doc = vunipola_doc()
        c = claim("Billy Vunipola was ruled out.")
        (verdict,) = verdicts(scorer, doc, c, stop="coref")
        assert verdict.sub_scores["coref"] >= verdict.sub_scores["sentence"]


class TestWindowStage:
    def test_window_max_and_start(self, scorer):
        doc = doc_from_sentences("d", ["aa bb.", "cc dd.", "ee ff.", "gg hh."])
        score, span = oracles.window_stage(scorer, doc, claim("ff gg."), 2)
        assert (score, span.sentence_start) == (1.0, 2)

    def test_window_tie_lowest_start(self, scorer):
        doc = doc_from_sentences("d", ["aa bb.", "cc dd.", "ee ff."])
        score, span = oracles.window_stage(scorer, doc, claim("cc."), 2)
        assert (score, span.sentence_start) == (1.0, 0)

    def test_window_of_one_equals_sentence_stage(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta.", "alpha gamma."])
        for text in ("alpha.", "gamma delta.", "missing words."):
            window_score, window_span = oracles.window_stage(scorer, doc, claim(text), 1)
            (sentence,) = verdicts(scorer, doc, claim(text), stop="sentence")
            assert (window_score, window_span.sentence_start) == (
                sentence.score,
                sentence.aligned.sentence_start,
            )

    def test_oversized_window_clamped_to_document(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        score, span = oracles.window_stage(scorer, doc, claim("alpha gamma."), 99)
        assert (score, span.sentence_start) == (1.0, 0)


class TestMultiStage:
    def test_document_wins_ties(self, scorer):
        doc = doc_from_sentences("d", ["aa bb.", "cc dd.", "ee ff.", "gg hh."])
        (verdict,) = verdicts(scorer, doc, claim("ff gg."))
        assert verdict.stage == "multi_granularity"
        score, span = verdict.score, verdict.aligned
        assert score == 1.0
        assert span.granularity == "document"
        assert (span.sentence_start, span.sentence_end) == (0, 3)

    def test_window_wins_strictly(self):
        # "not" in sentence 0 poisons every premise containing it.
        scorer = make_scorer(window_size=2)
        doc = doc_from_sentences("d", ["not aa.", "cc dd.", "ee ff.", "gg hh."])
        (verdict,) = verdicts(scorer, doc, claim("ff gg."))
        assert verdict.stage == "multi_granularity"
        score, span = verdict.score, verdict.aligned
        assert score == 1.0
        assert span.granularity == "window"
        assert (span.sentence_start, span.sentence_end) == (2, 3)
        assert span.premise_text == "ee ff. gg hh."

    def test_single_sentence_document(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta."])
        # The sentence stage passes the gate here, so run the document stage alone.
        score, span = oracles.window_stage(scorer, doc, claim("alpha."), 1)
        assert score == 1.0
        assert span.granularity == "document"
        assert (span.sentence_start, span.sentence_end) == (0, 0)


class TestGatedPipeline:
    def test_gate_pass_stops_at_coref(self):
        scorer = make_scorer(gate_threshold=0.8)
        (verdict,) = verdicts(scorer, vunipola_doc(), claim("The player was ruled out."))
        assert verdict.stage == "coref"
        assert verdict.score == pytest.approx(0.8)
        assert set(verdict.sub_scores) == {"sentence", "coref"}
        assert scorer.backend_calls["window"] == 0
        assert scorer.backend_calls["document"] == 0

    def test_gate_boundary_is_inclusive(self):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        scorer = make_scorer(gate_threshold=1.0)
        (verdict,) = verdicts(scorer, doc, claim("alpha beta."))
        assert verdict.stage == "coref"
        assert verdict.score == 1.0

    def test_gate_miss_substitutes_even_when_lower(self):
        # coref score 2/3 but the whole document flips to contradiction.
        scorer = make_scorer(window_size=5, gate_threshold=0.8)
        doc = doc_from_sentences("d", ["alpha beta gamma.", "delta epsilon not zeta."])
        (verdict,) = verdicts(scorer, doc, claim("alpha beta zeta."))
        assert verdict.stage == "multi_granularity"
        assert verdict.score == pytest.approx(-1.0)
        assert verdict.sub_scores["sentence"] == pytest.approx(2 / 3)
        assert verdict.sub_scores["coref"] == pytest.approx(2 / 3)
        assert verdict.sub_scores["window"] == pytest.approx(-1.0)
        assert verdict.sub_scores["document"] == pytest.approx(-1.0)

    def test_monotone_gate_keeps_better_coref(self):
        backend = MockEntailmentBackend()
        scorer = Scorer(
            backend, ScoringParams(window_size=5, gate_threshold=0.8, monotone_gate=True)
        )
        doc = doc_from_sentences("d", ["alpha beta gamma.", "delta epsilon not zeta."])
        (verdict,) = verdicts(scorer, doc, claim("alpha beta zeta."))
        assert verdict.stage == "coref"
        assert verdict.score == pytest.approx(2 / 3)
        # The multi sub-scores were still computed and reported.
        assert verdict.sub_scores["document"] == pytest.approx(-1.0)

    def test_monotone_gate_never_lowers_the_default_score(self):
        rng = random.Random(13)
        for i in range(40):
            doc, claims, params = random_case(rng, i)
            plain = Scorer(MockEntailmentBackend(), ScoringParams(**params))
            monotone = Scorer(
                MockEntailmentBackend(), ScoringParams(**params, monotone_gate=True)
            )
            for high, low in zip(verdicts(monotone, doc, *claims), verdicts(plain, doc, *claims)):
                assert high.score >= low.score

    def test_verdict_score_consistency(self):
        rng = random.Random(99)
        for i in range(60):
            doc, claims, params = random_case(rng, i)
            scorer = Scorer(MockEntailmentBackend(), ScoringParams(**params))
            for v in verdicts(scorer, doc, *claims):
                assert v.sub_scores["coref"] >= v.sub_scores["sentence"]
                if v.stage == "coref":
                    assert v.score == v.sub_scores["coref"]
                    assert v.score >= params["gate_threshold"]
                    assert set(v.sub_scores) == {"sentence", "coref"}
                else:
                    assert v.stage == "multi_granularity"
                    assert v.score == max(v.sub_scores["window"], v.sub_scores["document"])


class TestBudgetChunking:
    def hyp(self):
        return claim("gggg zzzz.")

    def chunked_doc(self):
        return doc_from_sentences(
            "d", ["aaaa bbbb.", "cccc dddd.", "eeee ffff.", "gggg hhhh."]
        )

    def room(self, backend, hypothesis):
        # What the window stage passes: the budget less the hypothesis's size.
        return backend.budget.max_units - backend.measure(hypothesis)

    def test_chunk_layout(self):
        backend = MockEntailmentBackend(budget=PremiseBudget(32))
        scorer = Scorer(backend, ScoringParams())
        room = self.room(backend, self.hyp().text)
        chunks = scorer._window_premises(self.chunked_doc(), 0, 4, room)
        assert [(start, length) for start, length, _ in chunks] == [(0, 2), (1, 2), (2, 2)]
        assert chunks[2][2] == "eeee ffff. gggg hhhh."

    def test_within_budget_is_single_premise(self):
        backend = MockEntailmentBackend(budget=PremiseBudget(200))
        scorer = Scorer(backend, ScoringParams())
        room = self.room(backend, self.hyp().text)
        chunks = scorer._window_premises(self.chunked_doc(), 0, 4, room)
        assert len(chunks) == 1 and chunks[0][1] == 4

    def test_oversized_single_sentence_raises(self):
        backend = MockEntailmentBackend(budget=PremiseBudget(16))
        scorer = Scorer(backend, ScoringParams())
        doc = doc_from_sentences("d", ["this single sentence is far too long."])
        with pytest.raises(OversizedPremise, match="sentence 0"):
            scorer._window_premises(doc, 0, 1, self.room(backend, "hhhh."))

    def test_window_request_measures_its_hypothesis_once(self):
        measured = Counter()

        class Counting(MockEntailmentBackend):
            def measure(self, text):
                measured[text] += 1
                return super().measure(text)

        scorer = Scorer(Counting(budget=PremiseBudget(32)), ScoringParams())
        candidates, _, _ = scorer._window_request(self.chunked_doc(), self.hyp(), 4)
        assert [c[1:3] for c in candidates] == [(0, 1), (1, 2), (2, 3)]
        assert measured[self.hyp().text] == 1
        # The window and each trial chunk were measured against that one size.
        assert sum(measured.values()) - 1 > len(candidates)

    def test_chunked_document_reports_window_granularity(self):
        backend = MockEntailmentBackend(budget=PremiseBudget(32))
        scorer = Scorer(backend, ScoringParams(window_size=1, gate_threshold=0.8))
        (verdict,) = verdicts(scorer, self.chunked_doc(), self.hyp())
        assert verdict.stage == "multi_granularity"
        assert verdict.sub_scores["document"] == pytest.approx(0.5)
        # The winning premise is a chunk, so the span tells the truth instead
        # of claiming whole-document coverage.
        assert verdict.aligned.granularity == "window"
        assert (verdict.aligned.sentence_start, verdict.aligned.sentence_end) == (2, 3)
        assert verdict.aligned.premise_text == "eeee ffff. gggg hhhh."

    def test_chunking_never_changes_in_budget_results(self):
        # A giant budget and no budget must agree everywhere.
        rng = random.Random(4)
        for i in range(20):
            doc, claims, params = random_case(rng, i)
            free = Scorer(MockEntailmentBackend(), ScoringParams(**params))
            budgeted = Scorer(
                MockEntailmentBackend(budget=PremiseBudget(10_000)),
                ScoringParams(**params),
            )
            assert verdicts(free, doc, *claims) == verdicts(budgeted, doc, *claims)


class TestStageSpans:
    @pytest.mark.parametrize("budget", [None, PremiseBudget(200)], ids=["free", "budget"])
    def test_span_premise_scores_the_stage_score(self, budget):
        # Every stage returns (score, span), and the span's premise is the
        # one that scored: re-scoring it alone gives the same number.
        rng = random.Random(31)
        chunked = 0
        for i in range(60):
            doc, claims, params = random_case(rng, i)
            backend = MockEntailmentBackend(budget=budget)
            scorer = Scorer(backend, ScoringParams(**params))
            n = len(doc.sentences)
            sentence = verdicts(scorer, doc, *claims, stop="sentence")
            coref = verdicts(scorer, doc, *claims, stop="coref")
            for c, *stops in zip(claims, sentence, coref):
                results = [(v.score, v.aligned) for v in stops]
                for k in (params["window_size"], n):
                    results.append(oracles.window_stage(scorer, doc, c, k))
                for score, span in results:
                    assert isinstance(span, AlignedSpan)
                    assert backend.entail_batch([(span.premise_text, c.text)])[0].score == score
                chunked += results[-1][1].granularity == "window"
        # The budget really split some whole-document premises.
        assert (chunked > 0) == (budget is not None)


class TestCountersAndMemo:
    def test_sentence_counts(self):
        scorer = make_scorer()
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        verdicts(scorer, doc, claim("alpha beta."))  # gate passes at 1.0
        assert scorer.backend_calls == {
            "sentence": 2,
            "coref": 0,
            "window": 0,
            "document": 0,
        }

    def test_memo_prevents_recomputation(self):
        scorer = make_scorer()
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        verdicts(scorer, doc, claim("alpha beta."))
        before = dict(scorer.backend_calls)
        verdicts(scorer, doc, claim("alpha beta."))
        assert scorer.backend_calls == before

    def test_swapped_pair_is_a_new_pair(self):
        scorer = make_scorer()
        verdicts(scorer, doc_from_sentences("d1", ["alpha beta."]), claim("gamma delta."))
        verdicts(scorer, doc_from_sentences("d2", ["gamma delta."]), claim("alpha beta."))
        assert scorer.backend_calls["sentence"] == 2

    def test_memo_keeps_no_texts(self):
        scorer = make_scorer(window_size=2, gate_threshold=0.95)
        doc = doc_from_sentences("d", ["aa bb.", "cc dd.", "ee ff."])
        verdicts(scorer, doc, claim("zz yy."), claim("aa cc."))
        # Fixed-width digests: 16 bytes of premise, then 16 of hypothesis.
        keys = [key for block in scorer._memo for key in block]
        assert len(keys) == sum(scorer.backend_calls.values()) == 12
        assert all(isinstance(key, bytes) and len(key) == 32 for key in keys)

    def test_stage_attribution_below_gate(self):
        scorer = make_scorer(window_size=2, gate_threshold=0.95)
        doc = doc_from_sentences("d", ["aa bb.", "cc dd.", "ee ff."])
        verdicts(scorer, doc, claim("zz yy."))
        assert scorer.backend_calls["sentence"] == 3
        assert scorer.backend_calls["coref"] == 0  # no clusters, stage skipped
        assert scorer.backend_calls["window"] == 2  # "aa bb. cc dd.", "cc dd. ee ff."
        assert scorer.backend_calls["document"] == 1

    def test_counters_start_at_zero(self):
        scorer = make_scorer()
        assert all(v == 0 for v in scorer.backend_calls.values())
        verdicts(scorer, doc_from_sentences("d", ["alpha."]), claim("alpha."))
        assert scorer.backend_calls["sentence"] == 1

    def test_debug_log_shape(self, caplog):
        scorer = make_scorer(gate_threshold=0.95, window_size=2)
        doc = doc_from_sentences("d", ["aa bb.", "cc dd.", "ee ff."])
        with caplog.at_level(logging.DEBUG, logger="sumfact.scoring"):
            verdicts(scorer, doc, claim("zz yy.", sid="s9", index=3))
        events = [json.loads(r.getMessage()) for r in caplog.records]
        stages = {e["stage"] for e in events}
        assert {"sentence", "window", "document"} == stages
        for event in events:
            assert event["event"] == "nli_calls"
            assert event["summary_id"] == "s9"
            assert event["claim_index"] == 3
            assert event["pairs"] > 0

    @staticmethod
    def block(u):
        """One summary of two claims against its own two-sentence document:
        four sentence pairs that no other ``block(v)`` uses, and both claims
        pass the gate."""
        sentences = [f"alpha{u} beta.", f"gamma{u} delta."]
        claims = [claim(text, sid=f"s{u}", index=i) for i, text in enumerate(sentences)]
        return [(doc_from_sentences(f"d{u}", sentences), claims, False)]

    def test_memo_holds_the_last_blocks_only(self):
        scorer = make_scorer()
        for u in range(6):
            scorer.score_summaries(self.block(u))
            held = sum(len(block) for block in scorer._memo)
            assert held == 4 * min(u + 1, MEMO_BLOCKS)
        assert sum(scorer.backend_calls.values()) == sum(scorer.pairs_requested.values()) == 24

    # The memo holds the current block's pairs and those of the
    # MEMO_BLOCKS - 1 blocks before it.

    def test_pair_used_again_within_the_bound_is_not_sent(self):
        scorer = make_scorer()
        first = scorer.score_summaries(self.block(0))
        for u in range(1, MEMO_BLOCKS - 1):
            scorer.score_summaries(self.block(u))
        before = dict(scorer.backend_calls)
        assert scorer.score_summaries(self.block(0)) == first
        assert scorer.backend_calls == before
        assert sum(scorer.pairs_requested.values()) == 4 * MEMO_BLOCKS

    def test_pair_used_again_beyond_the_bound_is_sent_again(self):
        scorer = make_scorer()
        first = scorer.score_summaries(self.block(0))
        for u in range(1, MEMO_BLOCKS):
            scorer.score_summaries(self.block(u))
        before = sum(scorer.backend_calls.values())
        assert scorer.score_summaries(self.block(0)) == first
        assert sum(scorer.backend_calls.values()) == before + 4

    def test_memo_hit_keeps_a_pair_for_later_blocks(self):
        # Block 0's pairs, used again in block 1, are still held at block 2.
        scorer = make_scorer()
        scorer.score_summaries(self.block(0))
        scorer.score_summaries(self.block(0) + self.block(1))
        scorer.score_summaries(self.block(2) + self.block(0))
        assert scorer.backend_calls["sentence"] == 12
        assert scorer.pairs_requested["sentence"] == 20


class TestScoreBlocks:
    """Blocks are scored one after another, but the next block's first wave
    is sent while the block before has its last wave in flight."""

    @staticmethod
    def items():
        # Block 0's claim misses the gate, so its last wave is the window
        # and document wave; block 1's first is its sentence wave.
        miss = doc_from_sentences("d0", ["aa bb.", "cc dd.", "ee ff."])
        hit = doc_from_sentences("d1", ["unique gamma.", "other delta."])
        return [[(miss, [claim("zz yy.", sid="s0")], False)], [(hit, [claim("unique gamma.", sid="s1")], False)]]

    def test_next_block_is_sent_before_the_last_wave_is_read(self):
        # Block 0's last batch and block 1's first wait for each other.
        barrier = threading.Barrier(2, timeout=10)

        class Overlapping(MockEntailmentBackend):
            def _infer(self, pairs, table):
                if ("aa bb. cc dd. ee ff.", "zz yy.") in pairs or ("unique gamma.", "unique gamma.") in pairs:
                    barrier.wait()
                return super()._infer(pairs, table)

        blocks = self.items()
        serial = make_scorer(window_size=5)
        expected = [serial.score_summaries(block) for block in blocks]
        scorer = make_scorer(Overlapping(batch_size=64, workers=2), window_size=5)
        assert list(scorer.score_blocks(blocks)) == expected
        assert scorer.backend_calls == serial.backend_calls
        assert scorer.pairs_requested == serial.pairs_requested

    @pytest.mark.parametrize("stop", [None, "coref", "sentence"])
    def test_pair_used_by_every_block_is_sent_once(self, stop):
        # Each block asks for its pairs while the block before still has
        # them in flight, and passes them on to the block after it.
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        block = [(doc, [claim("alpha beta.")], False)]
        alone = make_scorer()
        (expected,) = alone.score_summaries(block, stop=stop)
        for workers in (1, 2):
            scorer = make_scorer(MockEntailmentBackend(workers=workers))
            assert list(scorer.score_blocks([block] * 5, stop=stop)) == [[expected]] * 5
            assert scorer.backend_calls == alone.backend_calls
            assert sum(scorer.pairs_requested.values()) == 5 * sum(alone.pairs_requested.values())

    def test_error_starting_the_next_block_comes_after_this_blocks_reports(self):
        good, _ = self.items()
        scored = make_scorer().score_blocks([good, [(good[0][0], [], False)]])
        (report,) = next(scored)
        assert report.summary_id == "s0"
        with pytest.raises(ValueError, match="at least one claim"):
            next(scored)

    def test_backend_error_in_the_next_block_comes_after_this_blocks_reports(self):
        class FailsOnUnique(MockEntailmentBackend):
            def _infer(self, pairs, table):
                if any(p.startswith("unique") for p, _ in pairs):
                    raise NliBackendError("backend went away")
                return super()._infer(pairs, table)

        for workers in (1, 2):
            scored = make_scorer(FailsOnUnique(workers=workers)).score_blocks(self.items())
            (report,) = next(scored)
            assert report.summary_id == "s0"
            with pytest.raises(NliBackendError, match="backend went away"):
                next(scored)

    def test_closing_early_leaves_nothing_in_flight(self):
        scorer = make_scorer(MockEntailmentBackend(workers=2))
        scored = scorer.score_blocks(self.items() * 2)
        next(scored)
        assert scorer._in_flight
        scored.close()
        assert not scorer._in_flight


class TestSummaryScoring:
    def test_mean_of_verdicts(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        claims = [claim("alpha beta.", index=0), claim("alpha gamma.", index=1)]
        (report,) = scorer.score_summaries([(doc, claims, False)])
        assert report.summary_id == "s1"
        assert len(report.verdicts) == 2
        assert report.score == (report.verdicts[0].score + report.verdicts[1].score) / 2
        assert report.claims_fallback is False

    def test_fallback_flag_passthrough(self, scorer):
        doc = doc_from_sentences("d", ["alpha."])
        (report,) = scorer.score_summaries([(doc, [claim("alpha.")], True)])
        assert report.claims_fallback is True

    def test_empty_claims_rejected(self, scorer):
        with pytest.raises(ValueError):
            scorer.score_summaries([(doc_from_sentences("d", ["alpha."]), [], False)])

    def test_mixed_summary_ids_rejected(self, scorer):
        doc = doc_from_sentences("d", ["alpha."])
        with pytest.raises(ValueError, match="mix"):
            claims = [claim("alpha.", sid="a"), claim("beta.", sid="b")]
            scorer.score_summaries([(doc, claims, False)])


class TestAblations:
    def test_nli_sent_keeps_duplicate_sentences(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        summary = summary_from_sentences("s1", "d", ["Alpha beta.", "Alpha beta."])
        items = build_units([(doc, summary)], None, NoopCorefBackend(), "nli_sent")
        (report,) = score_corpus(items, scorer, "nli_sent")
        assert len(report.verdicts) == 2
        assert [v.claim.text for v in report.verdicts] == ["Alpha beta.", "Alpha beta."]
        assert all(v.stage == "sentence" for v in report.verdicts)

    def test_nli_claim_is_sentence_stage_only(self, scorer):
        doc = vunipola_doc()
        c = claim("The player was ruled out.")
        (report,) = score_corpus([(doc, [c], False)], scorer, "nli_claim")
        (verdict,) = report.verdicts
        assert verdict.stage == "sentence"
        assert verdict.score == pytest.approx(0.4)
        assert set(verdict.sub_scores) == {"sentence"}

    def test_nli_coref_stage_reflects_substitution(self, scorer):
        doc = vunipola_doc()
        c = claim("The player was ruled out.")
        (report,) = score_corpus([(doc, [c], False)], scorer, "nli_coref")
        (verdict,) = report.verdicts
        assert verdict.stage == "coref"
        assert verdict.score == pytest.approx(0.8)
        assert verdict.aligned.substitution is not None
        assert set(verdict.sub_scores) == {"sentence", "coref"}

    def test_nli_coref_without_win_is_sentence_stage(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        (report,) = score_corpus([(doc, [claim("alpha beta.")], False)], scorer, "nli_coref")
        assert report.verdicts[0].stage == "sentence"

    def test_unknown_mode_rejected(self, scorer):
        doc = doc_from_sentences("d", ["alpha."])
        with pytest.raises(ValueError, match="mode"):
            list(score_corpus([(doc, [claim("alpha.")], False)], scorer, "bogus"))

    def test_ablation_requires_claims(self, scorer):
        doc = doc_from_sentences("d", ["alpha."])
        with pytest.raises(ValueError, match="at least one claim"):
            list(score_corpus([(doc, [], False)], scorer, "nli_claim"))


class TestOracleSpotChecks:
    """Small deterministic slice of the acceptance-level oracle comparison."""

    def test_fixed_cases_match_oracle(self):
        rng = random.Random(20240801)
        for i in range(25):
            doc, claims, params = random_case(rng, i)
            scorer = Scorer(MockEntailmentBackend(), ScoringParams(**params))
            for c, verdict in zip(claims, verdicts(scorer, doc, *claims)):
                got = oracles.verdict_to_view(verdict)
                want = oracles.oracle_verdict(doc, c, **params)
                assert got == want, f"case {i}, claim {c.index}"
