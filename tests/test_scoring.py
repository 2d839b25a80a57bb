"""Staged claim scoring: per-stage operators, gating, tie-breaks, chunking."""

import json
import logging
import random
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumfact import (
    Claim,
    ClaimCacheMiss,
    MockEntailmentBackend,
    NliBackendError,
    NoopCorefBackend,
    OversizedPremise,
    Scorer,
    ScoringParams,
    Substitution,
    coref_variants,
)
from sumfact.nli import Inference
from sumfact.pipeline import score_corpus
from sumfact.scoring import AlignedSpan, WindowTable

import oracles
from cases import (
    RecordingBackend,
    check_cut,
    doc_from_sentences,
    random_case,
    score_block,
    summary_from_sentences,
)


def claim(text, sid="s1", index=0):
    return Claim(sid, index, text)


def make_scorer(backend=None, **params):
    return Scorer(backend or MockEntailmentBackend(), ScoringParams(**params))


def verdicts(scorer, doc, *claims, stop=None):
    """Verdicts of ``claims``, scored as one summary."""
    return score_block(scorer, [(doc, claims, False)], stop=stop)[0].verdicts


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
        assert mock_backend.submit([("alpha beta", "alpha gamma")]).scores()[0] == 0.5


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
        return backend.max_units - backend.measure(hypothesis)

    @staticmethod
    def runs(candidates):
        """``(start, length)`` of each candidate's sentence run."""
        return [(start, end - start + 1) for _, start, end, *_ in candidates]

    def test_chunk_layout(self):
        backend = MockEntailmentBackend(max_units=32)
        room = self.room(backend, self.hyp().text)
        chunks = WindowTable(self.chunked_doc(), backend, {}).candidates(4, room)
        assert self.runs(chunks) == [(0, 2), (1, 2), (2, 2)]
        assert chunks[2][3] == "eeee ffff. gggg hhhh."

    def test_within_budget_is_single_premise(self):
        backend = MockEntailmentBackend(max_units=200)
        room = self.room(backend, self.hyp().text)
        chunks = WindowTable(self.chunked_doc(), backend, {}).candidates(4, room)
        assert len(chunks) == 1 and self.runs(chunks)[0][1] == 4

    def test_oversized_single_sentence_raises(self):
        backend = MockEntailmentBackend(max_units=16)
        doc = doc_from_sentences("d", ["this single sentence is far too long."])
        with pytest.raises(OversizedPremise, match="sentence 0"):
            WindowTable(doc, backend, {}).candidates(1, self.room(backend, "hhhh."))

    def test_window_request_measures_its_hypothesis_once(self):
        measured = Counter()

        class Counting(MockEntailmentBackend):
            def measure(self, text):
                measured[text] += 1
                return super().measure(text)

        scorer = Scorer(Counting(max_units=32), ScoringParams())
        # The window request (k = 5, clamped to 4, so labelled a document) and the
        # document request.
        sizes = {}
        window, document = scorer._window_requests([(self.chunked_doc(), self.hyp())], sizes)
        assert window[2] == document[2] == "document"
        candidates = window[0]
        assert [c[1:3] for c in candidates] == [(0, 1), (1, 2), (2, 3)]
        assert document[0] is candidates
        assert measured[self.hyp().text] == 1
        # The window and each trial chunk were measured against that one size.
        assert sum(measured.values()) - 1 > len(candidates)
        # Each run was measured once, for both requests.
        assert max(measured.values()) == 1
        # The sizes handed on hold the claim and every premise, as measured.
        assert {c[3] for c in candidates} | {self.hyp().text} <= set(sizes) <= set(measured)
        assert sizes == {text: len(text) for text in sizes}

    def test_window_wave_measures_no_text_twice(self):
        class Logging(MockEntailmentBackend):
            """The mock, logging each text it measures and, as None, each call."""

            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.log = []

            def measure(self, text):
                self.log.append(text)
                return super().measure(text)

            def submit(self, pairs, sizes=None, bound=None):
                inference = super().submit(pairs, sizes, bound)
                self.log.append(None)
                return inference

        backend = Logging(max_units=32)
        scorer = Scorer(backend, ScoringParams(window_size=2, gate_threshold=0.99))
        other = doc_from_sentences("e", ["aaaa cccc.", "gggg zzzz.", "eeee bbbb."])
        claims = [claim("gggg zzzz."), claim("cccc bbbb.", index=1)]
        items = [(self.chunked_doc(), claims, False), (other, [claim("zzzz aaaa.", "s2")], False)]
        reports = score_block(scorer, items)
        assert all(v.stage == "multi_granularity" for r in reports for v in r.verdicts)
        # No coreference here: a sentence wave, then the window wave, whose
        # window tables and backend call measure these texts.
        calls = [i for i, text in enumerate(backend.log) if text is None]
        assert len(calls) == 2 and calls[-1] == len(backend.log) - 1
        window_wave = backend.log[calls[0] + 1 : calls[1]]
        assert window_wave and max(Counter(window_wave).values()) == 1

    def test_block_measures_each_text_once(self):
        # A block's waves share one map of sizes: the coref and window waves
        # find there what the sentence wave's budget check measured.
        measured = Counter()

        class Counting(MockEntailmentBackend):
            def measure(self, text):
                measured[text] += 1
                return super().measure(text)

        scorer = Scorer(
            Counting(max_units=40), ScoringParams(window_size=2, gate_threshold=0.99)
        )
        doc = doc_from_sentences(
            "d", ["aaaa bbbb.", "Tom cccc.", "He dddd eeee."], clusters=[[(1, 0, 3), (2, 0, 2)]]
        )
        items = [
            (doc, [claim("Tom dddd eeee gggg."), claim("cccc bbbb.", index=1)], False),
            (self.chunked_doc(), [self.hyp()], False),
        ]
        reports = score_block(scorer, items)
        judged = [v for r in reports for v in r.verdicts]
        # All three waves ran: a coref variant won, and every claim missed the gate.
        assert any(v.sub_scores["coref"] > v.sub_scores["sentence"] for v in judged)
        assert all(v.stage == "multi_granularity" for v in judged)
        texts = {s.text for d, _, _ in items for s in d.sentences}
        texts |= {c.text for _, claims, _ in items for c in claims}
        assert texts <= set(measured)
        assert max(measured.values()) == 1

    def test_chunked_document_reports_window_granularity(self):
        backend = MockEntailmentBackend(max_units=32)
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
                MockEntailmentBackend(max_units=10_000),
                ScoringParams(**params),
            )
            assert verdicts(free, doc, *claims) == verdicts(budgeted, doc, *claims)


class WordCount(MockEntailmentBackend):
    """The mock, measuring texts in words."""

    def measure(self, text):
        return len(text.split())


class DistinctWords(MockEntailmentBackend):
    """The mock, measuring texts in distinct words: a run never shrinks when a
    sentence is added, but is often smaller than its sentences' sizes summed."""

    def measure(self, text):
        return len(set(text.split()))


_WORDS = st.sampled_from(
    "aa bb cc dddd eeeeee f gg hhhhhhh ii jjj kkkk l mm nnnnn oo ppp q rr sss tttt".split()
)
# A backend and its budget (None: no budget), in units that make windows chunk.
_BUDGETED = st.one_of(
    st.tuples(st.just(MockEntailmentBackend), st.one_of(st.none(), st.integers(16, 140))),
    st.tuples(
        st.sampled_from([WordCount, DistinctWords]), st.one_of(st.none(), st.integers(16, 30))
    ),
)
_SENTENCES = st.lists(
    st.lists(_WORDS, min_size=1, max_size=9).map(lambda ws: " ".join(ws) + "."),
    min_size=1,
    max_size=14,
)


class TestWindowTable:
    """A document's window table gives, for every claim that uses it, the
    candidates a straight-line rebuild joins and chunks afresh."""

    @settings(max_examples=300, deadline=None)
    @given(
        _SENTENCES,
        st.integers(1, 16),
        _BUDGETED,
        st.lists(st.lists(_WORDS, min_size=1, max_size=12).map(" ".join), min_size=1, max_size=4),
    )
    # A room of 15 distinct words: fitting a window walks up past the first
    # guess, which random draws reach only by chance.
    @example(
        ["aa bb cc dddd eeeeee f gg hhhhhhh."] * 3 + ["ii jjj kkkk l mm nnnnn oo ppp q."],
        4,
        (DistinctWords, 16),
        ["rr"],
    )
    def test_candidates_equal_a_straight_line_rebuild(self, sentences, k, budgeted, claims):
        kind, budget = budgeted
        backend = kind(max_units=budget)
        doc = doc_from_sentences("d", sentences)
        # One table serves every claim, as in a block's window wave.
        table = WindowTable(doc, backend, {})
        for text in claims:
            room = None if budget is None else budget - backend.measure(text)
            assert table.room(text) == room
            expected = oracles.window_candidates(sentences, k, room, backend.measure)
            try:
                candidates = table.candidates(min(k, table.n), room)
            except OversizedPremise as exc:
                assert expected[0] == "oversized", str(exc)
                assert str(exc).startswith(f"sentence {expected[1]} alone exceeds")
                continue
            assert candidates == expected

    @pytest.mark.parametrize("kind", [MockEntailmentBackend, WordCount, DistinctWords])
    def test_single_oversized_sentence_raises(self, kind):
        # Sentence 1 is over the room in characters, words and distinct words.
        sentences = ["aa bb.", " ".join(f"w{i}" for i in range(20)) + ".", "aa."]
        backend = kind(max_units=16)
        table = WindowTable(doc_from_sentences("d", sentences), backend, {})
        room = table.room("aa bb")
        assert oracles.window_candidates(sentences, 2, room, backend.measure) == ("oversized", 1)
        with pytest.raises(OversizedPremise, match="sentence 1 alone exceeds"):
            table.candidates(2, room)


class TestStageSpans:
    @pytest.mark.parametrize("budget", [None, 200], ids=["free", "budget"])
    def test_span_premise_scores_the_stage_score(self, budget):
        # Every stage returns (score, span), and the span's premise is the
        # one that scored: re-scoring it alone gives the same number.
        rng = random.Random(31)
        chunked = 0
        for i in range(60):
            doc, claims, params = random_case(rng, i)
            backend = MockEntailmentBackend(max_units=budget)
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
                    assert backend.submit([(span.premise_text, c.text)]).scores()[0] == score
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
        # Two summaries of one block ask for the same two pairs.
        scorer = make_scorer()
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        items = [(doc, [claim("alpha beta.", sid=sid)], False) for sid in ("s1", "s2")]
        first, second = score_block(scorer, items)
        assert first.verdicts[0].score == second.verdicts[0].score == 1.0
        assert scorer.pairs_requested["sentence"] == 4
        assert scorer.backend_calls == {"sentence": 2, "coref": 0, "window": 0, "document": 0}

    def test_window_wave_reuses_the_sentence_waves_pair(self):
        # A one-sentence document is its own window: the window wave asks
        # for the sentence wave's pair, twice (both as the document), and
        # sends nothing.
        backend = RecordingBackend()
        scorer = make_scorer(backend, gate_threshold=0.95)
        doc = doc_from_sentences("d", ["alpha beta."])
        (verdict,) = verdicts(scorer, doc, claim("alpha gamma."))
        assert verdict.stage == "multi_granularity"
        assert verdict.sub_scores == {"sentence": 0.5, "coref": 0.5, "window": 0.5, "document": 0.5}
        assert backend.sent == [("alpha beta.", "alpha gamma.")]
        assert scorer.pairs_requested == {"sentence": 1, "coref": 0, "window": 0, "document": 2}
        assert scorer.backend_calls == {"sentence": 1, "coref": 0, "window": 0, "document": 0}

    def test_swapped_pair_is_a_new_pair(self):
        scorer = make_scorer()
        verdicts(scorer, doc_from_sentences("d1", ["alpha beta."]), claim("gamma delta."))
        verdicts(scorer, doc_from_sentences("d2", ["gamma delta."]), claim("alpha beta."))
        assert scorer.backend_calls["sentence"] == 2

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

    # The memo lives for one block: a pair used again within the block is
    # not sent again, and one used again in a later block is.

    def test_memo_holds_the_last_blocks_only(self):
        scorer = make_scorer()
        memos = []
        wave = scorer._wave

        def spy(requests, last, memo, sizes, bound):
            memos.append(memo)
            return wave(requests, last, memo, sizes, bound)

        scorer._wave = spy
        for u in range(6):
            ((doc, claims, _),) = self.block(u)
            score_block(scorer, self.block(u))
            held = {(premise, claim) for claim, known in memos[-1].items() for premise in known}
            assert held == {(s.text, c.text) for s in doc.sentences for c in claims}
        assert len({id(memo) for memo in memos}) == 6
        assert sum(scorer.backend_calls.values()) == sum(scorer.pairs_requested.values()) == 24

    def test_pair_used_again_within_the_bound_is_not_sent(self):
        alone = [score_block(make_scorer(), self.block(u))[0] for u in (0, 1)]
        scorer = make_scorer()
        reports = score_block(scorer, self.block(0) + self.block(1) + self.block(0))
        assert reports == alone + alone[:1]
        assert scorer.backend_calls["sentence"] == 8
        assert scorer.pairs_requested["sentence"] == 12

    def test_pair_used_again_beyond_the_bound_is_sent_again(self):
        backend = RecordingBackend()
        scorer = make_scorer(backend)
        first = score_block(scorer, self.block(0))
        sent = list(backend.sent)
        assert score_block(scorer, self.block(0)) == first
        assert backend.sent == sent * 2
        assert sum(scorer.backend_calls.values()) == sum(scorer.pairs_requested.values()) == 8


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
        expected = [score_block(serial, block) for block in blocks]
        scorer = make_scorer(Overlapping(batch_size=64, workers=2), window_size=5)
        assert list(scorer.score_blocks(blocks)) == expected
        assert scorer.backend_calls == serial.backend_calls
        assert scorer.pairs_requested == serial.pairs_requested

    @pytest.mark.parametrize("stop", [None, "coref", "sentence"])
    def test_pair_used_by_every_block_is_sent_by_every_block(self, stop):
        # Each block asks for its pairs while the block before may still
        # have them in flight, and sends them again: the memo lives for one
        # block, so the reports and counters do not depend on the workers.
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        block = [(doc, [claim("alpha beta.")], False)]
        alone = make_scorer()
        (expected,) = score_block(alone, block, stop=stop)
        for workers in (1, 3):
            scorer = make_scorer(MockEntailmentBackend(workers=workers))
            assert list(scorer.score_blocks([block] * 5, stop=stop)) == [[expected]] * 5
            for counter, once in (
                (scorer.backend_calls, alone.backend_calls),
                (scorer.pairs_requested, alone.pairs_requested),
            ):
                assert counter == {stage: 5 * n for stage, n in once.items()}

    def test_error_starting_the_next_block_comes_after_this_blocks_reports(self):
        good, _ = self.items()
        scored = make_scorer().score_blocks([good, [(good[0][0], [], False)]])
        (report,) = next(scored)
        assert report.summary_id == "s0"
        with pytest.raises(ValueError, match="at least one claim"):
            next(scored)

    def test_error_taking_the_next_block_comes_after_this_blocks_reports(self):
        good, _ = self.items()

        def blocks():
            yield good
            raise ClaimCacheMiss("no claims for the next block")

        scored = make_scorer().score_blocks(blocks())
        (report,) = next(scored)
        assert report.summary_id == "s0"
        with pytest.raises(ClaimCacheMiss, match="no claims for the next block"):
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
        unread = []

        class Tracked(Inference):
            def scores(self):
                unread.remove(self)
                return super().scores()

            def cancel(self):
                if self in unread:
                    unread.remove(self)
                super().cancel()

        class Tracking(MockEntailmentBackend):
            def submit(self, pairs, sizes=None, bound=None):
                unread.append(Tracked(self, pairs, sizes, bound))
                return unread[-1]

        scored = make_scorer(Tracking(workers=2)).score_blocks(self.items() * 2)
        next(scored)
        assert len(unread) == 1  # the next block's first wave
        scored.close()
        assert not unread


def bits(reports):
    """Every score of ``reports``, bit for bit."""
    return [
        [r.score.hex()]
        + [(v.score.hex(), {k: s.hex() for k, s in v.sub_scores.items()}) for v in r.verdicts]
        for r in reports
    ]


class TestBlockCap:
    """Without a budget, every wave of a full-pipeline block caps its batches
    at ``batch_size`` pairs of the block's largest pair (a whole document
    with its claim) or of the wave's own longest pair, if longer; under an
    ablation stop each wave keeps its own cap."""

    @staticmethod
    def items(seed, n_items):
        rng = random.Random(seed)
        cases = [random_case(rng, i) for i in range(n_items)]
        return [(doc, claims, False) for doc, claims, _ in cases], ScoringParams(**cases[0][2])

    @staticmethod
    def bound(items):
        return max(len(doc.text) + len(c.text) for doc, claims, _ in items for c in claims)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 40))
    def test_every_batch_is_within_the_blocks_cap(self, seed, n_items, batch_size):
        items, params = self.items(seed, n_items)
        backend = RecordingBackend(batch_size=batch_size)
        score_block(Scorer(backend, params), items)
        bound = self.bound(items)
        # Every sentence, window and document premise is a run of sentences.
        runs = set()
        for doc, _, _ in items:
            texts = [s.text for s in doc.sentences]
            n = len(texts)
            runs |= {" ".join(texts[a:b]) for a in range(n) for b in range(a + 1, n + 1)}
        for premise, hypothesis in backend.sent:
            if premise in runs:
                assert len(premise) + len(hypothesis) <= bound
        for call in backend.calls:
            check_cut(call, batch_size, bound=bound)

    def test_reports_equal_scoring_each_item_alone(self):
        for seed in range(4):
            items, params = self.items(seed, 6)
            alone = [score_block(Scorer(MockEntailmentBackend(), params), [it])[0] for it in items]
            for batch_size in (1, 3, 32):
                for workers in (1, 2):
                    backend = MockEntailmentBackend(batch_size=batch_size, workers=workers)
                    try:
                        reports = score_block(Scorer(backend, params), items)
                    finally:
                        if backend._executor is not None:
                            backend._executor.shutdown(wait=True)
                    assert reports == alone, (seed, batch_size, workers)
                    assert bits(reports) == bits(alone), (seed, batch_size, workers)

    def test_coref_variant_longer_than_its_document(self):
        # A one-sentence document whose mention "He" has a long other
        # surface: its one variant outgrows the document, so the coref
        # wave's cap is its own longest pair, not the block's bound.
        doc = doc_from_sentences(
            "d", ["He met Alexander Montgomery Smithson."], [[(0, 0, 2), (0, 7, 36)]]
        )
        hypothesis = claim("Alexander Montgomery Smithson met someone.")
        params = {"gate_threshold": 0.99, "max_coref_variants": 1}
        backend = RecordingBackend(batch_size=1)
        (verdict,) = verdicts(make_scorer(backend, **params), doc, hypothesis)
        bound = len(doc.text) + len(hypothesis.text)
        # The anchor is a memo hit, so the coref wave sends the variant alone.
        variant = "Alexander Montgomery Smithson met Alexander Montgomery Smithson."
        assert [(variant, hypothesis.text)] in backend.calls[1]
        assert len(variant) + len(hypothesis.text) > bound
        assert all(backend.batches)
        for call in backend.calls:
            check_cut(call, 1, bound=bound)
        wide = MockEntailmentBackend(batch_size=32)
        assert verdicts(make_scorer(wide, **params), doc, hypothesis) == (verdict,)

    @pytest.mark.parametrize("stop", ["sentence", "coref"])
    def test_ablation_stops_keep_each_waves_own_cap(self, stop):
        # Short sentences in long documents: the block's bound would give
        # far larger batches, but these blocks never send a document pair.
        items, params = self.items(7, 6)
        backend = RecordingBackend(batch_size=2)
        score_block(Scorer(backend, params), items, stop=stop)
        bound = self.bound(items)
        for call in backend.calls:
            assert max(len(p) + len(h) for batch in call for p, h in batch) < bound
            check_cut(call, 2)
        assert any(len(call) > 1 for call in backend.calls)


class TestSummaryScoring:
    def test_mean_of_verdicts(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        claims = [claim("alpha beta.", index=0), claim("alpha gamma.", index=1)]
        (report,) = score_block(scorer, [(doc, claims, False)])
        assert report.summary_id == "s1"
        assert len(report.verdicts) == 2
        assert report.score == (report.verdicts[0].score + report.verdicts[1].score) / 2
        assert report.claims_fallback is False

    def test_fallback_flag_passthrough(self, scorer):
        doc = doc_from_sentences("d", ["alpha."])
        (report,) = score_block(scorer, [(doc, [claim("alpha.")], True)])
        assert report.claims_fallback is True

    def test_empty_claims_rejected(self, scorer):
        with pytest.raises(ValueError):
            score_block(scorer, [(doc_from_sentences("d", ["alpha."]), [], False)])

    def test_mixed_summary_ids_rejected(self, scorer):
        doc = doc_from_sentences("d", ["alpha."])
        with pytest.raises(ValueError, match="mix"):
            claims = [claim("alpha.", sid="a"), claim("beta.", sid="b")]
            score_block(scorer, [(doc, claims, False)])


class TestAblations:
    def test_nli_sent_keeps_duplicate_sentences(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        summary = summary_from_sentences("s1", "d", ["Alpha beta.", "Alpha beta."])
        (report,) = score_corpus([(doc, summary)], scorer, None, NoopCorefBackend(), "nli_sent")
        assert len(report.verdicts) == 2
        assert [v.claim.text for v in report.verdicts] == ["Alpha beta.", "Alpha beta."]
        assert all(v.stage == "sentence" for v in report.verdicts)

    @staticmethod
    def scored(scorer, doc, text, mode):
        """The report of a one-sentence summary, whose sentence is its one claim."""
        summary = summary_from_sentences("s1", doc.id, [text])
        (report,) = score_corpus([(doc, summary)], scorer, None, NoopCorefBackend(), mode)
        return report

    def test_nli_claim_is_sentence_stage_only(self, scorer):
        report = self.scored(scorer, vunipola_doc(), "The player was ruled out.", "nli_claim")
        (verdict,) = report.verdicts
        assert verdict.stage == "sentence"
        assert verdict.score == pytest.approx(0.4)
        assert set(verdict.sub_scores) == {"sentence"}

    def test_nli_coref_stage_reflects_substitution(self, scorer):
        report = self.scored(scorer, vunipola_doc(), "The player was ruled out.", "nli_coref")
        (verdict,) = report.verdicts
        assert verdict.stage == "coref"
        assert verdict.score == pytest.approx(0.8)
        assert verdict.aligned.substitution is not None
        assert set(verdict.sub_scores) == {"sentence", "coref"}

    def test_nli_coref_without_win_is_sentence_stage(self, scorer):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        report = self.scored(scorer, doc, "alpha beta.", "nli_coref")
        assert report.verdicts[0].stage == "sentence"

    def test_unknown_mode_rejected(self, scorer):
        with pytest.raises(ValueError, match="mode"):
            self.scored(scorer, doc_from_sentences("d", ["alpha."]), "alpha.", "bogus")

    def test_ablation_requires_claims(self, scorer):
        doc = doc_from_sentences("d", ["alpha."])
        with pytest.raises(ValueError, match="at least one claim"):
            score_block(scorer, [(doc, [], False)], stop="sentence")


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
