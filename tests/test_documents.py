"""Data model construction/validation and the rule-based sentence segmenter."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumfact import (
    Claim,
    CorefCluster,
    Document,
    EmptyDocument,
    Mention,
    RuleSegmenter,
    Sentence,
    Summary,
    build_claims,
    normalize_claim_text,
    segment,
)
from sumfact.documents import _ABBREVIATIONS, _ASCII_WORDS, WORD_RE, words

import oracles
from cases import doc_from_sentences, from_text, random_case


def spans_of(text):
    return [(s.start, s.end, s.text) for s in segment(text)]


class TestSegmenter:
    def test_two_minimal_sentences(self):
        assert spans_of("A. B.") == [(0, 2, "A."), (3, 5, "B.")]

    def test_abbreviation_does_not_split(self):
        assert spans_of("Dr. Smith arrived. He left.") == [
            (0, 18, "Dr. Smith arrived."),
            (19, 27, "He left."),
        ]

    def test_dotted_abbreviation(self):
        assert spans_of("U.S. officials spoke.") == [(0, 21, "U.S. officials spoke.")]

    def test_exclamation_and_question(self):
        texts = [s.text for s in segment("It works! Really? Yes.")]
        assert texts == ["It works!", "Really?", "Yes."]

    def test_closing_quote_stays_attached(self):
        assert spans_of('He said "Stop." Then left.') == [
            (0, 15, 'He said "Stop."'),
            (16, 26, "Then left."),
        ]

    def test_ellipsis_ends_sentence(self):
        assert spans_of("Wait... done.") == [(0, 7, "Wait..."), (8, 13, "done.")]

    def test_no_terminal_is_one_sentence(self):
        assert spans_of("no terminal here") == [(0, 16, "no terminal here")]

    def test_double_space_gap_is_trimmed(self):
        assert spans_of("One.  Two.") == [(0, 4, "One."), (6, 10, "Two.")]

    def test_indices_are_sequential(self):
        assert [s.index for s in segment("A. B. C.")] == [0, 1, 2]

    def test_empty_text_raises(self):
        with pytest.raises(EmptyDocument):
            segment("   \n\t ")

    def test_custom_abbreviations(self):
        seg = RuleSegmenter(abbreviations=["zzz"])
        assert [s.text for s in seg.segment("zzz. more text.")] == ["zzz. more text."]
        # The default list no longer applies.
        assert [s.text for s in seg.segment("Dr. Smith.")] == ["Dr.", "Smith."]

    def test_resegmenting_a_sentence_is_identity(self):
        text = 'Dr. Smith arrived. He said "Stop." Wait... done.'
        for s in segment(text):
            again = segment(s.text)
            assert [(a.start, a.end, a.text) for a in again] == [(0, len(s.text), s.text)]

    def test_random_docs_roundtrip_through_from_text(self):
        rng = random.Random(7)
        for i in range(50):
            doc, _, _ = random_case(rng, i)
            rebuilt = from_text(Document, doc.id, doc.text)
            assert rebuilt.sentences == doc.sentences

    # Words (some of them abbreviations, some behind an opening bracket or
    # quote), then a terminal run, closers and a separator, each possibly empty.
    SEGMENTER_TEXT = st.lists(
        st.tuples(
            st.sampled_from(["", "a", "B", "Mr", "e.g", "St", "(St", '"Mr', "x.y"]),
            st.text(alphabet=".!?", max_size=3),
            st.text(alphabet="\"')]}»”’", max_size=2),
            st.sampled_from(["", " ", "\n", " \t "]),
        ).map("".join),
        max_size=12,
    ).map("".join)

    @settings(max_examples=400, deadline=None)
    @given(SEGMENTER_TEXT)
    @example("Mr. Smith (St.) left! Then e.g. more?\" x.)y. z")
    @example("Mr.. St.! e.g.? end")
    def test_matches_character_loop_reference(self, text):
        expected = oracles.segment_spans(text, _ABBREVIATIONS)
        try:
            got = [(s.index, s.start, s.end, s.text) for s in RuleSegmenter().segment(text)]
        except EmptyDocument:
            assert expected == []
            return
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.text(
            alphabet="abc AB.!?\"'() \n\t",
            min_size=1,
            max_size=120,
        )
    )
    def test_segmentation_invariants(self, text):
        try:
            sentences = segment(text)
        except EmptyDocument:
            assert not text.strip()
            return
        prev_end = 0
        for pos, s in enumerate(sentences):
            assert s.index == pos
            assert 0 <= s.start < s.end <= len(text)
            assert text[s.start : s.end] == s.text
            assert s.text == s.text.strip()
            assert s.start >= prev_end
            assert not text[prev_end : s.start].strip()
            prev_end = s.end
        assert not text[prev_end:].strip()


class TestDocumentModel:
    def test_sentence_slice_must_match(self):
        with pytest.raises(ValueError, match="does not match its span"):
            Document("d", "alpha beta.", (Sentence(0, 0, 11, "alpha geta."),))
        with pytest.raises(ValueError, match=r"span \[0, 12\) out of range"):
            Document("d", "alpha beta.", (Sentence(0, 0, 12, "alpha beta."),))

    def test_nonwhitespace_gap_rejected(self):
        text = "alpha. junk beta."
        with pytest.raises(ValueError, match="between sentences"):
            Document("d", text, (Sentence(0, 0, 6, "alpha."), Sentence(1, 12, 17, "beta.")))

    def test_trailing_junk_rejected(self):
        with pytest.raises(ValueError, match="after the last sentence"):
            Document("d", "alpha. junk", (Sentence(0, 0, 6, "alpha."),))

    def test_overlap_rejected(self):
        # Both spans match their text exactly; only the overlap is wrong.
        text = "alpha beta."
        with pytest.raises(ValueError, match="overlaps"):
            Document("d", text, (Sentence(0, 0, 8, "alpha be"), Sentence(1, 6, 11, "beta.")))

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError, match="sentence index"):
            Document("d", "alpha.", (Sentence(1, 0, 6, "alpha."),))

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyDocument):
            Document("d", "   ", ())
        with pytest.raises(EmptyDocument, match="has no sentences"):
            Document("d", "alpha.", ())

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="id"):
            Document("", "alpha.", (Sentence(0, 0, 6, "alpha."),))
        with pytest.raises(ValueError, match="summary id must be non-empty"):
            Summary("", "d", "alpha.", (Sentence(0, 0, 6, "alpha."),))

    def test_cluster_surface_must_match_span(self):
        text = "alpha beta."
        sentences = (Sentence(0, 0, 11, text),)
        bad = CorefCluster(
            (Mention(0, 0, 5, "alpha"), Mention(0, 6, 10, "XXXX"))
        )
        with pytest.raises(ValueError, match="does not match its span"):
            Document("d", text, sentences, (bad,))

    def test_cluster_sentence_index_bounds(self):
        text = "alpha beta."
        sentences = (Sentence(0, 0, 11, text),)
        bad = CorefCluster((Mention(0, 0, 5, "alpha"), Mention(3, 0, 4, "beta")))
        with pytest.raises(ValueError, match="sentence 3"):
            Document("d", text, sentences, (bad,))

    def test_cluster_span_bounds(self):
        text = "alpha beta."
        sentences = (Sentence(0, 0, 11, text),)
        bad = CorefCluster((Mention(0, 0, 5, "alpha"), Mention(0, 6, 99, "beta.")))
        with pytest.raises(ValueError, match="outside sentence"):
            Document("d", text, sentences, (bad,))

    def test_singleton_cluster_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            CorefCluster((Mention(0, 0, 5, "alpha"),))

    def test_builder_helper_valid(self):
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."], [[(0, 0, 5), (1, 0, 5)]])
        assert doc.text == "alpha beta. gamma delta."
        (cluster,) = doc.coref_clusters
        assert [m.surface for m in cluster.mentions] == ["alpha", "gamma"]

    def test_summary_requires_document_id(self):
        with pytest.raises(ValueError, match="document id"):
            Summary("s", "", "alpha.", (Sentence(0, 0, 6, "alpha."),))

    def test_claim_validation(self):
        with pytest.raises(ValueError, match="empty"):
            Claim("s", 0, "   ")
        with pytest.raises(ValueError, match=">= 0"):
            Claim("s", -1, "text.")


class TestBuildClaims:
    def test_normalizes_whitespace(self):
        assert normalize_claim_text("  a \n  b\tc ") == "a b c"

    def test_dedup_keeps_first_and_reindexes(self):
        claims = build_claims("s", ["A cat.", "  A   cat. ", "", "A dog.", "A cat."])
        assert [(c.index, c.text) for c in claims] == [(0, "A cat."), (1, "A dog.")]
        assert all(c.summary_id == "s" for c in claims)

    def test_all_empty_yields_nothing(self):
        assert build_claims("s", ["", "   "]) == []


# Characters where lowercasing, the regex's idea of a word character or
# ``str.split``'s idea of whitespace is easy to get wrong: ASCII controls
# (``str.split`` takes ``\x1c``-``\x1f`` for whitespace), ``_``, digits,
# final and capital sigma, dotted capital I (lowercases to two characters),
# sharp s, the Kelvin sign (lowercases to ASCII ``k``), curly quotes, and
# Unicode spaces and digits.
TRICKY = "\x00\x1c\x1f\x7f\t\n _-'.09aZΣςσİıßẞ\u212a\u2018\u2019\u201c\u201d\u00a0\u2009\u0663²"


class TestWords:
    @settings(deadline=None)
    @given(
        st.text(
            alphabet=st.one_of(
                st.characters(max_codepoint=127),
                st.sampled_from(TRICKY),
                st.characters(),
            ),
            max_size=40,
        )
    )
    @example("Σίσυφος ΟΔΥΣΣΕΥΣ")
    @example("İstanbul KELVIN \u212a")
    @example("snake_case x\x1fy 3.5 don\u2019t")
    def test_matches_the_regex(self, text):
        assert words(text) == WORD_RE.findall(text.lower())

    def test_ascii_and_other_text(self):
        assert words("The U.S. said\x1fNOT_x 42!") == ["the", "u", "s", "said", "not", "x", "42"]
        # "İ" lowercases to "i" plus a combining dot, which is no word
        # character: lowering before matching drops the dot.
        assert words("Straße İ \u212a") == ["straße", "i", "k"]

    def test_translate_table_agrees_with_the_regex(self):
        assert len(_ASCII_WORDS) == 128
        for code, entry in enumerate(_ASCII_WORDS):
            match = WORD_RE.fullmatch(chr(code).lower())
            assert entry == (match.group() if match else " ")
