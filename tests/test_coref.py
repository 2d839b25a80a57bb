"""The coreference backends. Attaching their clusters to a document, with
singleton filtering and failure degradation, is tested on
``pipeline.attach_clusters`` in ``test_pipeline.py``."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sumfact import Document, HeuristicCorefBackend, NoopCorefBackend
from sumfact.coref import _MENTION_RE

import oracles
from cases import from_text, random_news_corpus

PRONOUNS = {"she", "he", "they", "his", "her", "him", "them", "their"}

# Pronouns in odd case, inside names and beside apostrophes, stop words, and
# characters that are words to ``\w`` but not to ``[A-Za-z]``, joined by
# spaces, non-breaking spaces and hyphens.
HOSTILE_SENTENCES = st.lists(
    st.tuples(
        st.sampled_from([" ", "\xa0", "-"]),
        st.sampled_from(
            ["He", "she", "sHe", "her", "Them", "Anne-her", "O'Brien", "O’Neil", "Tom",
             "The", "According", "İ", "é", "_", "3"]
        ),
    ),
    min_size=1,
    max_size=8,
).map(lambda parts: "".join(sep + token for sep, token in parts)[1:] + ".")

# Capitals, pronouns and words that start like them, apostrophes and hyphens,
# digits, underscores and non-ASCII letters, run together or apart; and
# character soup of the same.
MIXED_TEXT = st.one_of(
    st.lists(
        st.tuples(
            st.sampled_from(["", " ", "\xa0", "\n", "-", "’", "'"]),
            st.sampled_from(
                ["Sheila", "theme", "he's", "He", "her", "hers", "sHe", "they", "Their",
                 "theirs", "them", "thems", "hi", "the", "The", "Tom-he", "O’Neil", "3",
                 "2her", "_", "_he", "he_", "é", "éher", "İ", "Émile", "ßhe", "Ω", "tHEM"]
            ),
        ),
        max_size=12,
    ).map(lambda parts: "".join(sep + token for sep, token in parts)),
    st.text("AHTZhestrmiy ’'-_3éİ\xa0\n", max_size=30),
)


def doc(text):
    return from_text(Document, "d", text)


def mention_view(cluster):
    return [(m.sentence_index, m.start, m.end, m.surface) for m in cluster.mentions]


class TestHeuristicBackend:
    def test_name_with_following_pronouns(self):
        d = doc("Mary went to the market. She bought apples. Her bag was full.")
        clusters = HeuristicCorefBackend().clusters(d)
        assert len(clusters) == 1
        assert mention_view(clusters[0]) == [
            (0, 0, 4, "Mary"),
            (1, 0, 3, "She"),
            (2, 0, 3, "Her"),
        ]

    def test_pronoun_attaches_to_nearest_preceding_name(self):
        d = doc("Alice met Bob. Bob smiled. She waved.")
        clusters = HeuristicCorefBackend().clusters(d)
        # "Alice" stays a singleton (dropped); "Bob" repeats and adopts "She".
        assert len(clusters) == 1
        assert [m.surface for m in clusters[0].mentions] == ["Bob", "Bob", "She"]
        assert [m.sentence_index for m in clusters[0].mentions] == [0, 1, 2]

    def test_exact_surface_grouping_only(self):
        # "Marie Curie" and "Curie" are different surfaces: two singletons, no clusters.
        d = doc("Marie Curie won. Curie spoke.")
        assert HeuristicCorefBackend().clusters(d) == []

    def test_capitalized_stopwords_are_not_names(self):
        d = doc("The river bends. The sky clears.")
        assert HeuristicCorefBackend().clusters(d) == []

    def test_pronoun_without_any_name(self):
        d = doc("She waved. She left.")
        assert HeuristicCorefBackend().clusters(d) == []

    def test_repeated_name_without_pronouns(self):
        d = doc("Bob arrived. Bob left.")
        clusters = HeuristicCorefBackend().clusters(d)
        assert len(clusters) == 1
        assert [m.surface for m in clusters[0].mentions] == ["Bob", "Bob"]

    def test_lowercase_pronoun_matched(self):
        # "Then" is a capitalized stopword, so the only name is "Mary" and the
        # mid-sentence lowercase "her" attaches to it.
        d = doc("Mary spoke. Then people heard her words.")
        clusters = HeuristicCorefBackend().clusters(d)
        assert len(clusters) == 1
        surfaces = [m.surface for m in clusters[0].mentions]
        assert surfaces == ["Mary", "her"]

    def test_max_sentences_prefix_only(self):
        text = "Mary went to the market. She bought apples. Her bag was full."
        d = doc(text)
        two = HeuristicCorefBackend(max_sentences=2).clusters(d)
        assert len(two) == 1
        assert [m.sentence_index for m in two[0].mentions] == [0, 1]
        assert HeuristicCorefBackend(max_sentences=1).clusters(d) == []
        # Each document cut is recorded once, in the order met; one that fits is not.
        backend = HeuristicCorefBackend(max_sentences=2)
        others = from_text(Document, "e", "Bob ran."), from_text(Document, "f", text)
        for document in (d, *others, d):
            backend.clusters(document)
        assert list(backend.truncated) == ["d", "f"]
        backend = HeuristicCorefBackend(max_sentences=3)
        backend.clusters(d)
        assert list(backend.truncated) == []

    def test_max_sentences_validation(self):
        with pytest.raises(ValueError):
            HeuristicCorefBackend(max_sentences=0)

    def test_describe(self):
        assert HeuristicCorefBackend().describe() == "heuristic"
        assert "max_sentences=3" in HeuristicCorefBackend(max_sentences=3).describe()

    def test_mentions_are_valid_spans(self):
        d = doc("Anna Karenina read. She wept. Anna Karenina slept.")
        for cluster in HeuristicCorefBackend().clusters(d):
            for m in cluster.mentions:
                sentence = d.sentences[m.sentence_index]
                assert sentence.text[m.start : m.end] == m.surface

    @staticmethod
    def generated_doc(rng, n):
        """``n`` sentences of names, pronouns in either case, capitalized stop
        words and plain words, in random order."""
        words = ["Maria Lopez", "Tom", "Reed", "Anna Berg", "She", "He", "They",
                 "His", "her", "him", "them", "their", "The", "However", "In",
                 "bridge", "saw", "river", "quiet", "and"]
        sentences = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 8))) + "."
            for _ in range(n)
        ]
        return doc(" ".join(sentences))

    def test_matches_reference_linking_on_generated_documents(self):
        rng = random.Random(17)
        documents = [self.generated_doc(rng, n) for n in [1, 2, 3, 5, 8, 13, 40, 120] * 6]
        # A lowercase pronoun inside a name run is part of the name, not a mention.
        documents.append(doc("Anne-her met Bob. She smiled at him."))
        linked = 0
        for d in documents:
            for cap in (None, 1, 4):
                got = HeuristicCorefBackend(max_sentences=cap).clusters(d)
                assert [mention_view(c) for c in got] == oracles.coref_clusters(d, cap)
                linked += sum(m.surface.lower() in PRONOUNS for c in got for m in c.mentions)
        assert linked > 1000
        assert oracles.coref_clusters(documents[-1]) == [
            [(0, 13, 16, "Bob"), (1, 0, 3, "She"), (1, 14, 17, "him")]
        ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(HOSTILE_SENTENCES, min_size=1, max_size=5), st.sampled_from([None, 1, 2]))
    def test_one_scan_matches_two_pass_rule_on_hostile_text(self, sentences, cap):
        d = doc(" ".join(sentences))
        got = HeuristicCorefBackend(max_sentences=cap).clusters(d)
        assert [mention_view(c) for c in got] == oracles.coref_clusters(d, cap)

    @settings(max_examples=500, deadline=None)
    @given(MIXED_TEXT)
    def test_prefiltered_scan_finds_the_alternation_spans(self, text):
        assert [m.span() for m in _MENTION_RE.finditer(text)] == oracles.mention_spans(text)

    def test_matches_reference_scan_on_news_corpus(self):
        pairs, _ = random_news_corpus(random.Random(23), 80, 1)
        mentions = 0
        for d, _ in pairs:
            got = [mention_view(c) for c in HeuristicCorefBackend().clusters(d)]
            assert got == oracles.coref_clusters(d)
            mentions += sum(map(len, got))
        assert mentions > 300


class TestWrappers:
    def test_noop_backend(self):
        backend = NoopCorefBackend()
        assert backend.clusters(doc("Bob ran. Bob hid.")) == []
        assert backend.describe() == "none"
        assert list(backend.truncated) == []
