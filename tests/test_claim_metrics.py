"""Unigram-overlap F1 and the easiness precision/recall/F1 family."""

import pytest
from hypothesis import given, strategies as st

from sumfact import (
    EmptyClaimSet,
    InputError,
    easiness_f1,
    easiness_precision,
    easiness_recall,
    evaluate_claim_sets,
    rouge1_f1,
)

TEXTS = st.text(alphabet="ab cd", max_size=20)


class TestRouge1F1:
    def test_partial_overlap(self):
        # overlap {the, cat}: P=2/3, R=2/4 -> F1 = 4/7
        assert rouge1_f1("the cat sat", "the cat ran here") == pytest.approx(4 / 7)

    def test_identical(self):
        assert rouge1_f1("A b C", "a B c") == 1.0

    def test_disjoint(self):
        assert rouge1_f1("alpha beta", "gamma delta") == 0.0

    def test_empty_side(self):
        assert rouge1_f1("", "words here") == 0.0
        assert rouge1_f1("words here", "") == 0.0
        assert rouge1_f1("...", "words") == 0.0  # no tokens after splitting

    def test_multiset_counts_are_clipped(self):
        # overlap min(3,1)=1: P=1/3, R=1 -> F1 = 0.5
        assert rouge1_f1("a a a", "a") == 0.5

    def test_punctuation_and_case_ignored(self):
        assert rouge1_f1("The cat, sat!", "the CAT sat") == 1.0

    @given(TEXTS, TEXTS)
    def test_symmetric(self, a, b):
        assert rouge1_f1(a, b) == rouge1_f1(b, a)

    @given(TEXTS, TEXTS)
    def test_bounded(self, a, b):
        assert 0.0 <= rouge1_f1(a, b) <= 1.0

    @given(st.text(alphabet="ab cd", min_size=1).filter(lambda t: t.strip()))
    def test_self_similarity_is_one(self, a):
        assert rouge1_f1(a, a) == 1.0


SYS = ["the cat sat", "a dog"]
HUM = ["the cat ran here", "a dog barks"]


class TestEasiness:
    def test_precision_single_pair(self):
        assert easiness_precision(["the cat sat"], ["the cat ran here"]) == pytest.approx(4 / 7)

    def test_precision_averages_best_matches(self):
        assert easiness_precision(SYS, HUM) == pytest.approx(24 / 35)

    def test_recall_swaps_roles(self):
        assert easiness_recall(SYS, HUM) == easiness_precision(HUM, SYS)

    def test_f1_single_pair(self):
        assert easiness_f1(["the cat sat"], ["the cat ran here"]) == pytest.approx(4 / 7)

    def test_f1_zero_when_no_overlap(self):
        assert easiness_f1(["alpha"], ["beta"]) == 0.0

    def test_empty_sets_rejected(self):
        with pytest.raises(EmptyClaimSet, match="system"):
            easiness_precision([], ["x"])
        with pytest.raises(EmptyClaimSet, match="human"):
            easiness_recall(["x"], [])
        with pytest.raises(EmptyClaimSet):
            easiness_f1([], [])

    @given(
        st.lists(TEXTS, min_size=1, max_size=4),
        st.lists(TEXTS, min_size=1, max_size=4),
    )
    def test_recall_precision_duality(self, s, h):
        assert easiness_recall(s, h) == easiness_precision(h, s)
        assert 0.0 <= easiness_f1(s, h) <= 1.0

    @given(
        st.lists(TEXTS, min_size=1, max_size=4),
        st.lists(TEXTS, min_size=1, max_size=4),
    )
    def test_equal_to_pairwise_rouge(self, s, h):
        precision = sum(max(rouge1_f1(a, b) for b in h) for a in s) / len(s)
        recall = sum(max(rouge1_f1(a, b) for a in s) for b in h) / len(h)
        assert easiness_precision(s, h) == precision
        assert easiness_recall(s, h) == recall
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        assert easiness_f1(s, h) == f1
        assert evaluate_claim_sets({"x": s}, {"x": h})["summaries"]["x"] == {
            "easiness_p": precision,
            "easiness_r": recall,
            "easiness_f1": f1,
        }


class TestEvaluateClaimSets:
    def fixture(self):
        system = {"a": ["the cat sat"], "b": ["a dog", "x y"]}
        human = {"a": ["the cat ran here"], "b": ["a dog barks"]}
        return system, human

    def test_corpus_values(self):
        report = evaluate_claim_sets(*self.fixture())
        assert report["easiness_p"] == pytest.approx(17 / 35)
        assert report["easiness_r"] == pytest.approx(24 / 35)
        assert report["easiness_f1"] == pytest.approx(816 / 1435)
        assert report["easiness_f1_per_summary"] == pytest.approx(58 / 105)

    def test_per_summary_rows(self):
        report = evaluate_claim_sets(*self.fixture())
        assert list(report["summaries"]) == ["a", "b"]
        row = report["summaries"]["b"]
        assert row["easiness_p"] == pytest.approx(2 / 5)
        assert row["easiness_r"] == pytest.approx(4 / 5)
        assert row["easiness_f1"] == pytest.approx(8 / 15)

    def test_summaries_sorted(self):
        system = {"z": ["a"], "a": ["a"], "m": ["a"]}
        human = {"m": ["a"], "z": ["a"], "a": ["a"]}
        report = evaluate_claim_sets(system, human)
        assert list(report["summaries"]) == ["a", "m", "z"]

    def test_id_mismatch_names_both_sides(self):
        system = {"a": ["x"], "c": ["x"]}
        human = {"a": ["x"], "b": ["x"]}
        with pytest.raises(InputError) as err:
            evaluate_claim_sets(system, human)
        assert "missing from system file: b" in str(err.value)
        assert "missing from human file: c" in str(err.value)

    def test_inner_empty_set_rejected(self):
        with pytest.raises(EmptyClaimSet, match="'a'"):
            evaluate_claim_sets({"a": []}, {"a": ["x"]})

    def test_outer_empty_rejected(self):
        with pytest.raises(EmptyClaimSet):
            evaluate_claim_sets({}, {})

    def test_perfect_extraction(self):
        claims = {"s": ["the tower fell", "rain came"]}
        report = evaluate_claim_sets(claims, dict(claims))
        assert report["easiness_p"] == 1.0
        assert report["easiness_r"] == 1.0
        assert report["easiness_f1"] == 1.0
