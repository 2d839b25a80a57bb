"""Entailment triple invariants and the three backend implementations."""

import dataclasses
import math
import threading
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfact import (
    EntailmentTriple,
    LocalEntailmentBackend,
    MockEntailmentBackend,
    NliBackendError,
    OversizedPremise,
    PremiseBudget,
    RemoteEntailmentBackend,
)
from sumfact.nli import TextTable

import oracles
from stubserver import StubServer, dead_url


class TestEntailmentTriple:
    def test_score_is_signed_difference(self):
        t = EntailmentTriple(0.5, 0.3, 0.2)
        assert t.score == pytest.approx(0.3)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            EntailmentTriple(-0.1, 0.6, 0.5)
        with pytest.raises(ValueError, match="outside"):
            EntailmentTriple(1.1, 0.0, 0.0)
        with pytest.raises(ValueError, match="outside"):
            EntailmentTriple(float("nan"), 0.5, 0.5)

    def test_large_sum_deviation_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            EntailmentTriple(0.5, 0.3, 0.1)  # sums to 0.9
        with pytest.raises(ValueError, match="sum"):
            EntailmentTriple(0.5, 0.5, 0.1)  # sums to 1.1

    def test_small_deviation_renormalized(self):
        t = EntailmentTriple(0.2, 0.2, 0.6005)
        total = 0.2 + 0.2 + 0.6005
        assert t.entailment == 0.2 / total
        assert t.contradiction == 0.6005 / total
        assert t.entailment + t.neutral + t.contradiction == pytest.approx(1.0, abs=1e-12)

    def test_exact_sum_left_untouched(self):
        t = EntailmentTriple(0.25, 0.5, 0.25)
        assert (t.entailment, t.neutral, t.contradiction) == (0.25, 0.5, 0.25)

    def test_frozen(self):
        t = EntailmentTriple(1.0, 0.0, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.entailment = 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_renormalized_sum_close_to_one(self, e, n):
        c = 1.0 - e - n
        if not (0.0 <= c <= 1.0):
            return
        t = EntailmentTriple(e, n, c)
        assert abs(t.entailment + t.neutral + t.contradiction - 1.0) <= 1e-9
        assert -1.0 <= t.score <= 1.0


class TestMockBackend:
    def test_full_overlap(self, mock_backend):
        t = mock_backend.entail_batch([("alpha beta gamma", "alpha beta")])[0]
        assert (t.entailment, t.neutral, t.contradiction) == (1.0, 0.0, 0.0)

    def test_half_overlap(self, mock_backend):
        t = mock_backend.entail_batch([("alpha beta", "alpha gamma")])[0]
        assert t.entailment == 0.5 and t.score == 0.5

    def test_negation_flips_to_contradiction(self, mock_backend):
        t = mock_backend.entail_batch([("it is not alpha", "it is alpha")])[0]
        assert (t.entailment, t.neutral, t.contradiction) == (0.0, 0.0, 1.0)
        assert t.score == -1.0

    def test_negation_on_both_sides_does_not_flip(self, mock_backend):
        t = mock_backend.entail_batch([("not alpha", "not alpha")])[0]
        assert t.entailment == 1.0

    def test_hypothesis_without_tokens_scores_zero(self, mock_backend):
        t = mock_backend.entail_batch([("alpha beta", "!!!")])[0]
        assert (t.entailment, t.neutral, t.contradiction) == (0.0, 1.0, 0.0)

    def test_tokenization_is_case_and_punct_insensitive(self, mock_backend):
        assert mock_backend.entail_batch([("ALPHA, beta.", "alpha BETA")])[0].entailment == 1.0
        # Underscore is a separator, not a word character.
        assert mock_backend.entail_batch([("alpha beta", "alpha_beta")])[0].entailment == 1.0

    def test_agrees_with_independent_formula(self, mock_backend):
        pairs = [
            ("alpha beta gamma", "alpha delta"),
            ("it is not alpha", "alpha beta"),
            ("alpha", "not alpha"),
            ("one two three four", "two four six"),
        ]
        for premise, hypothesis in pairs:
            t = mock_backend.entail_batch([(premise, hypothesis)])[0]
            e, n, c = oracles.mock_triple(premise, hypothesis)
            assert (t.entailment, t.neutral, t.contradiction) == (e, n, c)

    def test_describe(self, mock_backend):
        assert mock_backend.describe() == "mock"


class TestBackendPlumbing:
    def test_batch_size_does_not_change_results(self):
        pairs = [(f"alpha beta {i}", "alpha gamma") for i in range(7)]
        small = MockEntailmentBackend(batch_size=3).entail_batch(pairs)
        large = MockEntailmentBackend(batch_size=32).entail_batch(pairs)
        assert small == large

    def test_length_sorted_batches_return_input_order(self):
        seen = []

        class Recording(MockEntailmentBackend):
            def _infer(self, pairs, table):
                seen.append(list(pairs))
                return super()._infer(pairs, table)

        # Descending length, with words that give every pair its own score.
        words = [f"w{j}" for j in range(10)]
        pairs = [(" ".join(words[: 10 - i]), " ".join(words)) for i in range(8)]
        backend = Recording(batch_size=3)
        triples = backend.entail_batch(pairs)
        assert triples == [backend.entail_batch([(p, h)])[0] for p, h in pairs]
        assert len({t.score for t in triples}) == len(pairs)
        assert [len(batch) for batch in seen[:3]] == [3, 3, 2]
        sent = [len(p) + len(h) for batch in seen[:3] for p, h in batch]
        assert sent == sorted(sent)

    def test_equal_lengths_keep_input_order(self):
        seen = []

        class Recording(MockEntailmentBackend):
            def _infer(self, pairs, table):
                seen.append(list(pairs))
                return super()._infer(pairs, table)

        pairs = [(f"p{i}", f"h{i}") for i in range(5)]
        Recording(batch_size=2).entail_batch(pairs)
        assert seen == [pairs[0:2], pairs[2:4], pairs[4:5]]

    def test_empty_inputs_rejected(self, mock_backend):
        with pytest.raises(ValueError, match="premise must be non-empty"):
            mock_backend.entail_batch([("", "x")])
        with pytest.raises(ValueError, match="pair 1"):
            mock_backend.entail_batch([("a", "b"), ("a", "")])

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            MockEntailmentBackend(batch_size=0)

    def test_budget_enforced(self):
        backend = MockEntailmentBackend(budget=PremiseBudget(16))
        assert len(backend.entail_batch([("a" * 14, "bb")])) == 1
        with pytest.raises(OversizedPremise, match="budget"):
            backend.entail_batch([("a" * 20, "bb")])

    def test_oversized_pair_before_empty_pair_raises_oversized(self):
        backend = MockEntailmentBackend(budget=PremiseBudget(16))
        with pytest.raises(OversizedPremise) as info:
            backend.entail_batch([("a" * 20, "bb"), ("", "bb")])
        assert str(info.value) == "pair 0: premise+hypothesis measure 22 units, budget is 16"

    def test_empty_pair_before_oversized_pair_raises_value_error(self):
        backend = MockEntailmentBackend(budget=PremiseBudget(16))
        with pytest.raises(ValueError) as info:
            backend.entail_batch([("a", ""), ("a" * 20, "bb")])
        assert str(info.value) == "pair 0: hypothesis must be non-empty"
        with pytest.raises(ValueError) as info:
            backend.entail_batch([("", "bb"), ("a" * 20, "bb")])
        assert str(info.value) == "pair 0: premise must be non-empty"

    def test_no_budget_never_exceeds(self, mock_backend):
        assert len(mock_backend.entail_batch([("a" * 10_000, "b" * 10_000)])) == 1

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            PremiseBudget(8)


class CountingBackend(MockEntailmentBackend):
    """The mock, counting ``measure`` calls per text."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.measured = Counter()

    def measure(self, text):
        self.measured[text] += 1
        return super().measure(text)


# Few distinct texts, so drawn pairs repeat premises and hypotheses.
_TEXTS = st.sampled_from(
    ["alpha beta", "not alpha", "beta gamma delta", "gamma", "it is not beta", "Alpha, gamma!"]
)


class TestTextTable:
    """``entail_batch`` featurises and sizes each distinct text once per call."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_TEXTS, _TEXTS), min_size=1, max_size=40))
    def test_one_call_equals_per_pair_calls(self, pairs):
        for batch_size in (1, 3, 32):
            backend = MockEntailmentBackend(batch_size=batch_size, budget=PremiseBudget(64))
            before = dict(vars(backend))
            triples = backend.entail_batch(pairs)
            # No table survives the call.
            assert vars(backend) == before
            assert triples == [backend.entail_batch([pair])[0] for pair in pairs]
            assert [(t.entailment, t.neutral, t.contradiction) for t in triples] == [
                oracles.mock_triple(p, h) for p, h in pairs
            ]

    def test_budget_guard_measures_each_distinct_text_once(self):
        pairs = [("alpha beta", "gamma"), ("alpha beta", "delta"), ("gamma", "gamma")] * 3
        backend = CountingBackend(batch_size=2, budget=PremiseBudget(64))
        backend.entail_batch(pairs)
        assert backend.measured == Counter({"alpha beta": 1, "gamma": 1, "delta": 1})

    def test_no_budget_measures_nothing(self):
        backend = CountingBackend()
        backend.entail_batch([("alpha beta", "gamma")] * 3)
        assert backend.measured == Counter()

    def test_entry_is_dropped_after_its_last_pair(self):
        pairs = [("a b", "h"), ("c d", "h"), ("a b", "x")]
        table = TextTable(MockEntailmentBackend(), pairs)
        assert table["a b"] == {"a", "b"} and table["h"] == {"h"}
        table.release(pairs[:1])
        assert set(table) == {"a b", "h"}
        assert table["c d"] == {"c", "d"}
        table.release(pairs[1:2])
        assert set(table) == {"a b"}
        assert table["x"] == {"x"}
        table.release(pairs[2:])
        assert table == {}


class TestBatchesInFlight:
    """With ``workers`` above 1, ``submit`` puts a call's batches on the
    backend's pool; results and their order are those of one worker."""

    PAIRS = [(f"premise {i} " + "x" * (i % 5), f"hypothesis {i % 3}") for i in range(12)]

    def test_up_to_workers_batches_at_once(self):
        running = Counter()
        lock = threading.Lock()
        # The first three batches wait for each other: three are in flight.
        barrier = threading.Barrier(3, timeout=10)
        started = iter(range(3))

        class Tracking(MockEntailmentBackend):
            def _infer(self, pairs, table):
                with lock:
                    running["now"] += 1
                    running["most"] = max(running["most"], running["now"])
                if next(started, None) is not None:
                    barrier.wait()
                try:
                    return super()._infer(pairs, table)
                finally:
                    with lock:
                        running["now"] -= 1

        expected = MockEntailmentBackend(batch_size=2).entail_batch(self.PAIRS)
        assert Tracking(batch_size=2, workers=3).entail_batch(self.PAIRS) == expected
        assert running["most"] == 3

    def test_calls_share_the_pool(self):
        backend = MockEntailmentBackend(batch_size=2, workers=2)
        first, second = backend.submit(self.PAIRS), backend.submit(self.PAIRS[::-1])
        assert second.result() == backend.entail_batch(self.PAIRS[::-1])
        assert first.result() == MockEntailmentBackend().entail_batch(self.PAIRS)
        assert backend._executor._max_workers == 2

    def test_first_failing_batch_raises_and_cancels_the_rest(self):
        release = threading.Event()
        calls = []

        class Failing(MockEntailmentBackend):
            def _infer(self, pairs, table):
                calls.append(pairs)
                if pairs[0][0] == "premise 0 ":
                    raise NliBackendError("the first batch failed")
                assert release.wait(timeout=10)
                return super()._infer(pairs, table)

        # Batch size 1, pairs in length order: "premise 0 " is the first batch.
        backend = Failing(batch_size=1, workers=2)
        with pytest.raises(NliBackendError, match="the first batch failed"):
            backend.submit(self.PAIRS).result()
        release.set()
        backend._executor.shutdown(wait=True)
        # The second batch, and at most one taken up as the first failed,
        # ran; the rest were cancelled.
        assert 2 <= len(calls) <= 3

    def test_cancel_drops_batches_not_started(self):
        release = threading.Event()
        calls = []

        class Blocking(MockEntailmentBackend):
            def _infer(self, pairs, table):
                calls.append(pairs)
                assert release.wait(timeout=10)
                return super()._infer(pairs, table)

        backend = Blocking(batch_size=2, workers=2)
        inference = backend.submit(self.PAIRS)
        inference.cancel()
        release.set()
        backend._executor.shutdown(wait=True)
        assert len(calls) == 2

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            MockEntailmentBackend(workers=0)


class TestRemoteBackend:
    def test_round_trip(self):
        def handler(path, body, headers):
            triples = [[1.0, 0.0, 0.0] for _ in body["pairs"]]
            return 200, {"triples": triples}

        with StubServer(handler) as server:
            backend = RemoteEntailmentBackend(server.url)
            out = backend.entail_batch([("p1", "h1"), ("p2", "h2")])
            assert [t.entailment for t in out] == [1.0, 1.0]
            assert server.requests[0]["body"] == {"pairs": [["p1", "h1"], ["p2", "h2"]]}
            assert backend.describe() == f"remote:{server.url}"

    def test_chunks_by_batch_size(self):
        def handler(path, body, headers):
            return 200, {"triples": [[0.0, 1.0, 0.0] for _ in body["pairs"]]}

        with StubServer(handler) as server:
            backend = RemoteEntailmentBackend(server.url, batch_size=2)
            backend.entail_batch([("p", f"h{i}") for i in range(5)])
            assert [len(r["body"]["pairs"]) for r in server.requests] == [2, 2, 1]

    def test_length_mismatch(self):
        with StubServer(lambda *a: (200, {"triples": [[1, 0, 0]]})) as server:
            with pytest.raises(NliBackendError, match="1 triples for 2 pairs"):
                RemoteEntailmentBackend(server.url).entail_batch([("a", "b"), ("c", "d")])

    def test_http_error(self):
        with StubServer(lambda *a: (500, {"oops": True})) as server:
            with pytest.raises(NliBackendError, match="failed"):
                RemoteEntailmentBackend(server.url).entail_batch([("a", "b")])

    def test_non_json_response(self):
        # requests may surface this as a transport error or a decode error
        # depending on version; either way it must become NliBackendError.
        with StubServer(lambda *a: (200, b"not json at all")) as server:
            with pytest.raises(NliBackendError, match="entailment service"):
                RemoteEntailmentBackend(server.url).entail_batch([("a", "b")])

    def test_invalid_triple_values(self):
        with StubServer(lambda *a: (200, {"triples": [[2.0, 0.0, 0.0]]})) as server:
            with pytest.raises(NliBackendError, match="pair 0"):
                RemoteEntailmentBackend(server.url).entail_batch([("a", "b")])

    def test_wrong_arity_triple(self):
        with StubServer(lambda *a: (200, {"triples": [[0.5, 0.5]]})) as server:
            with pytest.raises(NliBackendError, match="invalid triple"):
                RemoteEntailmentBackend(server.url).entail_batch([("a", "b")])

    def test_missing_triples_key(self):
        with StubServer(lambda *a: (200, {"something": []})) as server:
            with pytest.raises(NliBackendError, match="triples"):
                RemoteEntailmentBackend(server.url).entail_batch([("a", "b")])

    def test_connection_refused(self):
        backend = RemoteEntailmentBackend(dead_url(), timeout=2.0)
        with pytest.raises(NliBackendError, match="failed"):
            backend.entail_batch([("a", "b")])


class FakeTokenizer:
    model_max_length = 512

    def tokenize(self, text):
        return text.split()

    def __call__(self, premises, hypotheses, padding, truncation, return_tensors):
        assert return_tensors == "pt"
        return {"premises": list(premises), "hypotheses": list(hypotheses)}


class FakeModel:
    """Emits a high logit on the entailment slot when premise contains the
    hypothesis, on the contradiction slot when the premise contains "not"."""

    def __init__(self, id2label):
        self.config = SimpleNamespace(id2label=id2label)
        lowered = {str(v).lower(): int(k) for k, v in id2label.items()}
        self._ent = next((i for name, i in lowered.items() if "entail" in name), 0)
        self._con = next((i for name, i in lowered.items() if "contradict" in name), 1)

    def __call__(self, premises, hypotheses):
        rows = []
        for p, h in zip(premises, hypotheses):
            row = [0.0, 0.0, 0.0]
            if "not" in p:
                row[self._con] = 8.0
            elif h in p:
                row[self._ent] = 8.0
            rows.append(row)
        return SimpleNamespace(logits=rows)


STANDARD = {0: "contradiction", 1: "neutral", 2: "entailment"}


def local_backend(id2label=None, **kwargs):
    id2label = STANDARD if id2label is None else id2label
    return LocalEntailmentBackend(
        "fake-ckpt", model=FakeModel(id2label), tokenizer=FakeTokenizer(), **kwargs
    )


class TestLocalBackend:
    def test_labels_resolved_by_name_not_position(self):
        for id2label in (STANDARD, {0: "ENTAILMENT", 1: "CONTRADICTION", 2: "NEUTRAL"}):
            backend = local_backend(id2label)
            t = backend.entail_batch([("the cat sat", "cat")])[0]
            assert t.entailment > 0.99
            t = backend.entail_batch([("it is not so", "cat")])[0]
            assert t.contradiction > 0.99

    def test_ambiguous_labels_rejected(self):
        with pytest.raises(NliBackendError, match="ambiguous"):
            local_backend({0: "entail_a", 1: "entailment", 2: "neutral"})

    def test_unresolvable_labels_rejected(self):
        with pytest.raises(NliBackendError, match="label_map"):
            local_backend({0: "LABEL_0", 1: "LABEL_1", 2: "LABEL_2"})

    def test_explicit_label_map_wins(self):
        backend = LocalEntailmentBackend(
            "fake-ckpt",
            model=FakeModel(STANDARD),
            tokenizer=FakeTokenizer(),
            label_map={"entailment": 2, "neutral": 1, "contradiction": 0},
        )
        assert backend.entail_batch([("the cat sat", "cat")])[0].entailment > 0.99

    def test_label_map_missing_key(self):
        with pytest.raises(NliBackendError, match="missing"):
            LocalEntailmentBackend(
                "fake-ckpt",
                model=FakeModel(STANDARD),
                tokenizer=FakeTokenizer(),
                label_map={"entailment": 2},
            )

    def test_budget_from_tokenizer_limit(self):
        backend = local_backend()
        assert backend.budget is not None
        assert backend.budget.max_units == 512 - 8
        # measure() counts tokens, not characters
        assert backend.measure("one two three") == 3

    def test_sentinel_model_max_length_means_no_budget(self):
        class Unbounded(FakeTokenizer):
            model_max_length = int(1e30)

        backend = LocalEntailmentBackend(
            "fake-ckpt", model=FakeModel(STANDARD), tokenizer=Unbounded()
        )
        assert backend.budget is None

    def test_explicit_max_units_overrides(self):
        backend = local_backend(max_units=64)
        assert backend.budget.max_units == 64

    def test_tokenizer_failure_wrapped(self):
        class Exploding(FakeTokenizer):
            def __call__(self, *a, **k):
                raise RuntimeError("bad encode")

        backend = LocalEntailmentBackend(
            "fake-ckpt", model=FakeModel(STANDARD), tokenizer=Exploding()
        )
        with pytest.raises(NliBackendError, match="tokenization failed"):
            backend.entail_batch([("a", "b")])

    def test_model_failure_wrapped(self):
        class Exploding:
            config = SimpleNamespace(id2label=STANDARD)

            def __call__(self, **kwargs):
                raise RuntimeError("cuda exploded")

        backend = LocalEntailmentBackend(
            "fake-ckpt", model=Exploding(), tokenizer=FakeTokenizer()
        )
        with pytest.raises(NliBackendError, match="forward pass"):
            backend.entail_batch([("a", "b")])

    def test_describe(self):
        assert local_backend().describe() == "local:fake-ckpt"

    def test_softmax_rows_sum_to_one(self):
        backend = local_backend()
        t = backend.entail_batch([("zero overlap premise", "zebra")])[0]
        # All-zero logits soften to the uniform distribution.
        assert t.entailment == pytest.approx(1 / 3)
        assert math.isclose(t.entailment + t.neutral + t.contradiction, 1.0, abs_tol=1e-9)
