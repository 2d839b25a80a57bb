"""The row rule for entailment triples and the three backend implementations."""

import functools
import json
import math
import threading
from collections import Counter
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sumfact import (
    LocalEntailmentBackend,
    MockEntailmentBackend,
    NliBackendError,
    OversizedPremise,
    RemoteEntailmentBackend,
)
from sumfact.cli import main
from sumfact.config import RunConfig
from sumfact.documents import Claim
from sumfact.nli import EntailmentBackend, TextTable, _checked, _read_row
from sumfact.pipeline import make_nli_backend, scorer_fingerprint
from sumfact.scoring import Scorer

import oracles
from cases import RecordingBackend, check_cut, doc_from_sentences, score_block, triples
from stubserver import StubServer, dead_url


# Words the ASCII fast path and the regex must split alike, and pairs built
# from them that share words, so the overlap is not always zero. A side is
# ASCII or holds at least one non-ASCII word; the Kelvin sign and "İ"
# lowercase to the ASCII "k" and "i" plus a dropped combining dot.
_ASCII_VOCAB = ["alpha", "Beta", "not", "NOT", "k", "i", "42", "strasse", "x_y"]
_OTHER_VOCAB = ["straße", "\u212a", "İ", "Σίσυφος", "café", "don\u2019t", "\u00b2"]
_ASCII_SEPS = [" ", ", ", "_", "-", "\x1f", "\n"]
_OTHER_SEPS = ["\u00a0", "\u201c", "\u2009", "\u0301"]


@st.composite
def _mock_side(draw, shared, ascii_only):
    words = draw(st.lists(st.sampled_from(_ASCII_VOCAB), max_size=3)) + shared
    seps = _ASCII_SEPS
    if not ascii_only:
        words += draw(st.lists(st.sampled_from(_OTHER_VOCAB), min_size=1, max_size=3))
        seps = seps + _OTHER_SEPS
    words = draw(st.permutations(words))
    return "".join(draw(st.sampled_from(seps)) + word for word in words)


@st.composite
def _mock_pair(draw):
    shared = draw(st.lists(st.sampled_from(_ASCII_VOCAB), max_size=3))
    return (
        draw(_mock_side(shared, draw(st.booleans()))),
        draw(_mock_side(shared, draw(st.booleans()))),
    )


def row_score(row):
    """The alignment score of a checked row: entailment minus contradiction."""
    e, _, c = row
    return e - c


class TestEntailmentTriple:
    """``nli._checked``, the one rule every backend row passes."""

    def test_score_is_signed_difference(self):
        assert row_score(_checked(0.5, 0.3, 0.2)) == pytest.approx(0.3)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="entailment probability -0.1 outside"):
            _checked(-0.1, 0.6, 0.5)
        with pytest.raises(ValueError, match="outside"):
            _checked(1.1, 0.0, 0.0)
        with pytest.raises(ValueError, match="entailment probability nan outside"):
            _checked(float("nan"), 0.5, 0.5)

    def test_large_sum_deviation_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            _checked(0.5, 0.3, 0.1)  # sums to 0.9
        with pytest.raises(ValueError, match="sum"):
            _checked(0.5, 0.5, 0.1)  # sums to 1.1

    def test_small_deviation_renormalized(self):
        e, n, c = _checked(0.2, 0.2, 0.6005)
        total = 0.2 + 0.2 + 0.6005
        assert e == 0.2 / total
        assert c == 0.6005 / total
        assert e + n + c == pytest.approx(1.0, abs=1e-12)

    def test_exact_sum_left_untouched(self):
        assert _checked(0.25, 0.5, 0.25) == (0.25, 0.5, 0.25)

    def test_frozen(self):
        # A checked row is an immutable tuple.
        row = _checked(1.0, 0.0, 0.0)
        assert type(row) is tuple
        with pytest.raises(TypeError):
            row[0] = 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_renormalized_sum_close_to_one(self, e, n):
        c = 1.0 - e - n
        if not (0.0 <= c <= 1.0):
            return
        row = _checked(e, n, c)
        assert abs(sum(row) - 1.0) <= 1e-9
        assert -1.0 <= row_score(row) <= 1.0


class TestMockBackend:
    def test_full_overlap(self, mock_backend):
        assert triples(mock_backend, [("alpha beta gamma", "alpha beta")])[0] == (1.0, 0.0, 0.0)

    def test_half_overlap(self, mock_backend):
        row = triples(mock_backend, [("alpha beta", "alpha gamma")])[0]
        assert row[0] == 0.5 and row_score(row) == 0.5

    def test_negation_flips_to_contradiction(self, mock_backend):
        row = triples(mock_backend, [("it is not alpha", "it is alpha")])[0]
        assert row == (0.0, 0.0, 1.0)
        assert row_score(row) == -1.0

    def test_negation_on_both_sides_does_not_flip(self, mock_backend):
        assert triples(mock_backend, [("not alpha", "not alpha")])[0][0] == 1.0

    def test_hypothesis_without_tokens_scores_zero(self, mock_backend):
        assert triples(mock_backend, [("alpha beta", "!!!")])[0] == (0.0, 1.0, 0.0)

    def test_tokenization_is_case_and_punct_insensitive(self, mock_backend):
        assert triples(mock_backend, [("ALPHA, beta.", "alpha BETA")])[0][0] == 1.0
        # Underscore is a separator, not a word character.
        assert triples(mock_backend, [("alpha beta", "alpha_beta")])[0][0] == 1.0

    @settings(deadline=None)
    @given(_mock_pair())
    @example(("alpha beta gamma", "alpha delta"))
    @example(("it is not alpha", "alpha beta"))
    @example(("alpha", "not alpha"))
    @example(("one two three four", "two four six"))
    @example(("NOT strasse k", "not\u00a0Straße \u212a"))
    @example(("Σίσυφος İ ok", "i OK"))
    def test_agrees_with_independent_formula(self, pair):
        premise, hypothesis = pair
        row = triples(MockEntailmentBackend(), [(premise, hypothesis)])[0]
        assert row == oracles.mock_triple(premise, hypothesis)

    def test_describe(self, mock_backend):
        assert mock_backend.describe() == "mock"


class TestBackendPlumbing:
    def test_batch_size_does_not_change_results(self):
        pairs = [(f"alpha beta {i}", "alpha gamma") for i in range(7)]
        small = MockEntailmentBackend(batch_size=3).submit(pairs).scores()
        large = MockEntailmentBackend(batch_size=32).submit(pairs).scores()
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
        scores = backend.submit(pairs).scores()
        assert scores == [backend.submit([(p, h)]).scores()[0] for p, h in pairs]
        assert len(set(scores)) == len(pairs)
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
        Recording(batch_size=2).submit(pairs).scores()
        assert seen == [pairs[0:2], pairs[2:4], pairs[4:5]]

    def test_empty_inputs_rejected(self, mock_backend):
        with pytest.raises(ValueError, match="premise must be non-empty"):
            mock_backend.submit([("", "x")])
        with pytest.raises(ValueError, match="pair 1"):
            mock_backend.submit([("a", "b"), ("a", "")])

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            MockEntailmentBackend(batch_size=0)

    def test_budget_enforced(self):
        backend = MockEntailmentBackend(max_units=16)
        assert len(backend.submit([("a" * 14, "bb")]).scores()) == 1
        with pytest.raises(OversizedPremise, match="budget"):
            backend.submit([("a" * 20, "bb")])

    def test_oversized_pair_before_empty_pair_raises_oversized(self):
        backend = MockEntailmentBackend(max_units=16)
        with pytest.raises(OversizedPremise) as info:
            backend.submit([("a" * 20, "bb"), ("", "bb")])
        assert str(info.value) == "pair 0: premise+hypothesis measure 22 units, budget is 16"

    def test_empty_pair_before_oversized_pair_raises_value_error(self):
        backend = MockEntailmentBackend(max_units=16)
        with pytest.raises(ValueError) as info:
            backend.submit([("a", ""), ("a" * 20, "bb")])
        assert str(info.value) == "pair 0: hypothesis must be non-empty"
        with pytest.raises(ValueError) as info:
            backend.submit([("", "bb"), ("a" * 20, "bb")])
        assert str(info.value) == "pair 0: premise must be non-empty"

    def test_no_budget_never_exceeds(self, mock_backend):
        assert len(mock_backend.submit([("a" * 10_000, "b" * 10_000)]).scores()) == 1

    def test_budget_floor(self):
        # The shared constructor holds one floor for every kind, and a remote
        # backend is built without sending a request.
        with StubServer(lambda *request: (500, {})) as server:
            for make in (
                MockEntailmentBackend,
                functools.partial(RemoteEntailmentBackend, server.url),
                local_backend,
            ):
                for units in (0, 8, 15):
                    with pytest.raises(ValueError) as info:
                        make(max_units=units)
                    assert str(info.value) == "budget below 16 units cannot fit any useful pair"
                assert make(max_units=16).max_units == 16
        assert server.requests == []
        # Checked before a model is loaded: no transformers import is tried.
        with pytest.raises(ValueError, match="budget below 16 units"):
            LocalEntailmentBackend("unloaded-ckpt", max_units=15)


_WORDS = st.sampled_from(["alpha", "beta", "not", "gamma", "a", "river crossing", "x" * 40])
_PAIRS = st.lists(
    st.tuples(
        st.lists(_WORDS, min_size=1, max_size=20).map(" ".join),
        st.lists(_WORDS, min_size=1, max_size=3).map(" ".join),
    ),
    min_size=1,
    max_size=50,
)


def _chars(pair):
    return len(pair[0]) + len(pair[1])


class TestBatchCut:
    """``submit`` cuts a call's size-sorted pairs by padded size: a batch
    takes the next pair while its rows times its longest pair stay within
    ``batch_size`` pairs of the largest size a pair of the call may have."""

    @settings(max_examples=60, deadline=None)
    @given(_PAIRS, st.integers(1, 40), st.integers(0, 300))
    def test_cut_partitions_the_sorted_pairs_and_never_changes_a_score(
        self, pairs, drawn, slack
    ):
        want = [MockEntailmentBackend().submit([pair]).scores()[0] for pair in pairs]
        limit = max(16, max(map(_chars, pairs)) + slack)
        for batch_size in (drawn, 1, 3, 32):
            for budget in (None, limit):
                for workers in (1, 2):
                    backend = RecordingBackend(
                        batch_size=batch_size, max_units=budget, workers=workers
                    )
                    try:
                        got = backend.submit(pairs).scores()
                    finally:
                        if backend._executor is not None:
                            backend._executor.shutdown(wait=True)
                    assert _bits(got) == _bits(want), (batch_size, budget, workers)
                    if workers == 1:
                        assert backend.sent == sorted(pairs, key=_chars)
                        check_cut(backend.batches, batch_size, budget)

    @settings(max_examples=60, deadline=None)
    @given(_PAIRS, st.integers(1, 8), st.integers(0, 1000))
    def test_bound_raises_the_cap_without_a_budget_only(self, pairs, batch_size, bound):
        # Without a budget the cap is batch_size pairs of the bound or of the
        # call's longest pair, whichever is longer, so no batch is empty; a
        # budget's max_units overrides the bound.
        limit = max(16, max(map(_chars, pairs)))
        for budget in (None, limit):
            backend = RecordingBackend(batch_size=batch_size, max_units=budget)
            got = backend.submit(pairs, bound=bound).scores()
            assert got == MockEntailmentBackend(max_units=budget).submit(pairs).scores()
            assert all(backend.batches)
            check_cut(backend.batches, batch_size, budget, bound=bound)

    def test_budgeted_local_call_sorts_and_caps_by_tokens(self):
        batches = []

        class Recording(LocalEntailmentBackend):
            def _infer(self, pairs, table):
                batches.append(list(pairs))
                return super()._infer(pairs, table)

        backend = Recording(
            "fake-ckpt", model=FakeModel(STANDARD), tokenizer=FakeTokenizer(), batch_size=1
        )
        # Pair i measures 12 - i tokens and 8i + 31 characters.
        pairs = [("x" * (10 * (i + 1)) + " w" * (10 - i), "h") for i in range(10)]
        backend.submit(pairs).scores()
        # In tokens all ten fit one pair of the 504-token budget; in
        # characters, sorted the other way, they would not.
        assert batches == [pairs[::-1]]
        check_cut(batches, 1, 504, size=lambda pair: sum(map(backend.measure, pair)))


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
    """``submit`` featurises and sizes each distinct text once per call."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_TEXTS, _TEXTS), min_size=1, max_size=40))
    def test_one_call_equals_per_pair_calls(self, pairs):
        for batch_size in (1, 3, 32):
            backend = MockEntailmentBackend(batch_size=batch_size, max_units=64)
            before = dict(vars(backend))
            scores = backend.submit(pairs).scores()
            # No table survives the call.
            assert vars(backend) == before
            assert scores == [backend.submit([pair]).scores()[0] for pair in pairs]
            full = triples(backend, pairs)
            assert full == [oracles.mock_triple(p, h) for p, h in pairs]
            assert scores == [row_score(row) for row in full]

    def test_budget_guard_measures_each_distinct_text_once(self):
        pairs = [("alpha beta", "gamma"), ("alpha beta", "delta"), ("gamma", "gamma")] * 3
        backend = CountingBackend(batch_size=2, max_units=64)
        backend.submit(pairs).scores()
        assert backend.measured == Counter({"alpha beta": 1, "gamma": 1, "delta": 1})

    def test_budget_guard_takes_known_sizes(self):
        pairs = [("alpha beta", "gamma"), ("alpha beta", "delta")]
        backend = CountingBackend(batch_size=2, max_units=64)
        sizes = {"alpha beta": 10, "gamma": 5}
        backend.submit(pairs, sizes).scores()
        assert backend.measured == Counter({"delta": 1})
        # The map gains what the check measured, so the next call measures nothing.
        assert sizes == {"alpha beta": 10, "gamma": 5, "delta": 5}
        backend.submit(pairs, sizes).scores()
        assert backend.measured == Counter({"delta": 1})
        with pytest.raises(OversizedPremise, match="pair 1: premise\\+hypothesis measure 65 "):
            backend.submit(pairs, {"alpha beta": 60, "gamma": 4})

    def test_no_budget_measures_nothing(self):
        backend = CountingBackend()
        backend.submit([("alpha beta", "gamma")] * 3).scores()
        assert backend.measured == Counter()

    def test_entry_is_dropped_after_its_last_pair(self):
        pairs = [("a b", "h"), ("c d", "h"), ("a b", "x")]
        # One pair per batch: batch b is pairs[b].
        table = TextTable(MockEntailmentBackend(), [[pair] for pair in pairs])
        assert table["a b"] == {"a", "b"} and table["h"] == {"h"}
        table.release(0)
        assert set(table) == {"a b", "h"}
        assert table["c d"] == {"c", "d"}
        table.release(1)
        assert set(table) == {"a b"}
        assert table["x"] == {"x"}
        table.release(2)
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

        expected = MockEntailmentBackend(batch_size=2).submit(self.PAIRS).scores()
        assert Tracking(batch_size=2, workers=3).submit(self.PAIRS).scores() == expected
        assert running["most"] == 3

    def test_calls_share_the_pool(self):
        backend = MockEntailmentBackend(batch_size=2, workers=2)
        first, second = backend.submit(self.PAIRS), backend.submit(self.PAIRS[::-1])
        assert second.scores() == backend.submit(self.PAIRS[::-1]).scores()
        assert first.scores() == MockEntailmentBackend().submit(self.PAIRS).scores()
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
            backend.submit(self.PAIRS).scores()
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

    def test_one_worker_has_no_pool_and_infers_on_the_calling_thread(self):
        # The inline path keeps peak memory down (see EntailmentBackend.__init__).
        threads = []

        class Recording(MockEntailmentBackend):
            def _infer(self, pairs, table):
                threads.append(threading.get_ident())
                return super()._infer(pairs, table)

        backend = Recording(batch_size=2)
        assert backend._executor is None
        inference = backend.submit(self.PAIRS)
        assert threads == []  # batches run only as the results are read
        assert inference.scores() == MockEntailmentBackend(batch_size=2).submit(self.PAIRS).scores()
        assert len(threads) > 1 and set(threads) == {threading.get_ident()}

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            MockEntailmentBackend(workers=0)


class RowBackend(EntailmentBackend):
    """Answers each pair with the row its premise names, as given."""

    def __init__(self, rows, **kwargs):
        super().__init__(**kwargs)
        self.rows = rows

    def describe(self):
        return "rows"

    def _infer(self, pairs, table):
        return [self.rows[premise] for premise, _ in pairs]


def _bits(values):
    return [value.hex() for value in values]


# Rows within the sum tolerance, most of them off 1 and so renormalized.
_ROWS = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-9e-4, 9e-4)
).map(lambda t: (t[0] * (1 - t[1]), (1 - t[0]) * (1 - t[1]), min(1.0, max(0.0, t[1] + t[2]))))

_BAD_ROWS = [
    (float("nan"), 0.5, 0.5),
    (0.5, float("nan"), 0.5),
    (-0.1, 0.6, 0.5),
    (1.1, 0.0, 0.0),
    (0.0, 0.0, 1.5),
    (0.5, 0.3, 0.1),
    (0.5, 0.5, 0.1),
]


class TestScoresPath:
    """The scorer reads plain scores from ``Inference.scores``; they are the
    scores of the backend's rows checked by the row rule, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_ROWS, min_size=1, max_size=20), st.sampled_from([1, 3, 32]))
    def test_scores_are_the_triples_scores_bit_for_bit(self, rows, batch_size):
        for row in rows:
            try:
                _checked(*row)
            except ValueError:
                assume(False)
        premises = {f"p{i} " + "x" * (i % 4): row for i, row in enumerate(rows)}
        pairs = [(premise, "h") for premise in premises]
        backend = RowBackend(premises, batch_size=batch_size)
        scores = backend.submit(pairs).scores()
        # Each score is that of its raw row, checked: renormalized once.
        direct = [_checked(*row) for row in premises.values()]
        assert _bits(scores) == _bits(e - c for e, _, c in direct)
        full = triples(backend, pairs)
        for got, want in zip(full, direct, strict=True):
            assert _bits(got) == _bits(want)

    def test_renormalized_rows_score_as_their_triples(self):
        rows = {"p0": (0.2, 0.2, 0.6005), "p1": (0.3004, 0.3, 0.4), "p2": (0.25, 0.5, 0.25)}
        pairs = [(p, "h") for p in rows]
        for workers in (1, 2):
            backend = RowBackend(rows, batch_size=2, workers=workers)
            scores = backend.submit(pairs).scores()
            assert _bits(scores) == _bits(row_score(_checked(*row)) for row in rows.values())
            assert scores[0] != 0.2 - 0.6005

    def test_scorer_reads_the_triples_scores(self):
        row = (0.2, 0.2, 0.6005)
        backend = RowBackend({"alpha beta.": row})
        doc = doc_from_sentences("d", ["alpha beta."])
        (report,) = score_block(
            Scorer(backend), [(doc, [Claim("s", 0, "gamma.")], False)], stop="sentence"
        )
        assert report.verdicts[0].score.hex() == row_score(_checked(*row)).hex()

    @pytest.mark.parametrize("bad", _BAD_ROWS, ids=repr)
    def test_bad_rows_raise_the_triples_message(self, bad):
        # An in-process backend's bad row raises what the remote backend's
        # raises for the same row: one row rule for every backend.
        with pytest.raises(ValueError) as why:
            _checked(*bad)
        # The bad row sits in the second batch, behind a good one.
        rows = {"p0": [1.0, 0.0, 0.0], "p1 bad": list(bad)}
        pairs = [("p0", "h"), ("p1 bad", "h")]
        with StubServer(lambda *a: (200, {"triples": list(rows.values())})) as server:
            with pytest.raises(NliBackendError) as remote:
                RemoteEntailmentBackend(server.url).submit(pairs).scores()
        assert str(remote.value) == f"pair 1: invalid triple {list(bad)!r}: {why.value}"
        for workers in (1, 2):
            backend = RowBackend(rows, batch_size=1, workers=workers)
            with pytest.raises(NliBackendError) as got:
                backend.submit(pairs).scores()
            assert str(got.value) == str(remote.value)

    # Rows of every shape a backend may return: through ``scores`` each must
    # read as ``_read_row`` alone reads it, to the same score or error text.
    ROWS = {
        "strings": ("0.5", "0.25", "0.25"),
        "ints": (1, 0, 0),
        "bools": (True, False, False),
        "list": [0.5, 0.25, 0.25],
        "float subclass": (type("Sub", (float,), {})(0.5), 0.25, 0.25),
        "nan": (float("nan"), 0.5, 0.5),
        "inf": (0.5, float("inf"), 0.5),
        "sum 1.0004": (0.5, 0.25, 0.2504),
        "2 items": (0.5, 0.5),
        "4 items": (0.5, 0.25, 0.25, 0.0),
        "none": None,
        "word": ("x", 0.5, 0.5),
        "exact": (0.5, 0.25, 0.25),
    }

    @pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
    def test_each_row_reads_as_the_row_rule_reads_it(self, row):
        def outcome(read):
            try:
                return read().hex()
            except NliBackendError as exc:
                return str(exc)

        want = outcome(lambda: row_score(_read_row(1, row)))
        rows = {"p0": (1.0, 0.0, 0.0), "p1 x": row}
        pairs = [("p0", "h"), ("p1 x", "h")]
        for batch_size in (1, 2):
            backend = RowBackend(rows, batch_size=batch_size)
            assert outcome(lambda: backend.submit(pairs).scores()[1]) == want

    @pytest.mark.parametrize("drop, extra", [(1, 0), (0, 1)], ids=["fewer", "more"])
    def test_a_batch_with_the_wrong_row_count_raises(self, drop, extra):
        # The second batch of an in-process backend gives one row too few or
        # too many, and raises what the remote backend raises for it.
        class WrongCount(MockEntailmentBackend):
            def _infer(self, pairs, table):
                rows = super()._infer(pairs, table)
                return rows if pairs[0][0] == "p0" else rows[drop:] + rows[:extra]

        pairs = [("p0", "h"), ("p1 x", "h")]
        triples = [[1.0, 0.0, 0.0]] * (1 - drop + extra)
        with StubServer(lambda *a: (200, {"triples": triples})) as server:
            with pytest.raises(NliBackendError) as remote:
                RemoteEntailmentBackend(server.url).submit(pairs[1:]).scores()
        assert str(remote.value).endswith(f"returned {len(triples)} triples for 1 pairs")
        for workers in (1, 2):
            backend = WrongCount(batch_size=1, workers=workers)
            with pytest.raises(NliBackendError) as got:
                backend.submit(pairs).scores()
            assert str(got.value) == str(remote.value)

    def test_a_custom_backends_bad_row_exits_3(self, tmp_path, monkeypatch):
        # A library user's own in-process backend needs no flag for its bad
        # rows to fail the run as a backend error, not with a traceback.
        bad = (0.5, 0.3, 0.1)
        with pytest.raises(ValueError) as why:
            _checked(*bad)
        backend = RowBackend({"alpha beta.": bad})
        monkeypatch.setattr("sumfact.pipeline.make_nli_backend", lambda config: backend)
        docs = tmp_path / "docs.jsonl"
        docs.write_text('{"id": "d1", "text": "alpha beta."}\n', encoding="utf-8")
        sums = tmp_path / "sums.jsonl"
        sums.write_text('{"id": "s1", "document_id": "d1", "text": "alpha."}\n', encoding="utf-8")
        result = CliRunner().invoke(main, ["score", str(docs), str(sums)])
        assert result.exit_code == 3, result.output
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": "NliBackendError",
            "message": f"pair 0: invalid triple {bad!r}: {why.value}",
        }


class TestRemoteBackend:
    def test_round_trip(self):
        def handler(path, body, headers):
            triples = [[1.0, 0.0, 0.0] for _ in body["pairs"]]
            return 200, {"triples": triples}

        with StubServer(handler) as server:
            backend = RemoteEntailmentBackend(server.url)
            out = triples(backend, [("p1", "h1"), ("p2", "h2")])
            assert [e for e, _, _ in out] == [1.0, 1.0]
            assert server.requests[0]["body"] == {"pairs": [["p1", "h1"], ["p2", "h2"]]}
            assert backend.describe() == f"remote:{server.url}"

    def test_chunks_by_batch_size(self):
        def handler(path, body, headers):
            return 200, {"triples": [[0.0, 1.0, 0.0] for _ in body["pairs"]]}

        with StubServer(handler) as server:
            backend = RemoteEntailmentBackend(server.url, batch_size=2)
            backend.submit([("p", f"h{i}") for i in range(5)]).scores()
            assert [len(r["body"]["pairs"]) for r in server.requests] == [2, 2, 1]

    def test_length_mismatch(self):
        with StubServer(lambda *a: (200, {"triples": [[1, 0, 0]]})) as server:
            with pytest.raises(NliBackendError, match="1 triples for 2 pairs"):
                RemoteEntailmentBackend(server.url).submit([("a", "b"), ("c", "d")]).scores()

    def test_extra_triples_raise(self):
        with StubServer(lambda *a: (200, {"triples": [[1, 0, 0]] * 3})) as server:
            with pytest.raises(NliBackendError, match="3 triples for 2 pairs"):
                RemoteEntailmentBackend(server.url).submit([("a", "b"), ("c", "d")]).scores()

    def test_http_error(self, fast_retries):
        # A 5xx is retried twice, then the error names the attempts.
        with StubServer(lambda *a: (500, {"oops": True})) as server:
            with pytest.raises(NliBackendError, match=r"failed after 3 attempts \(HTTP 500\)"):
                RemoteEntailmentBackend(server.url).submit([("a", "b")]).scores()
            assert len(server.requests) == 3

    def test_client_error_fails_at_once(self, fast_retries):
        with StubServer(lambda *a: (400, {"error": "bad request"})) as server:
            with pytest.raises(NliBackendError, match="rejected the request with HTTP 400"):
                RemoteEntailmentBackend(server.url).submit([("a", "b")]).scores()
            assert len(server.requests) == 1

    def test_non_json_response(self, fast_retries):
        with StubServer(lambda *a: (200, b"not json at all")) as server:
            with pytest.raises(NliBackendError, match="entailment service .* non-JSON output"):
                RemoteEntailmentBackend(server.url).submit([("a", "b")]).scores()
            assert len(server.requests) == 1

    def test_503_then_success_scores_as_a_clean_run(self, fast_retries):
        answered = []

        def handler(path, body, headers):
            if len(answered) == 1 and len(server.requests) == 2:
                return 503, {"error": "busy"}
            answered.append(body)
            return 200, {"triples": [oracles.mock_triple(p, h) for p, h in body["pairs"]]}

        doc = doc_from_sentences("d", [f"alpha beta w{i}." for i in range(9)])
        claims = [Claim("s", i, f"alpha w{i} gamma.") for i in range(4)]
        expected = Scorer(MockEntailmentBackend(batch_size=2))
        (want,) = score_block(expected, [(doc, claims, False)])
        with StubServer(handler) as server:
            scorer = Scorer(RemoteEntailmentBackend(server.url, batch_size=2))
            (report,) = score_block(scorer, [(doc, claims, False)])
        assert report == want
        assert scorer.backend_calls == expected.backend_calls
        # The second batch was refused once and sent again.
        assert len(server.requests) == len(answered) + 1
        assert server.requests[1]["body"] == server.requests[2]["body"]

    def test_invalid_triple_values(self):
        with StubServer(lambda *a: (200, {"triples": [[2.0, 0.0, 0.0]]})) as server:
            with pytest.raises(NliBackendError, match="pair 0"):
                RemoteEntailmentBackend(server.url).submit([("a", "b")]).scores()

    @pytest.mark.parametrize("bad", [r for r in _BAD_ROWS if not math.isnan(sum(r))], ids=repr)
    def test_bad_triple_names_its_pair(self, bad):
        with pytest.raises(ValueError) as why:
            _checked(*bad)
        rows = [[1.0, 0.0, 0.0], list(bad)]
        with StubServer(lambda *a: (200, {"triples": rows})) as server:
            backend = RemoteEntailmentBackend(server.url)
            with pytest.raises(NliBackendError) as got:
                backend.submit([("a", "b"), ("c", "d")]).scores()
            assert str(got.value) == f"pair 1: invalid triple {list(bad)!r}: {why.value}"

    def test_bad_triple_names_its_input_pair_not_its_place_in_the_batch(self):
        # Sorted by size, the bad pair is second in its batch; it is first in the input.
        def handler(path, body, headers):
            return 200, {"triples": [[None, 0, 0] if h == "bad" else [1, 0, 0]
                                     for _, h in body["pairs"]]}

        with StubServer(handler) as server:
            backend = RemoteEntailmentBackend(server.url)
            with pytest.raises(NliBackendError) as got:
                backend.submit([("a long premise here", "bad"), ("x", "ok")]).scores()
            assert server.requests[0]["body"]["pairs"][1] == ["a long premise here", "bad"]
        assert str(got.value).startswith("pair 0: invalid triple [None, 0, 0]: ")

    def test_renormalized_triple_scores_as_its_triple(self):
        row = [0.2, 0.2, 0.6005]
        with StubServer(lambda *a: (200, {"triples": [row]})) as server:
            backend = RemoteEntailmentBackend(server.url)
            (score,) = backend.submit([("a", "b")]).scores()
            (triple,) = triples(backend, [("a", "b")])
        assert score.hex() == row_score(triple).hex() == row_score(_checked(*row)).hex()

    def test_wrong_arity_triple(self):
        with StubServer(lambda *a: (200, {"triples": [[0.5, 0.5]]})) as server:
            with pytest.raises(NliBackendError, match="invalid triple"):
                RemoteEntailmentBackend(server.url).submit([("a", "b")]).scores()

    def test_missing_triples_key(self):
        with StubServer(lambda *a: (200, {"something": []})) as server:
            with pytest.raises(NliBackendError, match="triples"):
                RemoteEntailmentBackend(server.url).submit([("a", "b")]).scores()

    def test_each_pool_thread_posts_with_its_own_session(self, monkeypatch):
        import requests

        users = {}

        class Recording(requests.Session):
            def post(self, *args, **kwargs):
                users.setdefault(id(self), set()).add(threading.get_ident())
                return super().post(*args, **kwargs)

        def handler(path, body, headers):
            return 200, {"triples": [oracles.mock_triple(p, h) for p, h in body["pairs"]]}

        monkeypatch.setattr(requests, "Session", Recording)
        doc = doc_from_sentences("d", [f"alpha beta w{i}." for i in range(9)])
        claims = [Claim("s", i, f"alpha w{i} gamma.") for i in range(4)]
        expected = Scorer(MockEntailmentBackend(batch_size=2))
        (want,) = score_block(expected, [(doc, claims, False)])
        with StubServer(handler) as server:
            for workers in (1, 3):
                backend = RemoteEntailmentBackend(server.url, batch_size=2, workers=workers)
                scorer = Scorer(backend)
                (report,) = score_block(scorer, [(doc, claims, False)])
                assert report == want
                assert scorer.backend_calls == expected.backend_calls
                if backend._executor is not None:
                    backend._executor.shutdown(wait=True)
        assert users and all(len(threads) == 1 for threads in users.values())

    def test_connection_refused(self, fast_retries):
        backend = RemoteEntailmentBackend(dead_url(), timeout=2.0)
        with pytest.raises(NliBackendError, match="failed after 3 attempts"):
            backend.submit([("a", "b")]).scores()


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


def score_with_local(tmp_path, monkeypatch, model, tokenizer):
    """Run ``score`` with a ``local:`` backend built on ``model`` and
    ``tokenizer``; expect exit 3 and return its JSON error line."""
    monkeypatch.setattr(
        "sumfact.pipeline.LocalEntailmentBackend",
        functools.partial(LocalEntailmentBackend, model=model, tokenizer=tokenizer),
    )
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "d1", "text": "alpha beta."}\n', encoding="utf-8")
    sums = tmp_path / "sums.jsonl"
    sums.write_text('{"id": "s1", "document_id": "d1", "text": "alpha."}\n', encoding="utf-8")
    result = CliRunner().invoke(
        main, ["score", str(docs), str(sums), "--nli-backend", "local:fake-ckpt"]
    )
    assert result.exit_code == 3, result.output
    return json.loads(result.stderr.strip().splitlines()[-1])


class TestLocalBackend:
    def test_labels_resolved_by_name_not_position(self):
        for id2label in (STANDARD, {0: "ENTAILMENT", 1: "CONTRADICTION", 2: "NEUTRAL"}):
            backend = local_backend(id2label)
            assert triples(backend, [("the cat sat", "cat")])[0][0] > 0.99
            assert triples(backend, [("it is not so", "cat")])[0][2] > 0.99

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
        assert triples(backend, [("the cat sat", "cat")])[0][0] > 0.99

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
        assert backend.max_units is not None
        assert backend.max_units == 512 - 8
        # measure() counts tokens, not characters
        assert backend.measure("one two three") == 3

    def test_sentinel_model_max_length_means_no_budget(self):
        class Unbounded(FakeTokenizer):
            model_max_length = int(1e30)

        backend = LocalEntailmentBackend(
            "fake-ckpt", model=FakeModel(STANDARD), tokenizer=Unbounded()
        )
        assert backend.max_units is None

    @pytest.mark.parametrize("declared", [16, 20, 23, 1, 10, 15])
    def test_tiny_model_max_length_exits_3(self, declared, tmp_path, monkeypatch):
        # The budget is the declared length less 8, and below 16 no pair fits;
        # only a non-int or a length above 100,000 is a sentinel.
        class Short(FakeTokenizer):
            model_max_length = declared

        class Fits(FakeTokenizer):
            model_max_length = 24

        fits = LocalEntailmentBackend("fake-ckpt", model=FakeModel(STANDARD), tokenizer=Fits())
        assert fits.max_units == 16
        error = score_with_local(tmp_path, monkeypatch, FakeModel(STANDARD), Short())
        assert error["error"] == "NliBackendError"
        assert f"model_max_length {declared}" in error["message"]

    @pytest.mark.parametrize(
        "logits",
        [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [-math.inf] * 3],
        ids=["nan", "inf", "all-minus-inf"],
    )
    def test_non_finite_logits_exit_3(self, logits, tmp_path, monkeypatch):
        # Their softmax is NaN: a model failure, named by its pair, not a traceback.
        class NonFinite(FakeModel):
            def __call__(self, premises, hypotheses):
                return SimpleNamespace(logits=[list(logits) for _ in premises])

        error = score_with_local(tmp_path, monkeypatch, NonFinite(STANDARD), FakeTokenizer())
        assert error["error"] == "NliBackendError"
        assert error["message"].startswith("pair 0: invalid triple (nan, nan, nan): ")

    def test_a_dropped_logits_row_exits_3(self, tmp_path, monkeypatch):
        # A model that returns one row too few fails the run as a backend
        # error, not with a traceback on a missing score.
        class DropsARow(FakeModel):
            def __call__(self, premises, hypotheses):
                logits = super().__call__(premises, hypotheses).logits
                return SimpleNamespace(logits=logits[:-1])

        error = score_with_local(tmp_path, monkeypatch, DropsARow(STANDARD), FakeTokenizer())
        assert error == {
            "error": "NliBackendError",
            "message": "entailment backend returned 0 triples for 1 pairs",
        }

    def test_fingerprint_keys_the_budget_used(self, monkeypatch):
        # Unset, the budget is the declared length less 8, and that is keyed.
        def digest(declared, units=None):
            class Declaring(FakeTokenizer):
                model_max_length = declared

            monkeypatch.setattr(
                "sumfact.pipeline.LocalEntailmentBackend",
                functools.partial(
                    LocalEntailmentBackend, model=FakeModel(STANDARD), tokenizer=Declaring()
                ),
            )
            config = RunConfig(nli_backend="local:fake-ckpt", nli_max_units=units)
            return scorer_fingerprint(config, make_nli_backend(config), None)

        assert digest(512) == digest(512, 504) == digest(256, 504)
        assert digest(256) != digest(512)

    def test_explicit_max_units_overrides(self):
        backend = local_backend(max_units=64)
        assert backend.max_units == 64

    def test_tokenizer_failure_wrapped(self):
        class Exploding(FakeTokenizer):
            def __call__(self, *a, **k):
                raise RuntimeError("bad encode")

        backend = LocalEntailmentBackend(
            "fake-ckpt", model=FakeModel(STANDARD), tokenizer=Exploding()
        )
        with pytest.raises(NliBackendError, match="tokenization failed"):
            backend.submit([("a", "b")]).scores()

    def test_model_failure_wrapped(self):
        class Exploding:
            config = SimpleNamespace(id2label=STANDARD)

            def __call__(self, **kwargs):
                raise RuntimeError("cuda exploded")

        backend = LocalEntailmentBackend(
            "fake-ckpt", model=Exploding(), tokenizer=FakeTokenizer()
        )
        with pytest.raises(NliBackendError, match="forward pass"):
            backend.submit([("a", "b")]).scores()

    def test_describe(self):
        assert local_backend().describe() == "local:fake-ckpt"

    def test_softmax_rows_sum_to_one(self):
        backend = local_backend()
        row = triples(backend, [("zero overlap premise", "zebra")])[0]
        # All-zero logits soften to the uniform distribution.
        assert row[0] == pytest.approx(1 / 3)
        assert math.isclose(sum(row), 1.0, abs_tol=1e-9)
