"""Entailment backends: (premise, hypothesis) -> probability triple.

A backend gives each pair the probabilities of entailment, neutrality and
contradiction. The alignment score used throughout the toolkit is
``entailment - contradiction``, a value in [-1, 1].

Three backends are provided: a deterministic lexical mock (the test
workhorse), an HTTP client for a remote scoring service, and an adapter for a
local transformers sequence-classification checkpoint.

``EntailmentBackend.submit`` checks every pair in one pass, so the budget
guard sizes each distinct text once, and builds a :class:`TextTable` of the
call's distinct texts. A backend's ``_infer(pairs, table)`` runs once per
size-sorted batch, with up to ``workers`` batches in flight at once, and
returns one row of three probabilities per pair,
``(entailment, neutral, contradiction)``, three values that ``float`` takes;
it may read per-text features from the table, computed once per call by
the backend's ``_featurise``, and must not retain the table, which lives
only for that one call. The :class:`Inference` that ``submit`` returns
checks each batch's row count and every row once, with the one row rule
(:func:`_checked`), as it reads them, whatever the backend, and gives each
pair's alignment score (``submit(pairs).scores()``), the one way a backend
is read. ``submit`` starts a call without waiting for it, so a caller can
have the next call's batches in flight while it reads this one's.

Batches are capped by padded size, not by pair count (see :class:`Inference`).
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from .documents import words
from .errors import NliBackendError, OversizedPremise
from .remote import JsonService

__all__ = [
    "TextTable",
    "Inference",
    "EntailmentBackend",
    "MockEntailmentBackend",
    "RemoteEntailmentBackend",
    "LocalEntailmentBackend",
]

_SUM_TOLERANCE = 1e-3
# The smallest premise budget, in backend units, that fits a useful pair.
MIN_UNITS = 16

Pair = tuple[str, str]
# Probabilities of entailment, neutrality and contradiction, in that order.
Row = tuple[float, float, float]
_NAMES = ("entailment", "neutral", "contradiction")


def _checked(e: float, n: float, c: float) -> Row:
    """A probability row, checked and renormalized: the one row rule.

    Each probability must lie in [0, 1] and the three must sum to 1 within
    1e-3; otherwise ``ValueError`` names the first offending value, or the
    sum. A row that sums to exactly 1 is returned as is, any other is
    renormalized to sum to 1.
    """
    if not (0.0 <= e <= 1.0 and 0.0 <= n <= 1.0 and 0.0 <= c <= 1.0):
        # NaN fails every comparison, so it lands here too.
        for name, value in zip(_NAMES, (e, n, c)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability {value!r} outside [0, 1]")
    total = e + n + c
    if total == 1.0:
        return e, n, c
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {_SUM_TOLERANCE}")
    return e / total, n / total, c / total


def _read_row(i: int, row) -> Row:
    """The row rule for any backend's row: its three values are taken as
    floats, and a row the rule rejects raises :class:`NliBackendError`
    naming pair ``i``, its index in the call's input."""
    try:
        ent, neu, con = row
        return _checked(float(ent), float(neu), float(con))
    except (TypeError, ValueError) as exc:
        raise NliBackendError(f"pair {i}: invalid triple {row!r}: {exc}") from exc


class TextTable(dict):
    """Features of the distinct texts of one :meth:`EntailmentBackend.submit` call.

    Looking a text up gives its features (the backend's ``_featurise``,
    looked up on the first miss, so a backend that never reads the table
    needs none), computed on first use; batches running at once on the
    pool may look texts up together, and a text two of them featurise
    together is featurised twice, to equal values. The table knows each text's last
    batch: :meth:`release` after batch ``b`` drops the texts that no later
    batch holds, so only texts of pairs still to come keep their features;
    only the thread that reads the results releases, and never a text of a
    batch still running. The table lives with its one call (its
    :class:`Inference`) and is never kept on the backend.
    """

    __slots__ = ("_backend", "_drops")

    def __init__(self, backend: EntailmentBackend, batches: Sequence[Sequence[Pair]]):
        super().__init__()
        self._backend = backend
        last: dict[str, int] = {}
        for b, batch in enumerate(batches):
            for premise, hypothesis in batch:
                last[premise] = last[hypothesis] = b
        self._drops: list[list[str]] = [[] for _ in batches]
        for text, b in last.items():
            self._drops[b].append(text)

    def __missing__(self, text: str):
        features = self[text] = self._backend._featurise(text)
        return features

    def release(self, b: int) -> None:
        """Count batch ``b`` as inferred; forget the texts it used last."""
        for text in self._drops[b]:
            self.pop(text, None)


def _cut(order: list[int], lengths: list[int], cap: int) -> list[list[int]]:
    """Cut ``order``, indices sorted by ``lengths``, in one greedy pass: a
    batch takes the next index while its rows times its last (longest)
    length stay within ``cap``, a length of 0 counting as 1. Every length
    must be at most ``cap``, so that each batch holds an index.
    """
    chunks = []
    lo = 0
    for k, i in enumerate(order):
        if (k - lo + 1) * (lengths[i] or 1) > cap:
            chunks.append(order[lo:k])
            lo = k
    if order:
        chunks.append(order[lo:])
    return chunks


class Inference:
    """The results of one :meth:`EntailmentBackend.submit` call.

    Every pair is checked on construction, in one pass and in input order;
    the first offending pair raises: a premise or hypothesis must be
    non-empty, and with a budget the pair must fit it, each distinct text
    measured once, unless ``sizes`` already holds its ``measure``; the texts
    measured here are added to ``sizes``, so a caller that passes one map to
    several calls measures each text once over all of them. The pairs
    are then stable-sorted by size (premise plus hypothesis: measured units
    with a budget, characters without) and cut in one pass (:func:`_cut`):
    a batch takes the next pair while its rows times its longest pair stay
    within ``batch_size`` times the largest size L a pair may have. With a
    budget L is the backend's ``max_units`` and ``bound`` is not read.
    Without one, L is the larger of ``bound`` and the call's longest pair
    (a coref variant can outgrow a one-sentence document), or the call's
    longest pair when ``bound`` is ``None``. ``bound`` is the largest pair,
    in characters, that the caller's related calls may send: a scorer block
    in the full pipeline passes its largest pair (a whole document with its
    claim) to every wave, so that they share one cap, and passes none under
    the ablation stops, which send no document pair. So each batch holds
    pairs of similar size, a model pads little, no batch pads beyond
    ``batch_size`` pairs of size L, and a call of short pairs fills batches
    as large as its related calls may pad. With one worker the
    batches run when the results are read, one after another; otherwise
    they go to the backend's pool on construction, and a call of short
    pairs may fill fewer batches than there are workers.

    Results are gathered in batch order. Each batch must give one row per
    pair, and each row is taken as floats and checked once as it is read,
    with the rule of :func:`_checked`; a failure raises that of the first
    failing batch and cancels the batches not yet started, as
    :meth:`cancel` does. From every backend a wrong row count or a bad row
    raises :class:`NliBackendError`, a bad row naming its pair by its index
    in ``pairs``.
    """

    def __init__(
        self,
        backend: EntailmentBackend,
        pairs: Sequence[Pair],
        sizes: dict[str, int] | None = None,
        bound: int | None = None,
    ):
        max_units = backend.max_units
        measured = {} if sizes is None else sizes
        lengths = []
        for i, (premise, hypothesis) in enumerate(pairs):
            if not premise:
                raise ValueError(f"pair {i}: premise must be non-empty")
            if not hypothesis:
                raise ValueError(f"pair {i}: hypothesis must be non-empty")
            if max_units is None:
                lengths.append(len(premise) + len(hypothesis))
                continue
            if premise not in measured:
                measured[premise] = backend.measure(premise)
            if hypothesis not in measured:
                measured[hypothesis] = backend.measure(hypothesis)
            units = measured[premise] + measured[hypothesis]
            if units > max_units:
                raise OversizedPremise(
                    f"pair {i}: premise+hypothesis measure {units} units, budget is {max_units}"
                )
            lengths.append(units)
        self._size = len(pairs)
        order = sorted(range(len(pairs)), key=lengths.__getitem__)
        largest = max_units or max(max(lengths, default=1), bound or 0)
        self._chunks = _cut(order, lengths, backend.batch_size * largest)
        self._batches = [[pairs[i] for i in chunk] for chunk in self._chunks]
        self._table = TextTable(backend, self._batches)
        self._infer = backend._infer
        self._futures = None
        if backend._executor is not None:
            submit = backend._executor.submit
            self._futures = [submit(self._infer, b, self._table) for b in self._batches]

    def scores(self) -> list[float]:
        """Each pair's alignment score, ``entailment - contradiction`` of its
        checked row, in input order; waits for every batch."""
        if self._futures is None:
            results = (self._infer(batch, self._table) for batch in self._batches)
        else:
            results = (future.result() for future in self._futures)
        out: list = [None] * self._size
        try:
            for b, (chunk, rows) in enumerate(zip(self._chunks, results)):
                if len(rows) != len(chunk):
                    raise NliBackendError(
                        f"entailment backend returned {len(rows)} triples for {len(chunk)} pairs"
                    )
                for i, row in zip(chunk, rows):
                    e, _, c = _read_row(i, row)
                    out[i] = e - c
                self._table.release(b)
        except BaseException:
            self.cancel()
            raise
        return out

    def cancel(self) -> None:
        """Drop the batches not yet started; those running finish unread."""
        for future in self._futures or ():
            future.cancel()


class EntailmentBackend:
    """Shared plumbing: input validation, budget checks, batch chunking.

    ``max_units`` is the premise budget: the largest combined size of premise
    plus hypothesis, in :meth:`measure` units (characters for the mock,
    tokens for model backends), or ``None`` for no budget. The constructor
    rejects one below ``MIN_UNITS``.

    Subclasses implement :meth:`_infer`, called once per batch with the
    call's :class:`TextTable`; a batch is capped by padded size (see
    :class:`Inference`), so it may hold more than ``batch_size`` short
    pairs. ``_infer`` returns one ``(entailment, neutral, contradiction)``
    row per pair, which :class:`Inference` checks once with the row rule
    of every backend, so a bad row raises :class:`NliBackendError`. It may
    read per-text features from the table and must not retain it; a
    backend that reads the table defines ``_featurise(text)``, which gives
    what ``_infer`` finds there for ``text``. With ``workers`` above 1,
    and only then, the backend has a pool of that many threads, built with
    it and shared by every call, so ``_infer`` must be safe to run
    concurrently. Results must not depend on how callers batch their pairs
    or on ``workers``.
    """

    def __init__(self, *, batch_size: int = 32, max_units: int | None = None, workers: int = 1):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_units is not None and max_units < MIN_UNITS:
            raise ValueError(f"budget below {MIN_UNITS} units cannot fit any useful pair")
        self.batch_size = batch_size
        self.max_units = max_units
        self.workers = workers
        # One worker infers inline, each batch as its results are read. A pool
        # of one would featurise a whole wave ahead of the reader, so that
        # TextTable.release frees little: on perfbench bench-cold (seed 1,
        # --seconds 3, two alternating pairs, a 2-core Xeon) peak_rss_mb read
        # 33.66 and 33.72 MiB with a pool of one against 29.67 and 29.61 inline.
        self._executor = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def describe(self) -> str:
        raise NotImplementedError

    def measure(self, text: str) -> int:
        """Size of ``text`` in budget units. Default: characters."""
        return len(text)

    def submit(
        self,
        pairs: Sequence[Pair],
        sizes: dict[str, int] | None = None,
        bound: int | None = None,
    ) -> Inference:
        """Check ``pairs`` and start inferring them; the result is read later.

        ``sizes`` maps texts the caller has already measured to their
        :meth:`measure`, so the budget check does not measure them again,
        and gains the texts the check measures. ``bound`` is the largest
        pair of the caller's related calls, for the batch cap (see
        :class:`Inference`). Calls in flight together share the pool, so at
        most ``workers`` batches run at once however many calls there are.
        """
        return Inference(self, pairs, sizes, bound)

    def _infer(self, pairs: list[Pair], table: TextTable) -> Sequence[Row]:
        raise NotImplementedError


class MockEntailmentBackend(EntailmentBackend):
    """Deterministic lexical stand-in for a real entailment model.

    With unigram sets P and H (lowercased, split on non-alphanumerics) and
    overlap ratio ``o = |P & H| / |H|`` (0 when H is empty), the triple is
    ``(o, 1 - o, 0)``. If exactly one side contains the token "not", the mass
    flips to ``(0, 1 - o, o)`` so negation mismatches read as contradiction.
    Each text's unigram set is its table entry, built once per call by
    :func:`~sumfact.documents.words`, whose ASCII fast path gives the same
    words as the regex.
    """

    def describe(self) -> str:
        return "mock"

    def _featurise(self, text: str) -> set[str]:
        return set(words(text))

    def _infer(self, pairs: list[Pair], table: TextTable) -> list[Row]:
        out = []
        for premise, hypothesis in pairs:
            p = table[premise]
            h = table[hypothesis]
            o = len(p & h) / len(h) if h else 0.0
            if ("not" in p) != ("not" in h):
                out.append((0.0, 1.0 - o, o))
            else:
                out.append((o, 1.0 - o, 0.0))
        return out


class RemoteEntailmentBackend(EntailmentBackend):
    """Client for a remote scoring service.

    Protocol: POST ``{"pairs": [[premise, hypothesis], ...]}`` to ``url``;
    the service answers ``{"triples": [[ent, neu, con], ...]}`` in the same
    order, posted through :mod:`sumfact.remote` with 2 retries, as many as
    the claim client's default. Its rows pass the one row rule that every
    backend's rows pass, so a bad row raises :class:`NliBackendError`
    naming its pair (see :class:`Inference`).
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 30.0,
        batch_size: int = 32,
        max_units: int | None = None,
        workers: int = 1,
    ):
        super().__init__(batch_size=batch_size, max_units=max_units, workers=workers)
        self.url = url
        self._service = JsonService(
            url, "entailment service", NliBackendError, timeout=timeout, retries=2
        )

    def describe(self) -> str:
        return f"remote:{self.url}"

    def _infer(self, pairs: list[Pair], table: TextTable) -> list[Row]:
        payload = self._service.post({"pairs": [[p, h] for p, h in pairs]})
        triples = payload.get("triples") if isinstance(payload, dict) else None
        if not isinstance(triples, list):
            raise NliBackendError(
                f"entailment service returned no list of triples for {len(pairs)} pairs"
            )
        return triples


def _softmax(row: Sequence[float]) -> list[float]:
    peak = max(row)
    exps = [math.exp(x - peak) for x in row]
    total = sum(exps)
    return [x / total for x in exps]


class LocalEntailmentBackend(EntailmentBackend):
    """Adapter for a local transformers sequence-classification checkpoint.

    The label layout is resolved from the model config's ``id2label`` by name
    (substring match on "entail"/"neutral"/"contradict"), never by position;
    pass ``label_map`` explicitly when the config is missing or ambiguous.
    ``model`` and ``tokenizer`` can be injected to avoid loading weights in
    tests; the objects only need the calling conventions used below.

    Without ``max_units`` the budget is taken from the tokenizer's declared
    ``model_max_length`` (the rule is in the README's ``nli_max_units`` row);
    a length that leaves below ``MIN_UNITS`` raises :class:`NliBackendError`.
    Each softmaxed row is checked with the one row rule of every backend,
    so NaN or infinite logits raise :class:`NliBackendError` naming their
    pair (see :class:`Inference`).
    """

    def __init__(
        self,
        checkpoint: str,
        *,
        label_map: dict[str, int] | None = None,
        device: str = "cpu",
        batch_size: int = 16,
        max_units: int | None = None,
        workers: int = 1,
        model=None,
        tokenizer=None,
    ):
        super().__init__(batch_size=batch_size, max_units=max_units, workers=workers)
        self.checkpoint = checkpoint
        if model is None or tokenizer is None:
            try:
                from transformers import (  # type: ignore
                    AutoModelForSequenceClassification,
                    AutoTokenizer,
                )
            except ImportError as exc:
                raise NliBackendError(
                    "the local entailment backend needs the 'transformers' package; "
                    "install the [models] extra"
                ) from exc
            tokenizer = tokenizer or AutoTokenizer.from_pretrained(checkpoint)
            if model is None:
                model = AutoModelForSequenceClassification.from_pretrained(checkpoint)
                model.to(device)
                model.eval()
        self._model = model
        self._tokenizer = tokenizer
        self._device = device
        self._labels = self._resolve_labels(label_map)
        if max_units is None:
            declared = getattr(tokenizer, "model_max_length", None)
            # Tokenizers that know no real limit report a huge sentinel.
            if isinstance(declared, int) and declared <= 100_000:
                limit = declared - 8
                if limit < MIN_UNITS:
                    raise NliBackendError(
                        f"tokenizer of {checkpoint!r} declares model_max_length {declared}, which "
                        f"leaves a budget of {limit} units, below the {MIN_UNITS} a pair needs"
                    )
                self.max_units = limit

    def describe(self) -> str:
        return f"local:{self.checkpoint}"

    def measure(self, text: str) -> int:
        return len(self._tokenizer.tokenize(text))

    def _resolve_labels(self, label_map: dict[str, int] | None) -> tuple[int, int, int]:
        if label_map is not None:
            try:
                return (label_map["entailment"], label_map["neutral"], label_map["contradiction"])
            except KeyError as exc:
                raise NliBackendError(f"label_map is missing the {exc} label") from exc
        id2label = getattr(getattr(self._model, "config", None), "id2label", None) or {}
        found: dict[str, int] = {}
        for idx, name in id2label.items():
            lowered = str(name).lower()
            for key, needle in (
                ("entailment", "entail"),
                ("neutral", "neutral"),
                ("contradiction", "contradict"),
            ):
                if needle in lowered:
                    if key in found:
                        raise NliBackendError(
                            f"checkpoint '{self.checkpoint}' has ambiguous label '{name}'; "
                            "pass label_map explicitly"
                        )
                    found[key] = int(idx)
        if set(found) != {"entailment", "neutral", "contradiction"}:
            raise NliBackendError(
                f"cannot resolve entailment/neutral/contradiction labels for "
                f"'{self.checkpoint}' from id2label={id2label!r}; pass label_map explicitly"
            )
        return (found["entailment"], found["neutral"], found["contradiction"])

    def _infer(self, pairs: list[Pair], table: TextTable) -> list[Row]:
        premises = [p for p, _ in pairs]
        hypotheses = [h for _, h in pairs]
        try:
            encoded = self._tokenizer(
                premises, hypotheses, padding=True, truncation=False, return_tensors="pt"
            )
        except Exception as exc:
            raise NliBackendError(f"tokenization failed: {exc}") from exc
        try:
            import torch  # type: ignore

            guard = torch.no_grad()
        except ImportError:
            guard = contextlib.nullcontext()
        encoded = {k: (v.to(self._device) if hasattr(v, "to") else v) for k, v in encoded.items()}
        try:
            with guard:
                logits = self._model(**encoded).logits
        except Exception as exc:
            raise NliBackendError(f"model forward pass failed: {exc}") from exc
        rows = logits.tolist() if hasattr(logits, "tolist") else list(logits)
        ent_i, neu_i, con_i = self._labels
        return [(probs[ent_i], probs[neu_i], probs[con_i]) for probs in map(_softmax, rows)]
