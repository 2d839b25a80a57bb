"""Entailment backends: (premise, hypothesis) -> probability triple.

Every backend returns an :class:`EntailmentTriple` whose components are the
probabilities of entailment, neutrality and contradiction. The alignment
score used throughout the toolkit is ``entailment - contradiction``, a value
in [-1, 1].

Three backends are provided: a deterministic lexical mock (the test
workhorse), an HTTP client for a remote scoring service, and an adapter for a
local transformers sequence-classification checkpoint.

``EntailmentBackend.entail_batch`` checks every pair in one pass and builds a
:class:`TextTable` of the call's distinct texts, so the budget guard sizes
each distinct text once. A backend's ``_infer(pairs, table)`` runs once per
length-sorted batch of at most ``batch_size`` pairs, with up to ``workers``
batches in flight at once; it may read per-text features from the table,
computed once per call, and must not retain the table, which lives only for
that one call. ``submit`` starts a call without waiting for it, so a caller
can have the next call's batches in flight while it reads this one's.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .documents import WORD_RE
from .errors import NliBackendError, OversizedPremise

if TYPE_CHECKING:
    import requests

__all__ = [
    "EntailmentTriple",
    "PremiseBudget",
    "TextTable",
    "Inference",
    "EntailmentBackend",
    "MockEntailmentBackend",
    "RemoteEntailmentBackend",
    "LocalEntailmentBackend",
]

_SUM_TOLERANCE = 1e-3

Pair = tuple[str, str]


@dataclass(frozen=True)
class EntailmentTriple:
    """Class probabilities for one premise/hypothesis pair.

    Each component must lie in [0, 1] and the three must sum to 1 within
    1e-3; larger deviations raise. On construction the triple is renormalized
    so the stored components sum to exactly 1.
    """

    entailment: float
    neutral: float
    contradiction: float

    def __post_init__(self) -> None:
        for name in ("entailment", "neutral", "contradiction"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0) or math.isnan(value):
                raise ValueError(f"{name} probability {value!r} outside [0, 1]")
        total = self.entailment + self.neutral + self.contradiction
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {_SUM_TOLERANCE}")
        if total != 1.0:
            object.__setattr__(self, "entailment", self.entailment / total)
            object.__setattr__(self, "neutral", self.neutral / total)
            object.__setattr__(self, "contradiction", self.contradiction / total)

    @property
    def score(self) -> float:
        """Signed alignment score: entailment minus contradiction."""
        return self.entailment - self.contradiction


@dataclass(frozen=True)
class PremiseBudget:
    """Maximum combined size of premise plus hypothesis, in backend units
    (characters for the mock, tokens for model backends)."""

    max_units: int

    def __post_init__(self) -> None:
        if self.max_units < 16:
            raise ValueError("budget below 16 units cannot fit any useful pair")


class TextTable(dict):
    """The distinct texts of one :meth:`EntailmentBackend.entail_batch` call.

    Built in one pass over the call's pairs, which checks them in input
    order: a premise or hypothesis must be non-empty, and with a budget the
    pair must fit it, each distinct text measured once. Looking a text up
    gives its features (the backend's ``_featurise``), computed on first use;
    batches running at once on the pool may look texts up together, and a
    text two of them featurise together is featurised twice, to equal
    values. :meth:`release` after each batch drops every text whose last pair
    has been inferred, so only texts of pairs still to come keep their
    features; only the thread that reads the results releases, and never a
    text of a batch still running. The table lives with its one call (its
    :class:`Inference`) and is never kept on the backend.
    """

    __slots__ = ("_featurise", "_uses")

    def __init__(self, backend: EntailmentBackend, pairs: Sequence[Pair]):
        super().__init__()
        self._featurise = backend._featurise
        uses: dict[str, int] = {}
        budget = backend.budget
        sizes: dict[str, int] = {}
        for i, (premise, hypothesis) in enumerate(pairs):
            if not premise:
                raise ValueError(f"pair {i}: premise must be non-empty")
            if not hypothesis:
                raise ValueError(f"pair {i}: hypothesis must be non-empty")
            uses[premise] = uses.get(premise, 0) + 1
            uses[hypothesis] = uses.get(hypothesis, 0) + 1
            if budget is None:
                continue
            for text in (premise, hypothesis):
                if text not in sizes:
                    sizes[text] = backend.measure(text)
            units = sizes[premise] + sizes[hypothesis]
            if units > budget.max_units:
                raise OversizedPremise(
                    f"pair {i}: premise+hypothesis measure {units} units, "
                    f"budget is {budget.max_units}"
                )
        self._uses = uses

    def __missing__(self, text: str):
        features = self[text] = self._featurise(text)
        return features

    def release(self, pairs: Sequence[Pair]) -> None:
        """Count ``pairs`` as inferred; forget each text at its last use."""
        uses = self._uses
        for pair in pairs:
            for text in pair:
                left = uses[text] - 1
                if left:
                    uses[text] = left
                else:
                    del uses[text]
                    self.pop(text, None)


class Inference:
    """The triples of one :meth:`EntailmentBackend.submit` call.

    Every pair is checked on construction; the first offending pair in
    input order raises. The pairs are then stable-sorted by character length
    (premise plus hypothesis) and cut into batches of ``batch_size``, so each
    batch holds pairs of similar length and a model pads little. With one
    worker the batches run in :meth:`result`, one after another; otherwise
    they go to the backend's pool on construction. :meth:`result` gathers them in
    batch order, so a failure raises that of the first failing batch, and
    cancels the batches not yet started, as :meth:`cancel` does.
    """

    def __init__(self, backend: EntailmentBackend, pairs: Sequence[Pair]):
        self._size = len(pairs)
        self._table = TextTable(backend, pairs)
        order = sorted(range(len(pairs)), key=lambda i: len(pairs[i][0]) + len(pairs[i][1]))
        size = backend.batch_size
        self._chunks = [order[lo : lo + size] for lo in range(0, len(order), size)]
        self._batches = [[pairs[i] for i in chunk] for chunk in self._chunks]
        self._infer = backend._infer
        self._futures = None
        if backend.workers > 1:
            pool = backend._pool()
            self._futures = [pool.submit(self._infer, b, self._table) for b in self._batches]

    def result(self) -> list[EntailmentTriple]:
        """The triples, in input order; waits for every batch."""
        if self._futures is None:
            results = (self._infer(batch, self._table) for batch in self._batches)
        else:
            results = (future.result() for future in self._futures)
        out: list[EntailmentTriple | None] = [None] * self._size
        try:
            for chunk, batch, triples in zip(self._chunks, self._batches, results):
                for i, triple in zip(chunk, triples):
                    out[i] = triple
                self._table.release(batch)
        except BaseException:
            self.cancel()
            raise
        return out  # type: ignore[return-value]

    def cancel(self) -> None:
        """Drop the batches not yet started; those running finish unread."""
        for future in self._futures or ():
            future.cancel()


class EntailmentBackend:
    """Shared plumbing: input validation, budget checks, batch chunking.

    Subclasses implement :meth:`_infer`, called once per batch of at most
    ``batch_size`` pairs with the call's :class:`TextTable`; it may read
    per-text features from the table (see :meth:`_featurise`) and must not
    retain it. With ``workers`` above 1, batches run on a pool of that many
    threads, shared by every call, so ``_infer`` must be safe to run
    concurrently. Results must not depend on how callers batch their pairs
    or on ``workers``.
    """

    budget: PremiseBudget | None = None
    _executor: ThreadPoolExecutor | None = None

    def __init__(
        self, *, batch_size: int = 32, budget: PremiseBudget | None = None, workers: int = 1
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.batch_size = batch_size
        self.budget = budget
        self.workers = workers

    def describe(self) -> str:
        raise NotImplementedError

    def measure(self, text: str) -> int:
        """Size of ``text`` in budget units. Default: characters."""
        return len(text)

    def entail_batch(self, pairs: Sequence[Pair]) -> list[EntailmentTriple]:
        """Triples for ``pairs``, in input order (see :class:`Inference`)."""
        return self.submit(pairs).result()

    def submit(self, pairs: Sequence[Pair]) -> Inference:
        """Check ``pairs`` and start inferring them; the result is read later.

        Calls in flight together share the pool, so at most ``workers``
        batches run at once however many calls there are.
        """
        return Inference(self, pairs)

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        return self._executor

    def _featurise(self, text: str):
        """What :meth:`_infer` finds for ``text`` in the table. Default: the text."""
        return text

    def _infer(self, pairs: list[Pair], table: TextTable) -> list[EntailmentTriple]:
        raise NotImplementedError


class MockEntailmentBackend(EntailmentBackend):
    """Deterministic lexical stand-in for a real entailment model.

    With unigram sets P and H (lowercased, split on non-alphanumerics) and
    overlap ratio ``o = |P & H| / |H|`` (0 when H is empty), the triple is
    ``(o, 1 - o, 0)``. If exactly one side contains the token "not", the mass
    flips to ``(0, 1 - o, o)`` so negation mismatches read as contradiction.
    Each text's unigram set is its table entry, built once per call.
    """

    def describe(self) -> str:
        return "mock"

    def _featurise(self, text: str) -> set[str]:
        return set(WORD_RE.findall(text.lower()))

    def _infer(self, pairs: list[Pair], table: TextTable) -> list[EntailmentTriple]:
        out = []
        for premise, hypothesis in pairs:
            p = table[premise]
            h = table[hypothesis]
            o = len(p & h) / len(h) if h else 0.0
            if ("not" in p) != ("not" in h):
                out.append(EntailmentTriple(0.0, 1.0 - o, o))
            else:
                out.append(EntailmentTriple(o, 1.0 - o, 0.0))
        return out


class RemoteEntailmentBackend(EntailmentBackend):
    """Client for a remote scoring service.

    Protocol: POST ``{"pairs": [[premise, hypothesis], ...]}`` to ``url``;
    the service answers ``{"triples": [[ent, neu, con], ...]}`` in the same
    order. Any transport failure, non-2xx status, length mismatch or invalid
    triple raises :class:`NliBackendError`. ``requests`` is imported here,
    not with the module, so runs without a remote backend never load it.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 30.0,
        batch_size: int = 32,
        budget: PremiseBudget | None = None,
        workers: int = 1,
        session: requests.Session | None = None,
    ):
        import requests

        super().__init__(batch_size=batch_size, budget=budget, workers=workers)
        self.url = url
        self.timeout = timeout
        self._session = session or requests.Session()

    def describe(self) -> str:
        return f"remote:{self.url}"

    def _infer(self, pairs: list[Pair], table: TextTable) -> list[EntailmentTriple]:
        import requests

        try:
            response = self._session.post(
                self.url, json={"pairs": [[p, h] for p, h in pairs]}, timeout=self.timeout
            )
            response.raise_for_status()
            payload = response.json()
        except requests.RequestException as exc:
            raise NliBackendError(f"entailment service at {self.url} failed: {exc}") from exc
        except ValueError as exc:
            raise NliBackendError(f"entailment service returned non-JSON output: {exc}") from exc
        triples = payload.get("triples") if isinstance(payload, dict) else None
        if not isinstance(triples, list) or len(triples) != len(pairs):
            raise NliBackendError(
                f"entailment service returned {0 if not isinstance(triples, list) else len(triples)} "
                f"triples for {len(pairs)} pairs"
            )
        out = []
        for i, row in enumerate(triples):
            try:
                ent, neu, con = row
                out.append(EntailmentTriple(float(ent), float(neu), float(con)))
            except (TypeError, ValueError) as exc:
                raise NliBackendError(f"pair {i}: invalid triple {row!r}: {exc}") from exc
        return out


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
        super().__init__(batch_size=batch_size, workers=workers)
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
        limit = max_units
        if limit is None:
            declared = getattr(tokenizer, "model_max_length", None)
            # Some tokenizers report a huge sentinel instead of a real limit.
            if isinstance(declared, int) and 16 <= declared <= 100_000:
                limit = declared - 8
        if limit is not None:
            self.budget = PremiseBudget(limit)

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

    def _infer(self, pairs: list[Pair], table: TextTable) -> list[EntailmentTriple]:
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
        out = []
        for row in rows:
            probs = _softmax(row)
            out.append(EntailmentTriple(probs[ent_i], probs[neu_i], probs[con_i]))
        return out
