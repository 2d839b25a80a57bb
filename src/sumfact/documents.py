"""Document, summary and claim data model, plus sentence segmentation.

Offsets are the source of truth everywhere: a :class:`Sentence` is a half-open
``[start, end)`` span of its source text, and a coreference :class:`Mention`
is a span local to its sentence. Construction validates that every recorded
surface string equals the corresponding slice, so downstream code can
substitute mentions or join windows without re-checking alignment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyDocument

__all__ = [
    "Sentence",
    "Mention",
    "CorefCluster",
    "Document",
    "Summary",
    "Claim",
    "RuleSegmenter",
    "segment",
    "whole_text",
    "build_claims",
    "normalize_claim_text",
    "words",
]


@dataclass(frozen=True)
class Sentence:
    """A contiguous span of a source text; ``text == source[start:end]``."""

    index: int
    start: int
    end: int
    text: str


@dataclass(frozen=True)
class Mention:
    """One mention of an entity. ``start``/``end`` are sentence-local offsets."""

    sentence_index: int
    start: int
    end: int
    surface: str


@dataclass(frozen=True)
class CorefCluster:
    """Mentions of one entity. Singletons are rejected: with no second
    surface form there is nothing to substitute."""

    mentions: tuple[Mention, ...]

    def __post_init__(self) -> None:
        if len(self.mentions) < 2:
            raise ValueError("a coreference cluster needs at least 2 mentions")


def _validate_sentences(text: str, sentences: tuple[Sentence, ...], what: str) -> None:
    """Check that ``sentences`` cut ``text`` in order, each span holding its
    text, with only whitespace between and around them.

    Spans are compared in place (``len`` and ``str.startswith``), and a
    gap is checked with ``isspace``, true of exactly the non-empty text that
    ``strip()`` empties, so no sentence is copied out of ``text``. A
    sentence text that is not a ``str`` does not match its span.
    """
    if not text.strip():
        raise EmptyDocument(f"{what} text is empty or whitespace-only")
    if not sentences:
        raise EmptyDocument(f"{what} has no sentences")
    prev_end = 0
    for pos, s in enumerate(sentences):
        start, end, sentence = s.start, s.end, s.text
        if s.index != pos:
            raise ValueError(f"{what}: sentence index {s.index} at position {pos}")
        if not (0 <= start < end <= len(text)):
            raise ValueError(f"{what}: sentence {pos} span [{start}, {end}) out of range")
        if (
            not isinstance(sentence, str)
            or len(sentence) != end - start
            or not text.startswith(sentence, start)
        ):
            raise ValueError(f"{what}: sentence {pos} text does not match its span")
        if sentence.isspace():
            raise ValueError(f"{what}: sentence {pos} is whitespace-only")
        if start < prev_end:
            raise ValueError(f"{what}: sentence {pos} overlaps the previous sentence")
        if start > prev_end and not text[prev_end:start].isspace():
            raise ValueError(f"{what}: non-whitespace text between sentences {pos - 1} and {pos}")
        prev_end = end
    if prev_end < len(text) and not text[prev_end:].isspace():
        raise ValueError(f"{what}: non-whitespace text after the last sentence")


@dataclass(frozen=True)
class Document:
    """A source document with its sentence spans and optional coref clusters."""

    id: str
    text: str
    sentences: tuple[Sentence, ...]
    coref_clusters: tuple[CorefCluster, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        _validate_sentences(self.text, self.sentences, f"document '{self.id}'")
        for ci, cluster in enumerate(self.coref_clusters):
            for m in cluster.mentions:
                if not (0 <= m.sentence_index < len(self.sentences)):
                    raise ValueError(
                        f"document '{self.id}': cluster {ci} mention points at "
                        f"sentence {m.sentence_index}, document has {len(self.sentences)}"
                    )
                s = self.sentences[m.sentence_index]
                if not (0 <= m.start < m.end <= len(s.text)):
                    raise ValueError(
                        f"document '{self.id}': cluster {ci} mention span "
                        f"[{m.start}, {m.end}) outside sentence {m.sentence_index}"
                    )
                if s.text[m.start:m.end] != m.surface:
                    raise ValueError(
                        f"document '{self.id}': cluster {ci} mention surface "
                        f"{m.surface!r} does not match its span"
                    )


@dataclass(frozen=True)
class Summary:
    """A summary of one document, segmented like a document."""

    id: str
    document_id: str
    text: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("summary id must be non-empty")
        if not self.document_id:
            raise ValueError(f"summary '{self.id}' has no document id")
        _validate_sentences(self.text, self.sentences, f"summary '{self.id}'")


@dataclass(frozen=True)
class Claim:
    """One atomic statement extracted from a summary."""

    summary_id: str
    index: int
    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError(f"claim {self.index} of summary '{self.summary_id}' is empty")
        if self.index < 0:
            raise ValueError("claim index must be >= 0")


def normalize_claim_text(text: str) -> str:
    """Collapse all whitespace runs to single spaces and strip the ends."""
    return " ".join(text.split())


def build_claims(summary_id: str, texts: Iterable[str]) -> list[Claim]:
    """Normalize, drop empties, deduplicate (keep first) and index claim texts."""
    out: list[Claim] = []
    seen: set[str] = set()
    for raw in texts:
        text = normalize_claim_text(raw)
        if not text or text in seen:
            continue
        seen.add(text)
        out.append(Claim(summary_id, len(out), text))
    return out


# Tokens (lowercased, surrounding brackets/quotes stripped) after which a
# single period does not end a sentence.
_ABBREVIATIONS = frozenset(
    {
        "dr", "mr", "mrs", "ms", "prof", "rev", "hon", "gen", "col", "sgt",
        "lt", "capt", "cmdr", "gov", "sen", "rep", "pres", "sr", "jr", "st",
        "mt", "ft", "vs", "etc", "al", "approx", "dept", "est", "inc", "ltd",
        "co", "corp", "no", "vol", "fig", "ed", "eds", "p", "pp", "e.g",
        "i.e", "cf", "u.s", "u.k", "u.n", "jan", "feb", "mar", "apr", "jun",
        "jul", "aug", "sep", "sept", "oct", "nov", "dec", "mon", "tue",
        "wed", "thu", "fri", "sat", "sun",
    }
)

_CLOSERS = "\"')]}»”’"


def _terminal_runs(text: str) -> list[tuple[int, int, int]]:
    """Each run of terminal punctuation (``.``, ``!`` or ``?``) in ``text``,
    then any closing quotes or brackets, in order: where the run starts,
    where its punctuation ends and where its closers end.

    ``!`` and ``?`` are made periods in a copy of ``text`` of the same
    length (``str.replace`` returns ``text`` itself when it has neither), so
    every run is found with ``str.find``, several times faster than a regex
    scan.
    """
    marks = text.replace("!", ".").replace("?", ".")
    runs = []
    n = len(text)
    start = marks.find(".")
    while start >= 0:
        stop = start + 1
        while stop < n and marks[stop] == ".":
            stop += 1
        end = stop
        while end < n and text[end] in _CLOSERS:
            end += 1
        runs.append((start, stop, end))
        start = marks.find(".", end)
    return runs


class RuleSegmenter:
    """Deterministic sentence splitter.

    Splits after a run of terminal punctuation (plus any closing quotes or
    brackets) that is followed by whitespace or end of text. A lone period is
    suppressed when the token before it is a known abbreviation. Emitted spans
    are trimmed of surrounding whitespace, so re-segmenting a single extracted
    sentence returns exactly that sentence. The runs are found by
    :func:`_terminal_runs`.
    """

    def __init__(self, abbreviations: Iterable[str] = _ABBREVIATIONS):
        self._abbrev = frozenset(a.lower() for a in abbreviations)

    def segment(self, text: str) -> list[Sentence]:
        _require_text(text)
        spans: list[tuple[int, int]] = []
        n = len(text)
        sent_start = 0
        for start, stop, end in _terminal_runs(text):
            if end < n and not text[end].isspace():
                continue
            if text[start:stop] == "." and self._preceding_token(text, start) in self._abbrev:
                continue
            spans.append((sent_start, end))
            sent_start = end
        if sent_start < n:
            spans.append((sent_start, n))
        sentences: list[Sentence] = []
        for start, end in spans:
            while start < end and text[start].isspace():
                start += 1
            while end > start and text[end - 1].isspace():
                end -= 1
            if start < end:
                sentences.append(Sentence(len(sentences), start, end, text[start:end]))
        return sentences

    @staticmethod
    def _preceding_token(text: str, dot: int) -> str:
        start = dot
        while start > 0 and not text[start - 1].isspace():
            start -= 1
        return text[start:dot].strip("\"'([{").lower()


def _require_text(text: str) -> None:
    if not text.strip():
        raise EmptyDocument("cannot segment empty or whitespace-only text")


_DEFAULT_SEGMENTER = RuleSegmenter()

# Runs of alphanumeric characters (unicode-aware, underscore excluded), matched
# in the lowercased text by :func:`words`: the one word rule of the mock
# backend, the claim overlap metrics and the heuristic coref backend.
WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Index ``i`` holds ``chr(i)`` lowercased if it is alphanumeric, else a space:
# on ASCII text, what ``WORD_RE`` matches after ``lower()``.
_ASCII_WORDS = "".join(c.lower() if c.isalnum() else " " for c in map(chr, range(128)))


def words(text: str) -> list[str]:
    """``WORD_RE.findall(text.lower())``: the lowercased words of ``text``.

    ASCII text (the common case) takes a fast path with the same result:
    one ``str.translate`` that lowercases and blanks out separators, then
    ``str.split``. Any other text goes through the regex.
    """
    if text.isascii():
        return text.translate(_ASCII_WORDS).split()
    return WORD_RE.findall(text.lower())


def segment(text: str) -> list[Sentence]:
    """Split ``text`` into sentences with the default rule segmenter."""
    return _DEFAULT_SEGMENTER.segment(text)


def whole_text(text: str) -> list[Sentence]:
    """``text`` less its surrounding whitespace, as one sentence.

    Checks what :func:`segment` checks without segmenting: segmenting fails
    only on blank text, and this raises the same error there.
    """
    _require_text(text)
    start = len(text) - len(text.lstrip())
    end = len(text.rstrip())
    return [Sentence(0, start, end, text[start:end])]
