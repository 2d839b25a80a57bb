"""Coreference backends producing mention clusters for documents.

A backend maps a :class:`~sumfact.documents.Document` to clusters of mentions
with sentence-local offsets. Backends are pluggable; the shipped ones are
deliberately model-free so the pipeline runs without downloads. Precomputed
clusters carried in the input files always take precedence over any backend.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Protocol

from .documents import CorefCluster, Document, Mention, words

__all__ = ["CorefBackend", "NoopCorefBackend", "HeuristicCorefBackend"]


class CorefBackend(Protocol):
    # Ids of the documents whose scan stopped short, each once, in the order met.
    truncated: dict[str, None]

    def clusters(self, document: Document) -> list[CorefCluster]: ...

    def describe(self) -> str: ...


class NoopCorefBackend:
    """Returns no clusters; scoring degrades to plain sentence alignment."""

    def __init__(self):
        self.truncated: dict[str, None] = {}

    def clusters(self, document: Document) -> list[CorefCluster]:
        return []

    def describe(self) -> str:
        return "none"


_PRONOUNS = frozenset(
    {"he", "she", "him", "her", "his", "hers", "they", "them", "their", "theirs"}
)

# Capitalized tokens that start sentences or determiner phrases, not names.
_CAP_STOP = frozenset(
    {
        "the", "a", "an", "this", "that", "these", "those", "it", "its", "i",
        "you", "we", "in", "on", "at", "of", "for", "to", "and", "but", "or",
        "as", "if", "so", "yet", "when", "while", "after", "before", "then",
        "there", "here", "however", "meanwhile", "now", "also", "not", "no",
        "yes", "with", "by", "from", "into", "over", "under", "during", "is",
        "was", "are", "were", "be", "been", "being", "have", "has", "had",
        "do", "does", "did", "will", "would", "can", "could", "may", "might",
        "shall", "should", "must", "what", "which", "who", "whom", "whose",
        "why", "how", "where", "my", "your", "our", "both", "some", "all",
        "many", "most", "one", "two", "according",
    }
)

# A run of capitalized words, or else a lowercase pronoun (group 1); a pronoun
# inside a run is part of the run. Every mention starts with a capital or with
# a pronoun's first letter, so the lookahead skips every other character
# before either alternative is tried, and the matches are the same.
_MENTION_RE = re.compile(
    r"(?=[A-Z%s])(?:[A-Z][A-Za-z'’-]*(?:\s+[A-Z][A-Za-z'’-]*)*|\b(%s)\b)"
    % ("".join(sorted({p[0] for p in _PRONOUNS})), "|".join(sorted(_PRONOUNS)))
)


class HeuristicCorefBackend:
    """Deterministic rule-based resolver for tests and model-free runs.

    Links repeated proper-name spans by exact surface match (case-insensitive)
    and attaches personal pronouns to the nearest preceding name span. Not a
    substitute for a learned resolver; it exists so substitution behavior can
    be exercised without model downloads.

    ``max_sentences`` caps how many sentences are scanned (book-length inputs
    get clusters for the prefix only); ``None`` scans everything.
    ``truncated`` records the id of each document cut at the cap, once, in
    the order met.
    """

    def __init__(self, max_sentences: int | None = None):
        if max_sentences is not None and max_sentences < 1:
            raise ValueError("max_sentences must be >= 1 when set")
        self.max_sentences = max_sentences
        self.truncated: dict[str, None] = {}

    def describe(self) -> str:
        if self.max_sentences is None:
            return "heuristic"
        return f"heuristic:max_sentences={self.max_sentences}"

    def clusters(self, document: Document) -> list[CorefCluster]:
        sentences = document.sentences
        if self.max_sentences is not None and len(sentences) > self.max_sentences:
            sentences = sentences[: self.max_sentences]
            self.truncated[document.id] = None
        names: list[Mention] = []
        pronouns: list[Mention] = []
        for s in sentences:
            for m in _MENTION_RE.finditer(s.text):
                # A lowercase pronoun is its own one word; a run's words are read.
                tokens = [m.group(1)] if m.lastindex else words(m.group())
                if all(t in _CAP_STOP for t in tokens):
                    continue
                kind = pronouns if len(tokens) == 1 and tokens[0] in _PRONOUNS else names
                kind.append(Mention(s.index, m.start(), m.end(), m.group()))

        # Group names by lowercased surface, in first-appearance order.
        groups: dict[str, list[Mention]] = {}
        for mention in names:
            groups.setdefault(mention.surface.lower(), []).append(mention)

        # Each pronoun joins the cluster of the nearest preceding name.
        keys = [(m.sentence_index, m.start) for m in names]
        for pronoun in pronouns:
            i = bisect_left(keys, (pronoun.sentence_index, pronoun.start))
            if i:
                groups[names[i - 1].surface.lower()].append(pronoun)

        out: list[CorefCluster] = []
        for group in groups.values():
            mentions = sorted(group, key=lambda m: (m.sentence_index, m.start))
            if len(mentions) >= 2:
                out.append(CorefCluster(tuple(mentions)))
        return out

