"""Shared fixture builders for the test suite.

``doc_from_sentences`` assembles a Document from pre-split sentence texts
(joined by single spaces) plus optional cluster spans given as sentence-local
character offsets. ``random_case`` generates seeded documents, claims and
parameter sets that exercise every scoring path: gate hits and misses, coref
substitutions that win and lose, negation flips, window sizes above and below
the document length.
"""

from __future__ import annotations

import hashlib
import json
import random

from sumfact import (
    Claim,
    CorefCluster,
    Document,
    Mention,
    MockEntailmentBackend,
    Sentence,
    Summary,
    segment,
)
from sumfact.benchmark import BenchmarkRow
from sumfact.nli import TextTable, _checked

VOCAB = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lambda", "mu", "river", "city", "bridge", "meadow",
    "signal", "archive", "not", "story", "green", "quiet", "rapid", "stone",
    "harbor", "lantern", "orchard", "tunnel", "valley", "willow",
]


def doc_from_sentences(doc_id, texts, clusters=()):
    """Build a Document whose sentences are ``texts`` joined by single spaces.

    ``clusters`` is an iterable of clusters, each a list of
    ``(sentence_index, start, end)`` spans local to that sentence.
    """
    sentences = []
    cursor = 0
    for i, t in enumerate(texts):
        sentences.append(Sentence(i, cursor, cursor + len(t), t))
        cursor += len(t) + 1
    text = " ".join(texts)
    built = []
    for spans in clusters:
        mentions = tuple(
            Mention(si, a, b, texts[si][a:b]) for (si, a, b) in spans
        )
        built.append(CorefCluster(mentions))
    return Document(doc_id, text, tuple(sentences), tuple(built))


def from_text(cls, *fields):
    """A :class:`Document` or :class:`Summary` of its ``fields`` (its text
    last: ``id, text`` or ``id, document_id, text``), cut by :func:`segment`."""
    return cls(*fields, tuple(segment(fields[-1])))


def triples(backend, pairs):
    """Each pair's ``(entailment, neutral, contradiction)`` row from one
    ``_infer`` call, checked and renormalized by the backend's row rule."""
    pairs = list(pairs)
    return [_checked(*row) for row in backend._infer(pairs, TextTable(backend, [pairs]))]


class RecordingBackend(MockEntailmentBackend):
    """The mock, keeping every batch it is sent, and the text table it came with."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.batches = []
        # Kept alive, so that no two calls' tables share an id.
        self.tables = []

    def _infer(self, pairs, table):
        self.batches.append(list(pairs))
        self.tables.append(table)
        return super()._infer(pairs, table)

    @property
    def sent(self):
        """Every pair sent, batch after batch."""
        return [pair for batch in self.batches for pair in batch]

    @property
    def calls(self):
        """The batches of each ``submit`` call: a call's batches share its
        table. Calls come in the order their first batches ran."""
        calls = {}
        for table, batch in zip(self.tables, self.batches):
            calls.setdefault(id(table), []).append(batch)
        return list(calls.values())


def check_cut(
    batches, batch_size, largest=None, size=lambda pair: len(pair[0]) + len(pair[1]), bound=None
):
    """Assert that ``batches``, one call's batches in order, are its cut by padded size.

    Pair sizes (``size``, a size of 0 counting 1) ascend over the call; each
    batch's rows times its longest size stay within ``batch_size`` times
    ``largest`` (the budget's ``max_units``; by default the larger of the
    call's longest pair and ``bound``, the block's largest pair, if given),
    and every batch but the last would break that cap with the next pair.
    """
    sizes = [[max(size(pair), 1) for pair in batch] for batch in batches]
    flat = [s for batch in sizes for s in batch]
    assert flat == sorted(flat)
    if largest is None:
        largest = max(max(flat), bound or 0)
    cap = batch_size * largest
    for batch, after in zip(sizes, sizes[1:] + [None]):
        assert len(batch) * batch[-1] <= cap
        if after is not None:
            assert (len(batch) + 1) * after[0] > cap


def score_block(scorer, items, stop=None):
    """The reports of one block of ``(document, claims, claims_fallback)`` items."""
    (reports,) = scorer.score_blocks([items], stop=stop)
    return reports


def summary_from_sentences(summary_id, document_id, texts):
    sentences = []
    cursor = 0
    for i, t in enumerate(texts):
        sentences.append(Sentence(i, cursor, cursor + len(t), t))
        cursor += len(t) + 1
    return Summary(summary_id, document_id, " ".join(texts), tuple(sentences))


def benchmark_row(record_id, dataset, split, gold):
    """A benchmark row as the records file's first pass gives one, at offset
    0, with the digest of its id standing in for that of its line."""
    digest = hashlib.blake2b(record_id.encode(), digest_size=16).digest()
    return BenchmarkRow(record_id, gold, "sys", dataset, split, 0, digest)


class GivenClaims:
    """A claim extractor that answers every summary with the given claims, as they are."""

    def __init__(self, claims):
        self.claims = list(claims)

    def extract(self, summary):
        return list(self.claims)

    def describe(self):
        return "given"


def _word_span(words, a, b):
    """Character span of ``words[a:b]`` inside ``" ".join(words)``."""
    start = sum(len(w) + 1 for w in words[:a])
    return start, start + len(" ".join(words[a:b]))


def random_case(rng: random.Random, case_id: int = 0):
    """One random scoring scenario: (document, claims, params dict)."""
    n = rng.randint(1, 12)
    words_per = [
        [rng.choice(VOCAB) for _ in range(rng.randint(3, 8))] for _ in range(n)
    ]
    texts = [" ".join(ws) + "." for ws in words_per]

    clusters = []
    for _ in range(rng.randint(0, 3)):
        spans = []
        surfaces = []
        for _ in range(rng.randint(2, 4)):
            si = rng.randrange(n)
            ws = words_per[si]
            a = rng.randrange(len(ws))
            b = rng.randint(a + 1, min(len(ws), a + 3))
            start, end = _word_span(ws, a, b)
            spans.append((si, start, end))
            surfaces.append(" ".join(ws[a:b]))
        clusters.append(spans)
    doc = doc_from_sentences(f"doc-{case_id}", texts, clusters)

    cluster_surfaces = [
        m.surface for cluster in doc.coref_clusters for m in cluster.mentions
    ]
    claims = []
    for i in range(rng.randint(1, 6)):
        style = rng.random()
        if style < 0.4:
            words = [rng.choice(VOCAB) for _ in range(rng.randint(2, 6))]
        elif style < 0.7:
            # Prefix of a real sentence: high overlap, often passes the gate.
            src = words_per[rng.randrange(n)]
            words = src[: rng.randint(1, len(src))]
        elif cluster_surfaces:
            # Words of some mention surface plus noise: rewards substitution.
            words = rng.choice(cluster_surfaces).split()
            words += [rng.choice(VOCAB) for _ in range(rng.randint(0, 3))]
        else:
            words = [rng.choice(VOCAB) for _ in range(rng.randint(2, 6))]
        claims.append(Claim(f"sum-{case_id}", i, " ".join(words) + "."))

    params = {
        "window_size": rng.choice([1, 2, 3, 5, 8]),
        "gate_threshold": rng.choice([-0.1, 0.2, 0.5, 0.8, 0.95]),
        "max_coref_variants": rng.choice([3, 20]),
    }
    return doc, tuple(claims), params


NAMES = ["Maria Lopez", "Tom Baker", "Ana", "Kofi Mensah", "Lena"]
PRONOUNS = ["she", "he", "they"]


def random_news_corpus(rng: random.Random, n_docs: int, summaries_per_doc: int):
    """Documents naming people and referring back to them by pronoun, each
    with several summaries; for the heuristic coref backend.

    Returns ``(pairs, claim_cache)``: the (document, summary) pairs in
    document order, and claims for most summaries (one summary in five has
    none, so it takes the sentence fallback). Some claims name the person a
    pronoun sentence refers to, so coref variants win; some swap a name, so
    the gate misses. Summaries of one document share a claim, so units share
    (premise, hypothesis) pairs.
    """
    pairs = []
    cache: dict[str, list[str]] = {}
    for d in range(n_docs):
        texts, resolved = [], []
        name = None
        for _ in range(rng.randint(2, 9)):
            words = " ".join(rng.choice(VOCAB[:-1]) for _ in range(rng.randint(3, 6)))
            if name and rng.random() < 0.4:
                texts.append(f"{rng.choice(PRONOUNS).capitalize()} saw the {words}.")
                resolved.append(f"{name} saw the {words}.")
            else:
                name = rng.choice(NAMES)
                texts.append(f"{name} saw the {words}.")
        document = from_text(Document, f"d{d}", " ".join(texts))
        shared = f"{rng.choice(NAMES)} saw the {rng.choice(VOCAB)} {rng.choice(VOCAB)}."
        for k in range(summaries_per_doc):
            sid = f"d{d}-s{k}"
            picked = [rng.choice(texts) for _ in range(rng.randint(1, 3))]
            summary = from_text(Summary, sid, document.id, " ".join(picked))
            pairs.append((document, summary))
            if rng.random() < 0.8:
                claims = [shared] + rng.sample(texts + resolved, min(3, len(texts)))
                cache[sid] = [
                    c if rng.random() < 0.7 else c.replace(rng.choice(NAMES), rng.choice(NAMES))
                    for c in claims
                ]
    return pairs, cache


def write_news_records(directory, rng: random.Random, n_docs: int = 4, summaries_per_doc: int = 4):
    """A labeled benchmark records file over :func:`random_news_corpus`, and
    its claim cache file, in ``directory``; returns their two paths.

    Records alternate the gold label and come in validation and test pairs,
    so every split holds both classes.
    """
    pairs, cache = random_news_corpus(rng, n_docs, summaries_per_doc)
    records = directory / "records.jsonl"
    with open(records, "w", encoding="utf-8") as fh:
        for n, (document, summary) in enumerate(pairs):
            record = {
                "record_id": summary.id,
                "document": {"id": document.id, "text": document.text},
                "summary": {"id": summary.id, "text": summary.text},
                "gold_label": "factual" if n % 2 else "not_factual",
                "dataset": "news",
                "split": "validation" if n % 4 < 2 else "test",
            }
            fh.write(json.dumps(record) + "\n")
    claims = directory / "claims.json"
    claims.write_text(json.dumps(cache), encoding="utf-8")
    return str(records), str(claims)
