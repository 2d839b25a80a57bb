"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the seed, so one seed always gives the
same files. The vocabulary is fixed (it does not depend on the seed) so that
input properties such as sentence length and score spread stay alike across
seeds, and throughput from two seeds is comparable.

Sentences use lowercase invented words that end in a vowel. That keeps them
clear of the segmenter's abbreviation list and of the heuristic coref
backend, which treats capitalised runs as names: the only capitalised words
are the people's names, "He"/"She" and "The".
"""

from __future__ import annotations

import json
import os
import random

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _vocabulary(size: int = 2400) -> list[str]:
    rng = random.Random(20240305)
    words: set[str] = set()
    while len(words) < size:
        syllables = rng.randint(2, 4)
        words.add("".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables)))
    return sorted(words)


VOCAB = _vocabulary()
_FIRST = {
    "f": ["Maria", "Elena", "Sofia", "Amara", "Ingrid", "Keiko", "Lucia", "Nadia",
          "Olga", "Priya", "Rosa", "Tamar", "Vera", "Yara", "Zofia", "Hana"],
    "m": ["Daniel", "Tomas", "Kofi", "Marco", "Ivan", "Jonas", "Ravi", "Samuel",
          "Pavel", "Omar", "Felix", "Hugo", "Leon", "Nikos", "Arjun", "Bruno"],
}
_LAST = ["Lopez", "Novak", "Okafor", "Lindqvist", "Tanaka", "Moreau", "Haddad",
         "Kowalski", "Mensah", "Varga", "Castillo", "Rahman", "Petrov", "Silva",
         "Brandt", "Quinn", "Ferreira", "Nakamura", "Oyelaran", "Dubois"]
_PRONOUN = {"f": ("She", "her"), "m": ("He", "his")}


def _words(rng: random.Random, lo: int, hi: int) -> list[str]:
    return [rng.choice(VOCAB) for _ in range(rng.randint(lo, hi))]


def _people(rng: random.Random, count: int) -> list[tuple[str, str]]:
    people = []
    names = set()
    while len(people) < count:
        gender = rng.choice("fm")
        name = f"{rng.choice(_FIRST[gender])} {rng.choice(_LAST)}"
        if name not in names:
            names.add(name)
            people.append((name, gender))
    return people


def _document(rng: random.Random, n_sentences: int, n_people: int) -> list[dict]:
    """Sentences as dicts: text, plus the person a leading pronoun refers to.

    A pronoun subject is only used for the person named most recently, which
    is the antecedent the heuristic coref backend picks.
    """
    people = _people(rng, n_people)
    last_named = None
    out = []
    for _ in range(n_sentences):
        body = _words(rng, 7, 15)
        if rng.random() < 0.05:
            body.insert(rng.randrange(len(body)), "not")
        roll = rng.random()
        referent = None
        if last_named is not None and roll < 0.35:
            name, gender = last_named
            subject = _PRONOUN[gender][0]
            referent = name
        elif roll < 0.8:
            last_named = rng.choice(people)
            subject = last_named[0]
            if rng.random() < 0.4:
                body.insert(rng.randrange(1, len(body)), _PRONOUN[last_named[1]][1])
        else:
            subject = "The"
        out.append({"text": f"{subject} {' '.join(body)}.", "subject": subject, "referent": referent})
    return out


def _edit(rng: random.Random, sentence: str, share: float) -> str:
    """Replace about ``share`` of the words after the subject with random words."""
    head, _, rest = sentence[:-1].partition(" ")
    words = rest.split(" ")
    if words and words[0][:1].isupper():  # keep a two-word name together
        head = f"{head} {words.pop(0)}"
    for i in range(len(words)):
        if rng.random() < share:
            words[i] = rng.choice(VOCAB)
    return f"{head} {' '.join(words)}."


def _distinct(texts: list[str]) -> list[str]:
    seen: set[str] = set()
    return [t for t in texts if not (t in seen or seen.add(t))]


def _deck(rng: random.Random, n: int, shares: list[tuple[object, float]]) -> list:
    """``n`` items in the given shares, shuffled, so totals do not vary by seed."""
    out = [item for item, share in shares for _ in range(round(n * share))]
    out = (out + [shares[-1][0]] * n)[:n]
    rng.shuffle(out)
    return out


# Claim kinds: a copied sentence, a pronoun sentence with the name put back
# (a coref substitution wins), an edited sentence, and an invented one.
_CLAIM_KINDS = [("copy", 0.3), ("resolved", 0.25), ("edited", 0.3), ("invented", 0.15)]


def _news_claim(rng: random.Random, doc: list[dict], kind: str) -> str:
    sentence = rng.choice(doc)
    if kind == "resolved":
        resolved = [s for s in doc if s["referent"] is not None]
        if resolved:
            s = rng.choice(resolved)
            return s["referent"] + s["text"][len(s["subject"]):]
    if kind == "edited":
        return _edit(rng, sentence["text"], rng.uniform(0.2, 0.5))
    if kind == "invented":
        return f"The {' '.join(_words(rng, 6, 12))}."
    return sentence["text"]


def write_score_news(workdir: str, seed: int, *, documents: int, max_units: int) -> dict:
    """Documents of 10-60 sentences, three summaries each, and a claim cache.

    One claim-cache entry in ten is empty, so the sentence fallback runs for
    that summary. Document lengths, claims per summary and claim kinds are
    drawn from fixed decks, so the amount of work is nearly the same for
    every seed.
    """
    rng = random.Random(seed)
    lengths = [10 + 50 * i // (documents - 1) for i in range(documents)]
    rng.shuffle(lengths)
    claim_counts = _deck(rng, 3 * documents, [(k, 0.25) for k in (2, 3, 4, 5)])
    kinds = iter(_deck(rng, sum(claim_counts), _CLAIM_KINDS))
    empties = iter(_deck(rng, 3 * documents, [(True, 0.1), (False, 0.9)]))
    docs, summaries, cache = [], [], {}
    doc_sentences, over_budget, pairs = [], 0, 0
    windows, windows_over = 0, 0
    expected = {}
    for d in range(documents):
        doc_id = f"d{d:04d}"
        doc = _document(rng, lengths[d], rng.randint(2, 4))
        text = " ".join(s["text"] for s in doc)
        docs.append({"id": doc_id, "text": text})
        doc_sentences.append(len(doc))
        for k in range(3):
            summary_id = f"{doc_id}-s{k}"
            count = claim_counts[3 * d + k]
            claims = _distinct([_news_claim(rng, doc, next(kinds)) for _ in range(count)])
            summaries.append({"id": summary_id, "document_id": doc_id, "text": " ".join(claims)})
            empty = next(empties)
            cache[summary_id] = [] if empty else claims
            expected[summary_id] = {"claims": len(claims), "fallback": empty}
            for claim in claims:
                pairs += 1
                over_budget += len(text) + len(claim) > max_units
                for start in range(len(doc) - 4):
                    window = " ".join(s["text"] for s in doc[start : start + 5])
                    windows += 1
                    windows_over += len(window) + len(claim) > max_units
    _write_jsonl(os.path.join(workdir, "documents.jsonl"), docs)
    _write_jsonl(os.path.join(workdir, "summaries.jsonl"), summaries)
    with open(os.path.join(workdir, "claims.json"), "w", encoding="utf-8") as fh:
        json.dump(cache, fh, indent=1)
    with open(os.path.join(workdir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"nli_max_units": max_units}, fh)
    return {
        "summaries": expected,
        "doc_sentences": doc_sentences,
        "over_budget_share": over_budget / pairs,
        "window_over_budget_share": windows_over / windows,
        "summaries_per_doc": len(summaries) / len(docs),
    }


def _bench_summary(rng: random.Random, doc: list[dict], factual: bool) -> list[str]:
    picks = rng.sample(doc, rng.randint(2, 4))
    out = [_edit(rng, s["text"], rng.uniform(0.0, 0.35)) for s in picks]
    if not factual:
        bad = rng.randrange(len(out))
        if rng.random() < 0.3:
            words = out[bad][:-1].split(" ")
            words.insert(rng.randint(2, len(words)), "not")
            out[bad] = " ".join(words) + "."
        else:
            out[bad] = _edit(rng, picks[bad]["text"], rng.uniform(0.45, 0.9))
    return _distinct(out)


def write_bench(workdir: str, seed: int, *, records: int) -> dict:
    """Labelled records in three datasets, each split half validation, half test.

    Every record carries its own 5-8 sentence document and a 2-4 sentence
    summary; about half are factual.
    """
    rng = random.Random(seed)
    rows, expected, counts = [], {}, {}
    claims = 0
    doc_sentences = []
    datasets = ("alpha", "beta", "gamma")
    for i in range(records):
        dataset = datasets[i % 3]
        split = "validation" if (i // 3) % 2 == 0 else "test"
        record_id = f"{dataset}-{i:05d}"
        doc = _document(rng, rng.randint(5, 8), rng.randint(1, 2))
        factual = rng.random() < 0.5
        sentences = _bench_summary(rng, doc, factual)
        rows.append(
            {
                "record_id": record_id,
                "document": " ".join(s["text"] for s in doc),
                "summary": " ".join(sentences),
                "gold_label": "factual" if factual else "not_factual",
                "system": f"sys{rng.randint(1, 4)}",
                "dataset": dataset,
                "split": split,
            }
        )
        expected[record_id] = {"dataset": dataset, "split": split, "gold": factual}
        counts.setdefault(dataset, {"validation": 0, "test": 0})[split] += 1
        claims += len(sentences)
        doc_sentences.append(len(doc))
    _write_jsonl(os.path.join(workdir, "records.jsonl"), rows)
    return {
        "records": expected,
        "counts": counts,
        "claims": claims,
        "doc_sentences": doc_sentences,
        "summaries_per_doc": 1.0,
    }


def _write_jsonl(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
