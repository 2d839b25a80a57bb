"""Memory grows slowly with the corpus: one check per streaming command.

Each test runs its command in-process on two corpora from
:func:`cases.random_news_corpus`, one summary per document, under
``tracemalloc``, and bounds how fast the traced peak grows per record.
What a streaming command keeps per record is its indexes, the claim cache
and its report's own state; a command that builds its whole corpus before
scoring also keeps every document and summary. The bound sits between the
two slopes, so a regression to whole-corpus loading fails here.

Blocks are cut to 64 pairs, so both sizes span many blocks and the slope
reads the corpus, not a block filling up. The three tests take about 3.5 s
on one core of a shared x86-64 Linux machine.
"""

import json
import logging
import random
import tracemalloc

from click.testing import CliRunner

from sumfact import pipeline
from sumfact.cli import main

from cases import random_news_corpus, write_news_records

SIZES = (100, 400)


def write_corpus(directory, n):
    """``n`` documents, one summary each, and a claim cache with an entry
    for every summary (empty where the corpus gives none)."""
    pairs, cache = random_news_corpus(random.Random(n), n, 1)
    files = {
        "docs.jsonl": [{"id": d.id, "text": d.text} for d, _ in pairs],
        "sums.jsonl": [{"id": s.id, "document_id": d.id, "text": s.text} for d, s in pairs],
    }
    for name, rows in files.items():
        (directory / name).write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    claims = {s.id: cache.get(s.id, []) for _, s in pairs}
    (directory / "claims.json").write_text(json.dumps(claims), encoding="utf-8")


def traced_peak(args):
    tracemalloc.start()
    try:
        result = CliRunner().invoke(main, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        logging.getLogger("sumfact").handlers.clear()
    assert result.exit_code == 0, result.stderr
    return peak


def kib_per_record(tmp_path, monkeypatch, write, command):
    """The traced peak's growth from the smaller corpus to the larger, per
    record. The smaller one runs once first, unmeasured, so imports and
    first-call caches count in neither."""
    monkeypatch.setattr(pipeline, "BLOCK_PAIRS_PER_SLOT", 2)
    runs = []
    for n in SIZES:
        directory = tmp_path / str(n)
        directory.mkdir()
        write(directory, n)
        runs.append(command(directory))
    traced_peak(runs[0])
    small, large = (traced_peak(args) for args in runs)
    return (large - small) / (SIZES[1] - SIZES[0]) / 1024


def test_score_grows_by_at_most_2_2_kib_per_summary(tmp_path, monkeypatch):
    # About 1.1 KiB per summary today; about 3.3 with the pairs read whole.
    def command(d):
        return [
            "score", str(d / "docs.jsonl"), str(d / "sums.jsonl"), "-o", str(d / "out"),
            "--claim-backend", f"cache:{d / 'claims.json'}", "--coref-backend", "heuristic",
        ]

    assert kib_per_record(tmp_path, monkeypatch, write_corpus, command) < 2.2


def test_benchmark_grows_by_at_most_1_2_kib_per_record(tmp_path, monkeypatch):
    # About 0.6 KiB per record today; about 2.6 with the records read whole.
    def write(d, n):
        write_news_records(d, random.Random(n), n, 1)

    def command(d):
        return ["benchmark", str(d / "records.jsonl"), "-o", str(d / "out")]

    assert kib_per_record(tmp_path, monkeypatch, write, command) < 1.2


def test_extract_claims_grows_by_at_most_1_6_kib_per_summary(tmp_path, monkeypatch):
    # About 1.25 KiB per summary today, mostly the claim cache, which is
    # loaded whole, and the cache being written; about 1.95 with the
    # summaries read whole. So this bound is closer to today's than twice.
    def command(d):
        return [
            "extract-claims", str(d / "sums.jsonl"), "-o", str(d / "out"),
            "--claim-backend", f"cache:{d / 'claims.json'}",
        ]

    assert kib_per_record(tmp_path, monkeypatch, write_corpus, command) < 1.6
