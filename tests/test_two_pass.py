"""``benchmark`` and ``score`` read their inputs in two passes and stream the second.

The first pass checks every record and keeps a light row of each; the
second reads again, block by block, only the records the score cache cannot
answer (``benchmark``), or each summary and, when it names another document
than the summary before it, its document (``score``). These tests pin what
that must not change (a malformed record still exits before any pair is
scored, with the same message) and what it adds (checkpoints, a guard
against a file edited between the passes, and an input that cannot be read
twice named as such).
"""

import hashlib
import json
import logging
import os

import pytest
from click.testing import CliRunner

from sumfact import benchmark, cli, formats, pipeline
from sumfact.benchmark import BenchmarkRow
from sumfact.documents import RuleSegmenter, build_claims
from sumfact.errors import EmptyDocument, ExtractorUnavailable, InputError
from sumfact.nli import MockEntailmentBackend


class RecordingBackend(MockEntailmentBackend):
    """The mock, keeping every pair it is sent."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.pairs = []

    def _infer(self, pairs, table):
        self.pairs.extend(pairs)
        return super()._infer(pairs, table)


@pytest.fixture
def runner():
    yield CliRunner()
    logging.getLogger("sumfact").handlers.clear()


@pytest.fixture
def backends(monkeypatch):
    """Every entailment backend the CLI builds, recording its pairs."""
    built = []

    def make(config):
        backend = RecordingBackend(batch_size=config.nli_batch_size, workers=config.workers)
        built.append(backend)
        return backend

    monkeypatch.setattr(pipeline, "make_nli_backend", make)
    return built


def record(rid, split, gold, summary="alpha beta.", **fields):
    return {
        "record_id": rid,
        "document": "alpha beta. gamma delta.",
        "summary": summary,
        "gold_label": gold,
        "dataset": "main",
        "split": split,
        **fields,
    }


GOOD = [
    record("v1", "validation", "factual"),
    record("v2", "validation", "not_factual", "epsilon zeta."),
    record("t1", "test", "factual"),
    record("t2", "test", "not_factual", "epsilon zeta."),
]


def write_records(tmp_path, lines, name="records.jsonl"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def error_of(result):
    return json.loads(result.stderr.strip().splitlines()[-1])


# Each malformed record sits on line 5, after four good ones. The messages
# are those the one-pass loader gave, each naming the line once; a duplicate
# id, which that loader reported without its line, names it too.
MALFORMED = {
    "blank document": (
        json.dumps(record("x", "test", "factual", document="  \t ")),
        "InputError",
        "{path}:5: cannot segment empty or whitespace-only text",
    ),
    "blank document object": (
        json.dumps(record("x", "test", "factual", document={"id": "d1", "text": " \n"})),
        "InputError",
        "{path}:5: cannot segment empty or whitespace-only text",
    ),
    "whitespace-only summary": (
        json.dumps(record("x", "test", "factual", summary=" \n ")),
        "InputError",
        "{path}:5: cannot segment empty or whitespace-only text",
    ),
    "summary object without text": (
        json.dumps(record("x", "test", "factual", summary={"id": "s9"})),
        "InputError",
        "{path}:5: missing or empty string field 'text'",
    ),
    # A summary object's ids are non-empty strings, as in a summaries file;
    # only an absent one is derived.
    **{
        f"summary {key} {kind}": (
            json.dumps(
                record(
                    "x", "test", "factual",
                    document={"id": "5", "text": "alpha beta."},
                    summary={key: value, "text": "alpha."},
                )
            ),
            "InputError",
            f"{{path}}:5: missing or empty string field '{key}'",
        )
        for key in ("id", "document_id")
        for kind, value in [("a number", 5), ("a list", ["x", 0]), ("empty", ""), ("null", None)]
    },
    "bad split": (
        json.dumps(record("x", "train", "factual")),
        "InputError",
        "{path}:5: record 'x': split must be 'validation' or 'test', got 'train'",
    ),
    "document-id mismatch": (
        json.dumps(
            record(
                "x", "test", "factual",
                document={"id": "d1", "text": "alpha beta."},
                summary={"document_id": "d2", "text": "alpha."},
            )
        ),
        "InputError",
        "{path}:5: record 'x': summary points at document 'd2' but carries document 'd1'",
    ),
    "bad gold label": (
        json.dumps(record("x", "test", "maybe")),
        "InputError",
        "{path}:5: gold_label must be factual/not_factual, got 'maybe'",
    ),
    "bad sentence spans": (
        json.dumps(
            record(
                "x", "test", "factual",
                document={"id": "d1", "text": "alpha beta.", "sentences": [{"start": 0, "end": 99}]},
            )
        ),
        "InputError",
        "{path}:5: sentence 0 span [0, 99) out of range",
    ),
    "duplicate id": (
        json.dumps(record("v1", "test", "factual")),
        "InputError",
        "{path}:5: duplicate record id 'v1'",
    ),
    "invalid JSON": (
        '{"record_id": "x", "document": ',
        "InputError",
        "{path}:5: invalid JSON: Expecting value: line 2 column 1 (char 32)",
    ),
}


def shape_case(message, document=None, **fields):
    """A record on line 5 whose document (an object, "d1", given ``fields``)
    or ``document`` has a malformed shape, with the message that names it."""
    if document is None:
        document = {"id": "d1", "text": "alpha beta. gamma delta.", **fields}
    line = json.dumps(record("x", "test", "factual", document=document))
    return line, "InputError", "{path}:5: " + message


def mention(sentence_index=0, start=0, end=5):
    return {"sentence_index": sentence_index, "start": start, "end": end}


# Shapes of precomputed spans, clusters, documents and summaries that are
# rejected; a span given as a list is one of them.
MALFORMED.update({
    "sentences not an array": shape_case(
        "'sentences' must be a non-empty array", sentences={"start": 0, "end": 11}
    ),
    "sentences empty": shape_case("'sentences' must be a non-empty array", sentences=[]),
    "span as a list": shape_case("sentence 0 needs 'start' and 'end'", sentences=[[0, 11]]),
    "non-integer span offsets": shape_case(
        "sentence 1 has non-integer offsets",
        sentences=[{"start": 0, "end": 11}, {"start": "twelve", "end": 24}],
    ),
    # Offsets are JSON integers: a fractional float, a numeric string or
    # ``true`` is not truncated, parsed or taken as 1.
    "fractional span offset": shape_case(
        "sentence 0 has non-integer offsets", sentences=[{"start": 0.9, "end": 11}]
    ),
    "numeric-string span offset": shape_case(
        "sentence 1 has non-integer offsets",
        sentences=[{"start": 0, "end": 11}, {"start": 12, "end": "24"}],
    ),
    "boolean span offset": shape_case(
        "sentence 1 has non-integer offsets",
        sentences=[{"start": 0, "end": 11}, {"start": True, "end": 24}],
    ),
    "empty span": shape_case(
        "sentence 0 span [5, 5) out of range", sentences=[{"start": 5, "end": 5}]
    ),
    "clusters not an array": shape_case(
        "'coref_clusters' must be an array of clusters", coref_clusters={"0": [mention()]}
    ),
    "cluster not an array": shape_case(
        "cluster 0 must be an array of mentions", coref_clusters=[mention()]
    ),
    "mention not an object": shape_case(
        "cluster 1 mention 0 must be an object",
        coref_clusters=[[mention(), mention(1, 0, 5)], [[0, 0, 5]]],
    ),
    "mention with a non-integer field": shape_case(
        "cluster 0 mention 1 needs integer 'sentence_index', 'start', 'end'",
        coref_clusters=[[mention(), mention(1, "zero", 5)]],
    ),
    "mention with a boolean sentence_index": shape_case(
        "cluster 0 mention 1 needs integer 'sentence_index', 'start', 'end'",
        coref_clusters=[[mention(), mention(True, 0, 5)]],
    ),
    "mention with a numeric-string start": shape_case(
        "cluster 0 mention 1 needs integer 'sentence_index', 'start', 'end'",
        coref_clusters=[[mention(), mention(1, "0", 5)]],
    ),
    "mention with a fractional end": shape_case(
        "cluster 0 mention 1 needs integer 'sentence_index', 'start', 'end'",
        coref_clusters=[[mention(), mention(1, 0, 3.7)]],
    ),
    "mention without a field": shape_case(
        "cluster 0 mention 0 needs integer 'sentence_index', 'start', 'end'",
        coref_clusters=[[{"sentence_index": 0, "start": 0}]],
    ),
    "mention sentence_index out of range": shape_case(
        "cluster 0 mention 1 sentence_index 2 out of range",
        coref_clusters=[[mention(), mention(2)]],
    ),
    "mention outside its sentence": shape_case(
        "cluster 0 mention 1 span [0, 13) outside sentence 1",
        coref_clusters=[[mention(), mention(1, 0, 13)]],
    ),
    "document neither object nor string": shape_case(
        "'document' must be an object or a string", document=["alpha beta."]
    ),
    "summary neither object nor string": (
        json.dumps(record("x", "test", "factual", summary=5)),
        "InputError",
        "{path}:5: 'summary' must be an object or a string",
    ),
})


class TestFailFast:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_last_record_exits_before_any_pair(self, runner, tmp_path, backends, case):
        line, error, message = MALFORMED[case]
        path = write_records(tmp_path, [json.dumps(r) for r in GOOD] + [line])
        result = runner.invoke(cli.main, ["benchmark", path])
        assert result.exit_code == 2, result.stderr
        assert error_of(result) == {"error": error, "message": message.format(path=path)}
        assert sum(len(b.pairs) for b in backends) == 0

    def test_invalid_utf8_exits_2(self, runner, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b"".join(json.dumps(r).encode() + b"\n" for r in GOOD) + b"\xff\n")
        result = runner.invoke(cli.main, ["benchmark", str(path)])
        assert result.exit_code == 2
        assert error_of(result)["message"].startswith(f"{path}:5: invalid JSON: ")


class TestSecondPass:
    def test_rows_point_at_their_lines(self, tmp_path):
        path = write_records(tmp_path, [json.dumps(r) for r in GOOD[:2]])
        rows = formats.load_benchmark_records(path)
        first = len(json.dumps(GOOD[0])) + 1
        # Each row also holds the digest of its line, without the line ending.
        digests = [hashlib.blake2b(json.dumps(r).encode(), digest_size=16).digest() for r in GOOD]
        assert rows == [
            BenchmarkRow("v1", True, "unknown", "main", "validation", 0, digests[0]),
            BenchmarkRow("v2", False, "unknown", "main", "validation", first, digests[1]),
        ]
        pairs = list(formats.read_benchmark_records(path, rows[1:]))
        assert [(d.id, s.id) for d, s in pairs] == [("v2:doc", "v2:summary")]
        assert pairs[0][1].text == "epsilon zeta."

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings(self, tmp_path, newline):
        # Lines split and number as in text mode, and offsets count the bytes.
        path = tmp_path / "records.jsonl"
        path.write_bytes(newline.join(["", *map(json.dumps, GOOD), ""]).encode())
        rows = formats.load_benchmark_records(str(path))
        assert [r.record_id for r in rows] == ["v1", "v2", "t1", "t2"]
        pairs = list(formats.read_benchmark_records(str(path), rows[::-1]))
        assert [s.id for _, s in pairs] == ["t2:summary", "t1:summary", "v2:summary", "v1:summary"]
        bad = newline.join([json.dumps(GOOD[0]), "{", ""]).encode()
        path.write_bytes(bad)
        with pytest.raises(InputError, match=r":2: invalid JSON: Expecting property name"):
            formats.load_benchmark_records(str(path))

    def test_first_pass_does_not_segment(self, tmp_path, monkeypatch):
        texts = []
        segment = RuleSegmenter.segment
        monkeypatch.setattr(
            RuleSegmenter, "segment", lambda self, text: texts.append(text) or segment(self, text)
        )
        path = write_records(tmp_path, [json.dumps(r) for r in GOOD])
        rows = formats.load_benchmark_records(path)
        assert texts == []
        list(formats.read_benchmark_records(path, rows[2:3]))
        assert texts == ["alpha beta. gamma delta.", "alpha beta."]

    def test_cache_hits_are_never_read_again(self, runner, tmp_path, monkeypatch):
        cache = str(tmp_path / "cache")
        path = write_records(tmp_path, [json.dumps(r) for r in GOOD])
        assert runner.invoke(cli.main, ["benchmark", path, "--cache-dir", cache]).exit_code == 0
        read = []
        second_pass = formats.read_benchmark_records

        def spy(path, rows):
            for document, summary in second_pass(path, rows):
                read.append(document.id)
                yield document, summary

        monkeypatch.setattr(formats, "read_benchmark_records", spy)
        extra = [record("v3", "validation", "factual"), record("t3", "test", "factual")]
        path = write_records(tmp_path, [json.dumps(r) for r in GOOD + extra])
        result = runner.invoke(cli.main, ["benchmark", path, "--cache-dir", cache])
        assert result.exit_code == 0, result.stderr
        assert read == ["v3:doc", "t3:doc"]
        assert runner.invoke(cli.main, ["benchmark", path, "--cache-dir", cache]).exit_code == 0
        assert read == ["v3:doc", "t3:doc"]

    def test_file_edited_between_passes_exits_2(self, runner, tmp_path, monkeypatch, backends):
        path = write_records(tmp_path, [json.dumps(r) for r in GOOD])
        first_pass = formats.load_benchmark_records

        def then_edit(path):
            rows = first_pass(path)
            # Same records, other order: the offsets now hold other ids.
            write_records(tmp_path, [json.dumps(r) for r in GOOD[::-1]])
            return rows

        monkeypatch.setattr(formats, "load_benchmark_records", then_edit)
        result = runner.invoke(cli.main, ["benchmark", path])
        assert result.exit_code == 2
        assert error_of(result) == {
            "error": "InputError",
            "message": f"{path} changed during the run: "
            "record 'v1' at byte 0 is not the line first read there",
        }
        assert sum(len(b.pairs) for b in backends) == 0

    @pytest.mark.parametrize(
        "edit", [{"split": "train"}, {"summary": " "}], ids=["bad split", "blank summary"]
    )
    def test_line_no_longer_valid_between_passes_exits_2(
        self, runner, tmp_path, monkeypatch, backends, edit
    ):
        # The line keeps its id but no longer builds; its digest shows the edit.
        path = write_records(tmp_path, [json.dumps(r) for r in GOOD])
        first_pass = formats.load_benchmark_records

        def then_edit(path):
            rows = first_pass(path)
            write_records(tmp_path, [json.dumps({**GOOD[0], **edit}), *map(json.dumps, GOOD[1:])])
            return rows

        monkeypatch.setattr(formats, "load_benchmark_records", then_edit)
        result = runner.invoke(cli.main, ["benchmark", path])
        assert result.exit_code == 2, result.stderr
        assert error_of(result) == {
            "error": "InputError",
            "message": f"{path} changed during the run: "
            "record 'v1' at byte 0 is not the line first read there",
        }
        assert sum(len(b.pairs) for b in backends) == 0

    def test_same_length_edit_between_passes_exits_2(self, runner, tmp_path, monkeypatch):
        # The edit keeps the id and every offset, so only the line's digest shows it.
        original = [record("r0", "validation", "factual", "Alpha beta gamma."), *GOOD[1:]]
        edited = [record("r0", "validation", "factual", "Omega psi chi xy."), *GOOD[1:]]
        path = write_records(tmp_path, [json.dumps(r) for r in original])
        cache, fresh = str(tmp_path / "cache"), str(tmp_path / "fresh")
        first_pass = formats.load_benchmark_records

        def then_edit(path):
            rows = first_pass(path)
            write_records(tmp_path, [json.dumps(r) for r in edited])
            return rows

        monkeypatch.setattr(formats, "load_benchmark_records", then_edit)
        result = runner.invoke(cli.main, ["benchmark", path, "--cache-dir", cache])
        assert result.exit_code == 2
        assert error_of(result) == {
            "error": "InputError",
            "message": f"{path} changed during the run: "
            "record 'r0' at byte 0 is not the line first read there",
        }
        # Restored, the file scores as it does on a fresh cache: no score of
        # the edited line was kept under the original's digest.
        monkeypatch.setattr(formats, "load_benchmark_records", first_pass)
        write_records(tmp_path, [json.dumps(r) for r in original])
        csvs = []
        for directory in (cache, fresh):
            csv = tmp_path / f"{os.path.basename(directory)}.csv"
            args = ["benchmark", path, "--cache-dir", directory, "--scores-csv", str(csv)]
            assert runner.invoke(cli.main, args).exit_code == 0
            csvs.append(csv.read_text())
        assert csvs[0] == csvs[1]

    def test_truncated_file_exits_2(self, tmp_path):
        path = write_records(tmp_path, [json.dumps(r) for r in GOOD])
        rows = formats.load_benchmark_records(path)
        write_records(tmp_path, [json.dumps(r) for r in GOOD[:2]])
        with pytest.raises(InputError, match=r"record 't1' at byte \d+ is not the line first read"):
            list(formats.read_benchmark_records(path, rows))


class TestEditedRecords:
    """The score cache keeps each score with the digest of its record's line,
    so an edited record is scored again and the others are not."""

    EDITED = [*GOOD[:2], record("t1", "test", "factual", "gamma zeta."), GOOD[3]]

    def run(self, runner, tmp_path, records, cache, name):
        path = write_records(tmp_path, [json.dumps(r) for r in records])
        csv = tmp_path / f"{name}.csv"
        args = ["benchmark", path, "--cache-dir", str(cache), "--scores-csv", str(csv)]
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0, result.stderr
        return csv.read_text()

    def test_edited_record_alone_is_rescored(self, runner, tmp_path, backends):
        cache = tmp_path / "cache"
        before = self.run(runner, tmp_path, GOOD, cache, "before")
        rerun = self.run(runner, tmp_path, self.EDITED, cache, "rerun")
        # Only the edited summary's pairs were sent.
        assert backends[-1].pairs
        assert {h for _, h in backends[-1].pairs} == {"gamma zeta."}
        # Its score is the one a fresh cache gives, not the stale one.
        fresh = self.run(runner, tmp_path, self.EDITED, tmp_path / "fresh", "fresh")
        assert rerun == fresh != before
        # The cache keeps its keys, each score with a digest.
        (cache_file,) = cache.glob("scores-*.json")
        saved = json.loads(cache_file.read_text())
        assert sorted(saved) == ["t1", "t2", "v1", "v2"]
        assert all(len(digest) == 32 for _, digest in saved.values())
        self.run(runner, tmp_path, self.EDITED, cache, "again")
        assert backends[-1].pairs == []

    def test_cache_without_digests_is_rescored_once(self, runner, tmp_path, backends):
        cache = tmp_path / "cache"
        first = self.run(runner, tmp_path, GOOD, cache, "first")
        (cache_file,) = cache.glob("scores-*.json")
        # A cache written before digests were stored: plain scores.
        old = {rid: score for rid, (score, _) in json.loads(cache_file.read_text()).items()}
        cache_file.write_text(json.dumps(old, sort_keys=True))
        assert self.run(runner, tmp_path, GOOD, cache, "second") == first
        assert len(backends[-1].pairs) == len(backends[0].pairs)
        assert self.run(runner, tmp_path, GOOD, cache, "third") == first
        assert backends[-1].pairs == []


class TestCheckpoints:
    def test_cache_file_holds_earlier_blocks_mid_run(self, runner, tmp_path, monkeypatch):
        # Blocks of one record, and a checkpoint after every `every` records.
        every = 8
        monkeypatch.setattr(benchmark, "CHECKPOINT_RECORDS", every)
        monkeypatch.setattr(pipeline, "BLOCK_PAIRS_PER_SLOT", 1)
        n = 3 * every
        rows = [
            record(f"r{i:02d}", "validation" if i % 2 else "test", "factual" if i % 4 < 2 else "not_factual",
                   f"alpha{i} beta.")
            for i in range(n)
        ]
        path = write_records(tmp_path, [json.dumps(r) for r in rows])
        cache_dir = tmp_path / "cache"
        seen = {}
        watch = f"alpha{2 * every + 2} beta."

        class Snooping(MockEntailmentBackend):
            def _infer(self, pairs, table):
                if not seen and any(h == watch for _, h in pairs):
                    (cache_file,) = cache_dir.glob("scores-*.json")
                    seen.update(json.loads(cache_file.read_text()))
                return super()._infer(pairs, table)

        monkeypatch.setattr(
            pipeline, "make_nli_backend", lambda config: Snooping(batch_size=config.nli_batch_size)
        )
        config = write_records(tmp_path, [json.dumps({"nli_batch_size": 1})], "config.json")
        result = runner.invoke(
            cli.main, ["benchmark", path, "--config", config, "--cache-dir", str(cache_dir)]
        )
        assert result.exit_code == 0, result.stderr
        (cache_file,) = cache_dir.glob("scores-*.json")
        final = json.loads(cache_file.read_text())
        assert len(final) == n
        earlier = {f"r{i:02d}" for i in range(2 * every)}
        assert earlier <= set(seen)
        assert f"r{2 * every + 2:02d}" not in seen
        assert all(final[rid] == score for rid, score in seen.items())


    def test_extractor_failure_in_a_blocks_second_chunk_keeps_the_chunk_before(
        self, runner, tmp_path, monkeypatch
    ):
        # Six short records make one block; the extractor fails on r3, so
        # the run exits 3 with the scores of every record before it in the
        # cache.
        rows = [record(f"r{i}", "validation" if i % 2 else "test", "factual", f"alpha{i} beta.")
                for i in range(6)]
        path = write_records(tmp_path, [json.dumps(r) for r in rows])
        cache_dir = tmp_path / "cache"

        class FailsOnR3:
            def describe(self):
                return "fails-on-r3"

            def extract(self, summary):
                if summary.id == "r3:summary":
                    raise ExtractorUnavailable("claim service is down")
                return build_claims(summary.id, [summary.text])

        monkeypatch.setattr(pipeline, "make_claim_extractor", lambda config: FailsOnR3())
        config = write_records(tmp_path, [json.dumps({"nli_batch_size": 2})], "config.json")
        result = runner.invoke(
            cli.main, ["benchmark", path, "--config", config, "--cache-dir", str(cache_dir)]
        )
        assert result.exit_code == 3, result.stderr
        assert "claim service is down" in result.stderr
        (cache_file,) = cache_dir.glob("scores-*.json")
        assert sorted(json.loads(cache_file.read_text())) == ["r0", "r1", "r2"]


class TestRunMeta:
    @pytest.mark.parametrize("command", ["score", "benchmark"])
    def test_pairs_requested_next_to_backend_calls(self, runner, tmp_path, command):
        if command == "score":
            docs = write_records(
                tmp_path, ['{"id": "d1", "text": "alpha beta. gamma delta."}'], "docs.jsonl"
            )
            sums = write_records(
                tmp_path,
                ['{"id": "s1", "document_id": "d1", "text": "gamma delta. alpha zeta."}'],
                "sums.jsonl",
            )
            args = ["score", docs, sums]
        else:
            args = ["benchmark", write_records(tmp_path, [json.dumps(r) for r in GOOD])]
        metas = []
        for workers in ("1", "3"):
            meta = tmp_path / f"meta{workers}.json"
            result = runner.invoke(cli.main, args + ["--workers", workers, "--run-meta", str(meta)])
            assert result.exit_code == 0, result.stderr
            metas.append(json.loads(meta.read_text()))
        assert metas[0] == metas[1]
        requested, sent = metas[0]["pairs_requested"], metas[0]["backend_calls"]
        assert set(requested) == set(sent) == {"sentence", "coref", "window", "document"}
        assert all(requested[stage] >= sent[stage] for stage in sent)
        assert sum(requested.values()) > sum(sent.values())


class TestScoreCorpus:
    DOCS = [
        {"id": "d1", "text": "alpha beta. gamma delta."},
        {"id": "d2", "text": "epsilon zeta. eta theta."},
    ]
    SUMS = [
        {"id": "s1", "document_id": "d1", "text": "alpha beta."},
        {"id": "s2", "document_id": "d1", "text": "gamma delta."},
        {"id": "s3", "document_id": "d2", "text": "eta theta."},
        {"id": "s4", "document_id": "d1", "text": "alpha gamma."},
    ]

    def write(self, tmp_path, docs=DOCS, sums=SUMS):
        return (
            write_records(tmp_path, [json.dumps(d) for d in docs], "docs.jsonl"),
            write_records(tmp_path, [json.dumps(s) for s in sums], "sums.jsonl"),
        )

    def test_documents_are_read_again_only_when_the_next_summary_names_another(
        self, tmp_path, monkeypatch
    ):
        texts = []
        segment = RuleSegmenter.segment
        monkeypatch.setattr(
            RuleSegmenter, "segment", lambda self, text: texts.append(text) or segment(self, text)
        )
        docs, sums = self.write(tmp_path)
        doc_rows, sum_rows = formats.index_documents(docs), formats.index_summaries(sums)
        assert texts == []
        pairs = list(formats.read_corpus(docs, doc_rows, sums, sum_rows))
        assert [(d.id, s.id) for d, s in pairs] == [("d1", "s1"), ("d1", "s2"), ("d2", "s3"), ("d1", "s4")]
        assert pairs[0][0] is pairs[1][0]
        assert [t for t in texts if t in {d["text"] for d in self.DOCS}] == [
            self.DOCS[0]["text"], self.DOCS[1]["text"], self.DOCS[0]["text"]
        ]

    # Each edit keeps the file's length; a swap moves every line, an edit of
    # one word keeps every offset, so only the line's digest shows it.
    EDITS = {
        "documents swapped": (
            "docs", {"docs": DOCS[::-1]}, "document 'd1'",
        ),
        "document edited": (
            "docs",
            {"docs": [{"id": "d1", "text": "omega zeta. gamma delta."}, DOCS[1]]},
            "document 'd1'",
        ),
        "summaries swapped": (
            "sums", {"sums": [SUMS[1], SUMS[0], *SUMS[2:]]}, "summary 's1'",
        ),
        "summary edited": (
            "sums",
            {"sums": [{"id": "s1", "document_id": "d1", "text": "omega zeta."}, *SUMS[1:]]},
            "summary 's1'",
        ),
    }

    @pytest.mark.parametrize("case", list(EDITS))
    def test_file_edited_between_passes_exits_2(self, runner, tmp_path, monkeypatch, backends, case):
        name, edited, message = self.EDITS[case]
        paths = dict(zip(("docs", "sums"), self.write(tmp_path)))
        first_pass = formats.index_summaries

        def then_edit(path):
            rows = first_pass(path)
            self.write(tmp_path, **edited)
            return rows

        monkeypatch.setattr(formats, "index_summaries", then_edit)
        result = runner.invoke(cli.main, ["score", paths["docs"], paths["sums"]])
        assert result.exit_code == 2, result.stderr
        assert error_of(result) == {
            "error": "InputError",
            "message": f"{paths[name]} changed during the run: "
            f"{message} at byte 0 is not the line first read there",
        }
        assert result.stdout == ""
        assert sum(len(b.pairs) for b in backends) == 0


@pytest.mark.parametrize("command", ["score", "benchmark"])
def test_error_building_an_unchanged_line_exits_2_as_itself(
    runner, tmp_path, monkeypatch, backends, command
):
    # The first pass does not segment, so only the second meets this error.
    # The file did not change, so the error is the segmenter's own.
    def fail(self, text):
        raise EmptyDocument("the segmenter found no sentences")

    monkeypatch.setattr(RuleSegmenter, "segment", fail)
    if command == "score":
        inputs = TestScoreCorpus().write(tmp_path)
    else:
        inputs = (write_records(tmp_path, [json.dumps(r) for r in GOOD]),)
    result = runner.invoke(cli.main, [command, *inputs])
    assert result.exit_code == 2, result.stderr
    assert error_of(result) == {
        "error": "InputError",
        "message": f"{inputs[0]}: the segmenter found no sentences",
    }
    assert sum(len(b.pairs) for b in backends) == 0


@pytest.mark.parametrize("command", ["score", "benchmark", "extract-claims"])
def test_unseekable_input_exits_2_naming_it(runner, tmp_path, command):
    # A pipe, as the shell's ``<(...)`` passes one, cannot be read twice.
    claims = write_records(tmp_path, ["{}"], "claims.json")
    sums = write_records(tmp_path, [json.dumps(s) for s in TestScoreCorpus.SUMS], "sums.jsonl")
    lines = TestScoreCorpus.DOCS if command == "score" else GOOD
    read, pipe = pipe_of("".join(json.dumps(line) + "\n" for line in lines).encode())
    args = {
        "score": ["score", pipe, sums],
        "benchmark": ["benchmark", pipe],
        "extract-claims": ["extract-claims", pipe, "--claim-backend", f"cache:{claims}"],
    }[command]
    try:
        result = runner.invoke(cli.main, args)
    finally:
        os.close(read)
    assert result.exit_code == 2, result.stderr
    assert error_of(result) == {
        "error": "InputError",
        "message": f"cannot read {pipe}: input must be a regular, seekable file",
    }


def pipe_of(data):
    """A pipe holding ``data``, and its ``/dev/fd`` path, as the shell's ``<(...)`` passes one."""
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    return read, f"/dev/fd/{read}"


SYSTEM_SETS = b'{"summary_id": "s1", "claims": ["alpha beta."]}\n'


def eval_claims_on_a_pipe(runner, tmp_path, system):
    human = write_records(tmp_path, ['{"summary_id": "s1", "claims": ["alpha gamma."]}'], "h.jsonl")
    fd, pipe = pipe_of(system)
    try:
        return pipe, runner.invoke(cli.main, ["eval-claims", pipe, human])
    finally:
        os.close(fd)


def test_claim_sets_may_be_a_pipe(runner, tmp_path):
    # Claim sets are read once, so they need not be seekable.
    _, result = eval_claims_on_a_pipe(runner, tmp_path, SYSTEM_SETS)
    assert result.exit_code == 0, result.stderr
    (tmp_path / "system.jsonl").write_bytes(SYSTEM_SETS)
    args = ["eval-claims", str(tmp_path / "system.jsonl"), str(tmp_path / "h.jsonl")]
    assert result.stdout == runner.invoke(cli.main, args).stdout != ""


def test_invalid_utf8_in_piped_claim_sets_exits_2(runner, tmp_path):
    pipe, result = eval_claims_on_a_pipe(runner, tmp_path, SYSTEM_SETS + b"\xff\n")
    assert result.exit_code == 2
    assert error_of(result)["message"].startswith(f"{pipe}:2: invalid JSON: ")
