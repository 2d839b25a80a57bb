"""``benchmark`` reads its records file in two passes and streams the second.

The first pass checks every record and keeps a light row of each; the
second reads again, block by block, only the records the score cache cannot
answer. These tests pin what that must not change (a malformed record still
exits before any pair is scored, with the same message) and what it adds
(checkpoints, a guard against a file edited between the passes).
"""

import json
import logging

import pytest
from click.testing import CliRunner

from sumfact import cli, formats, pipeline
from sumfact.benchmark import BenchmarkRow
from sumfact.documents import RuleSegmenter
from sumfact.errors import InputError
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
# are those the one-pass loader gave.
MALFORMED = {
    "blank document": (
        json.dumps(record("x", "test", "factual", document="  \t ")),
        "EmptyDocument",
        "cannot segment empty or whitespace-only text",
    ),
    "whitespace-only summary": (
        json.dumps(record("x", "test", "factual", summary=" \n ")),
        "InputError",
        "{path}:5: cannot segment empty or whitespace-only text",
    ),
    "bad split": (
        json.dumps(record("x", "train", "factual")),
        "InputError",
        "record 'x': split must be 'validation' or 'test', got 'train'",
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
        "record 'x': summary points at document 'd2' but carries document 'd1'",
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
        "duplicate record id 'v1'",
    ),
    "invalid JSON": (
        '{"record_id": "x", "document": ',
        "InputError",
        "{path}:5: invalid JSON: Expecting value: line 2 column 1 (char 32)",
    ),
}


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
        assert rows == [
            BenchmarkRow("v1", True, "unknown", "main", "validation", 0),
            BenchmarkRow("v2", False, "unknown", "main", "validation", first),
        ]
        records = list(formats.read_benchmark_records(path, rows[1:]))
        assert [r.record_id for r in records] == ["v2"]
        assert records[0].summary.text == "epsilon zeta."

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings(self, tmp_path, newline):
        # Lines split and number as in text mode, and offsets count the bytes.
        path = tmp_path / "records.jsonl"
        path.write_bytes(newline.join(["", *map(json.dumps, GOOD), ""]).encode())
        rows = formats.load_benchmark_records(str(path))
        assert [r.record_id for r in rows] == ["v1", "v2", "t1", "t2"]
        records = list(formats.read_benchmark_records(str(path), rows[::-1]))
        assert [r.record_id for r in records] == ["t2", "t1", "v2", "v1"]
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
            for full in second_pass(path, rows):
                read.append(full.record_id)
                yield full

        monkeypatch.setattr(formats, "read_benchmark_records", spy)
        extra = [record("v3", "validation", "factual"), record("t3", "test", "factual")]
        path = write_records(tmp_path, [json.dumps(r) for r in GOOD + extra])
        result = runner.invoke(cli.main, ["benchmark", path, "--cache-dir", cache])
        assert result.exit_code == 0, result.stderr
        assert read == ["v3", "t3"]
        assert runner.invoke(cli.main, ["benchmark", path, "--cache-dir", cache]).exit_code == 0
        assert read == ["v3", "t3"]

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
            "message": f"{path} changed during the run: record 'v1' is no longer at byte 0",
        }
        assert sum(len(b.pairs) for b in backends) == 0

    def test_truncated_file_exits_2(self, tmp_path):
        path = write_records(tmp_path, [json.dumps(r) for r in GOOD])
        rows = formats.load_benchmark_records(path)
        write_records(tmp_path, [json.dumps(r) for r in GOOD[:2]])
        with pytest.raises(InputError, match="record 't1' is no longer at byte"):
            list(formats.read_benchmark_records(path, rows))


class TestCheckpoints:
    def test_cache_file_holds_earlier_blocks_mid_run(self, runner, tmp_path, monkeypatch):
        # Blocks of one record: checkpoints after every CHECKPOINT_BLOCKS records.
        n = 3 * cli.CHECKPOINT_BLOCKS
        rows = [
            record(f"r{i:02d}", "validation" if i % 2 else "test", "factual" if i % 4 < 2 else "not_factual",
                   f"alpha{i} beta.")
            for i in range(n)
        ]
        path = write_records(tmp_path, [json.dumps(r) for r in rows])
        cache_dir = tmp_path / "cache"
        seen = {}
        watch = f"alpha{2 * cli.CHECKPOINT_BLOCKS + 2} beta."

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
        earlier = {f"r{i:02d}" for i in range(2 * cli.CHECKPOINT_BLOCKS)}
        assert earlier <= set(seen)
        assert f"r{2 * cli.CHECKPOINT_BLOCKS + 2:02d}" not in seen
        assert all(final[rid] == score for rid, score in seen.items())


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
