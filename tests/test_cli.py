"""End-to-end CLI tests: stdout goldens, exit codes, flag precedence, side files."""

import json
import logging
import os
import random
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from click.testing import CliRunner

from sumfact import (
    MockEntailmentBackend,
    NoopCorefBackend,
    RunConfig,
    Scorer,
    ScoringParams,
    SumfactError,
    formats,
    pipeline,
)
from sumfact.cli import main

import oracles
from cases import random_news_corpus
from stubserver import StubServer, dead_url

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(autouse=True)
def _detach_cli_log_handlers():
    # Commands bind a handler to the runner's captured stderr; drop it so later
    # tests never log into a closed buffer.
    yield
    logging.getLogger("sumfact").handlers.clear()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def corpus(tmp_path, claim_text="gamma delta."):
    docs = write(tmp_path, "docs.jsonl", '{"id": "d1", "text": "alpha beta. gamma delta."}\n')
    sums = write(
        tmp_path, "sums.jsonl", '{"id": "s1", "document_id": "d1", "text": "gamma delta."}\n'
    )
    claims = write(tmp_path, "claims.json", json.dumps({"s1": [claim_text]}))
    return docs, sums, claims


GOLDEN_LINE = (
    '{"summary_id": "s1", "score": 1.000000, "verdicts": '
    '[{"claim": {"summary_id": "s1", "index": 0, "text": "gamma delta."}, '
    '"score": 1.000000, "stage": "coref", '
    '"aligned": {"granularity": "sentence", "sentence_start": 1, '
    '"sentence_end": 1, "premise_text": "gamma delta.", "substitution": null}, '
    '"sub_scores": {"sentence": 1.000000, "coref": 1.000000}}], '
    '"claims_fallback": false, '
    '"params": {"j": 5, "T": 0.800000, "max_coref_variants": 20}}'
)


class TestScore:
    def test_golden_stdout(self, runner, tmp_path):
        docs, sums, claims = corpus(tmp_path)
        result = runner.invoke(main, ["score", docs, sums, "--claim-backend", f"cache:{claims}"])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == GOLDEN_LINE + "\n"

    def test_deterministic_across_runs(self, runner, tmp_path):
        docs, sums, claims = corpus(tmp_path)
        args = ["score", docs, sums, "--claim-backend", f"cache:{claims}"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.stdout == second.stdout

    def test_output_file(self, runner, tmp_path):
        docs, sums, claims = corpus(tmp_path)
        out = tmp_path / "report.jsonl"
        result = runner.invoke(
            main,
            ["score", docs, sums, "--claim-backend", f"cache:{claims}", "-o", str(out)],
        )
        assert result.exit_code == 0
        assert result.stdout == ""
        assert out.read_text() == GOLDEN_LINE + "\n"

    def test_sentence_fallback_without_extractor(self, runner, tmp_path):
        docs, sums, _ = corpus(tmp_path)
        result = runner.invoke(main, ["score", docs, sums])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["claims_fallback"] is True
        assert payload["verdicts"][0]["claim"]["text"] == "gamma delta."

    def test_missing_document_exits_2(self, runner, tmp_path):
        docs = write(tmp_path, "docs.jsonl", '{"id": "d1", "text": "alpha."}\n')
        sums = write(
            tmp_path, "sums.jsonl", '{"id": "s1", "document_id": "d9", "text": "alpha."}\n'
        )
        result = runner.invoke(main, ["score", docs, sums])
        assert result.exit_code == 2
        error = json.loads(result.stderr.strip().splitlines()[-1])
        assert error["error"] == "InputError"
        assert "summary 's1' references unknown document 'd9'" in error["message"]

    def test_invalid_jsonl_names_line(self, runner, tmp_path):
        docs = write(tmp_path, "docs.jsonl", '{"id": "d1", "text": "alpha."}\n{broken\n')
        sums = write(
            tmp_path, "sums.jsonl", '{"id": "s1", "document_id": "d1", "text": "alpha."}\n'
        )
        result = runner.invoke(main, ["score", docs, sums])
        assert result.exit_code == 2
        assert ":2: invalid JSON" in result.stderr

    @pytest.mark.parametrize("which", ["documents", "summaries"])
    def test_output_onto_an_input_exits_2_and_leaves_it_whole(self, runner, tmp_path, which):
        docs, sums, _ = corpus(tmp_path)
        target = {"documents": docs, "summaries": sums}[which]
        before = Path(target).read_bytes()
        result = runner.invoke(main, ["score", docs, sums, "-o", target])
        assert result.exit_code == 2, result.stderr
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": "InputError",
            "message": f"--output {target} is one of the inputs; it would be truncated",
        }
        assert Path(target).read_bytes() == before

    def test_claim_cache_miss_exits_2(self, runner, tmp_path):
        docs, sums, _ = corpus(tmp_path)
        claims = write(tmp_path, "other.json", '{"someone-else": ["x."]}')
        result = runner.invoke(main, ["score", docs, sums, "--claim-backend", f"cache:{claims}"])
        assert result.exit_code == 2
        assert "ClaimCacheMiss" in result.stderr

    def test_unreachable_nli_backend_exits_3(self, runner, tmp_path, fast_retries):
        docs, sums, _ = corpus(tmp_path)
        result = runner.invoke(main, ["score", docs, sums, "--nli-backend", f"remote:{dead_url()}"])
        assert result.exit_code == 3
        assert "NliBackendError" in result.stderr

    def test_invalid_gate_threshold_exits_2(self, runner, tmp_path):
        docs, sums, _ = corpus(tmp_path)
        result = runner.invoke(main, ["score", docs, sums, "--T", "1.5"])
        assert result.exit_code == 2
        assert "gate_threshold" in result.stderr

    @pytest.mark.parametrize("level", ["basic_format", "verbose", "critical"])
    def test_unknown_log_level_exits_2(self, runner, tmp_path, level):
        docs, sums, _ = corpus(tmp_path)
        result = runner.invoke(main, ["score", docs, sums, "--log-level", level])
        assert result.exit_code == 2
        error = json.loads(result.stderr.strip().splitlines()[-1])
        assert error["error"] == "InputError"
        assert "log_level must be one of" in error["message"]

    def test_flag_overrides_config_file(self, runner, tmp_path):
        docs = write(tmp_path, "docs.jsonl", '{"id": "d1", "text": "alpha beta. gamma delta."}\n')
        sums = write(
            tmp_path, "sums.jsonl", '{"id": "s1", "document_id": "d1", "text": "alpha gamma."}\n'
        )
        claims = write(tmp_path, "claims.json", '{"s1": ["alpha gamma."]}')
        config = write(tmp_path, "run.json", '{"gate_threshold": 0.5}')
        base = ["score", docs, sums, "--claim-backend", f"cache:{claims}", "--config", config]

        # Config file gate 0.5: the 0.5 sentence score passes the gate.
        result = runner.invoke(main, base)
        assert result.exit_code == 0
        assert json.loads(result.stdout)["verdicts"][0]["stage"] == "coref"

        # Flag gate 0.9 wins over the file: the claim drops to the multi stage.
        result = runner.invoke(main, base + ["--T", "0.9"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["verdicts"][0]["stage"] == "multi_granularity"
        assert payload["verdicts"][0]["score"] == 1.0

    def test_monotone_gate_from_flag_and_config_file(self, runner, tmp_path):
        # The coref score 2/3 misses the gate; the document scores -1.
        docs = write(
            tmp_path,
            "docs.jsonl",
            '{"id": "d1", "text": "alpha beta gamma. delta epsilon not zeta."}\n',
        )
        sums = write(
            tmp_path, "sums.jsonl", '{"id": "s1", "document_id": "d1", "text": "alpha beta zeta."}\n'
        )
        on = write(tmp_path, "on.json", '{"monotone_gate": true}')
        base = ["score", docs, sums, "--claim-backend", "none"]

        def claim_score(*args):
            result = runner.invoke(main, base + list(args))
            assert result.exit_code == 0, result.stderr
            return result.stdout, json.loads(result.stdout)["verdicts"][0]["score"]

        assert claim_score()[1] == -1.0
        assert claim_score("--config", on, "--no-monotone-gate")[1] == -1.0
        by_flag, score = claim_score("--monotone-gate")
        assert score == pytest.approx(2 / 3)
        assert claim_score("--config", on) == (by_flag, score)
        pairs = formats.read_corpus(
            docs, formats.index_documents(docs), sums, formats.index_summaries(sums)
        )
        scorer = Scorer(MockEntailmentBackend(), ScoringParams(monotone_gate=True))
        reports = pipeline.score_corpus(pairs, scorer, None, NoopCorefBackend(), "full")
        assert by_flag == "".join(formats.render_report(r) + "\n" for r in reports)

    def test_run_meta(self, runner, tmp_path):
        docs, sums, claims = corpus(tmp_path)
        meta_path = tmp_path / "meta.json"
        result = runner.invoke(
            main,
            [
                "score", docs, sums,
                "--claim-backend", f"cache:{claims}",
                "--run-meta", str(meta_path),
            ],
        )
        assert result.exit_code == 0
        meta = json.loads(meta_path.read_text())
        assert meta["command"] == "score"
        assert meta["nli_backend"] == "mock"
        assert meta["claim_backend"] == f"cache:{claims}"
        assert meta["coref_backend"] == "none"
        assert meta["claims_fallback_count"] == 0
        assert meta["summaries"] == 1
        assert meta["backend_calls"]["sentence"] > 0

    def test_run_meta_truncated_documents_skip_precomputed_clusters(self, runner, tmp_path):
        ann = {"sentence_index": 0, "start": 0, "end": 3}
        clusters = [[ann, {"sentence_index": 1, "start": 0, "end": 2}]]
        documents = [
            {"id": "d1", "text": "Ann ran. He hid.", "coref_clusters": clusters},
            {"id": "d2", "text": "Bob ran. He hid."},
            {"id": "d3", "text": "Cal ran."},
        ]
        summaries = [
            {"id": sid, "document_id": did, "text": "He hid."}
            for sid, did in [("s1", "d1"), ("s2", "d2"), ("s3", "d2"), ("s4", "d3")]
        ]
        docs = write(tmp_path, "docs.jsonl", "".join(json.dumps(d) + "\n" for d in documents))
        sums = write(tmp_path, "sums.jsonl", "".join(json.dumps(s) + "\n" for s in summaries))
        config = write(tmp_path, "run.json", '{"coref_max_sentences": 1}')
        meta_path = tmp_path / "meta.json"
        args = ["score", docs, sums, "--config", config, "--run-meta", str(meta_path)]
        result = runner.invoke(main, args + ["--coref-backend", "heuristic"])
        assert result.exit_code == 0, result.stderr
        # d1 carries clusters, so coref never scans it; d3 fits the limit.
        assert json.loads(meta_path.read_text())["coref_truncated_documents"] == ["d2"]
        result = runner.invoke(main, args + ["--coref-backend", "none"])
        assert result.exit_code == 0, result.stderr
        assert json.loads(meta_path.read_text())["coref_truncated_documents"] == []

    def test_debug_logging_to_stderr(self, runner, tmp_path):
        docs, sums, claims = corpus(tmp_path)
        result = runner.invoke(
            main,
            ["score", docs, sums, "--claim-backend", f"cache:{claims}", "--log-level", "debug"],
        )
        assert result.exit_code == 0
        assert '"event": "nli_calls"' in result.stderr
        # Logs stay on stderr; stdout is still the bare report line.
        assert result.stdout == GOLDEN_LINE + "\n"

    def test_heuristic_coref_via_flag(self, runner, tmp_path):
        docs = write(
            tmp_path,
            "docs.jsonl",
            '{"id": "d1", "text": "Billy Vunipola has been ruled out. He will return soon."}\n',
        )
        sums = write(
            tmp_path,
            "sums.jsonl",
            '{"id": "s1", "document_id": "d1", "text": "He was ruled out."}\n',
        )
        result = runner.invoke(
            main, ["score", docs, sums, "--coref-backend", "heuristic", "--T", "0.7"]
        )
        assert result.exit_code == 0
        verdict = json.loads(result.stdout)["verdicts"][0]
        assert verdict["stage"] == "coref"
        assert verdict["score"] == 0.75
        assert verdict["aligned"]["granularity"] == "coref_sentence"
        assert verdict["aligned"]["premise_text"] == "He has been ruled out."
        assert verdict["aligned"]["substitution"] == {
            "replaced": "Billy Vunipola",
            "replacement": "He",
        }


class TestScoreBlocks:
    """``score`` resolves its summaries as one stream and scores them in
    blocks cut by work, writing each block's lines as it goes."""

    def news(self, tmp_path, n_docs=10):
        """Documents, summaries and claim cache files of a news corpus with
        coref wins and sentence fallbacks; ``(docs, sums, claims, summary ids)``."""
        pairs, cache = random_news_corpus(random.Random(31), n_docs, 4)
        documents = {d.id: {"id": d.id, "text": d.text} for d, _ in pairs}
        summaries = [{"id": s.id, "document_id": s.document_id, "text": s.text} for _, s in pairs]
        # A summary the cache has no claims for takes the sentence fallback.
        claims = {s["id"]: cache.get(s["id"], []) for s in summaries}
        docs = write(tmp_path, "docs.jsonl", "".join(json.dumps(d) + "\n" for d in documents.values()))
        sums = write(tmp_path, "sums.jsonl", "".join(json.dumps(s) + "\n" for s in summaries))
        claims_path = write(tmp_path, "claims.json", json.dumps(claims))
        return docs, sums, claims_path, [s["id"] for s in summaries]

    def run(self, runner, tmp_path, docs, sums, claims, batch_size, workers="1", **config):
        config = write(tmp_path, "run.json", json.dumps({"nli_batch_size": batch_size, **config}))
        meta = tmp_path / "meta.json"
        result = runner.invoke(main, [
            "score", docs, sums, "--claim-backend", f"cache:{claims}",
            "--coref-backend", "heuristic", "--config", config,
            "--workers", workers, "--run-meta", str(meta),
        ])
        return result, meta

    def test_bytes_do_not_depend_on_blocks_or_workers(self, runner, tmp_path):
        docs, sums, claims, ids = self.news(tmp_path)
        single, _ = self.run(runner, tmp_path, docs, sums, claims, len(ids))
        assert single.exit_code == 0, single.stderr
        lines = single.stdout.splitlines()
        assert [json.loads(line)["summary_id"] for line in lines] == ids
        fallbacks = sum(json.loads(line)["claims_fallback"] for line in lines)
        assert 0 < fallbacks < len(ids)
        assert any('"stage": "coref"' in line for line in lines)
        for batch_size in (2, 32):
            for workers in ("1", "3"):
                result, meta = self.run(runner, tmp_path, docs, sums, claims, batch_size, workers)
                assert result.exit_code == 0, result.stderr
                assert result.stdout == single.stdout, (batch_size, workers)
                meta = json.loads(meta.read_text())
                assert meta["summaries"] == len(lines)
                assert meta["claims_fallback_count"] == fallbacks

    def test_one_extraction_pool_per_run(self, runner, tmp_path, monkeypatch):
        # 300 summaries at four workers: one pool resolves every claim and
        # one runs the backend's batches, however many blocks the run has.
        docs, sums, claims, ids = self.news(tmp_path, n_docs=75)
        serial, _ = self.run(runner, tmp_path, docs, sums, claims, 32)
        assert serial.exit_code == 0, serial.stderr
        assert len(serial.stdout.splitlines()) == len(ids) == 300
        built = []
        init = ThreadPoolExecutor.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("max_workers", args[0] if args else None))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting)
        result, _ = self.run(runner, tmp_path, docs, sums, claims, 32, "4")
        assert result.exit_code == 0, result.stderr
        assert built == [4, 4]
        assert result.stdout == serial.stdout

    # Five summaries of four-sentence documents: t1 and t5 have two claims,
    # so eight sentence-wave pairs, the others four. At nli_batch_size 2 and
    # PER_SLOT pairs per slot a block closes at ten pairs: [t1, t2] and
    # [t3, t4, t5]. t2 repeats t1's first claim in the same block and t3 in
    # the next, so t3's pairs are sent again; t5 repeats t4's claim in its block.
    PER_SLOT = 5
    TRAFFIC_DOCS = {
        "d1": "Billy Vunipola has been ruled out of the match. He injured his knee in "
        "training. The coach said Vunipola would return in March. England play Wales "
        "on Saturday.",
        "d2": "Maria Lopez won the city marathon on Sunday. She finished in two hours. "
        "Lopez thanked the crowd after the race. The runner-up was Anna Berg.",
    }
    TRAFFIC_SUMMARIES = [
        ("t1", "d1", ["He hurt his knee in March.", "England play Wales on Saturday."]),
        ("t2", "d1", ["He hurt his knee in March."]),
        ("t3", "d1", ["He hurt his knee in March."]),
        ("t4", "d2", ["She won the race in two hours."]),
        ("t5", "d2", ["She won the race in two hours.", "Anna Berg thanked the crowd."]),
    ]

    # The clusters the heuristic finds in d1, given in the input instead.
    D1_CLUSTERS = [[
        {"sentence_index": 0, "start": 0, "end": 14},
        {"sentence_index": 1, "start": 0, "end": 2},
        {"sentence_index": 1, "start": 11, "end": 14},
    ]]

    def traffic(self, tmp_path, clusters=None):
        """Document, summary and claim cache files of the traffic corpus;
        ``clusters`` maps a document id to the coref clusters it carries."""
        documents = [{"id": did, "text": text} for did, text in self.TRAFFIC_DOCS.items()]
        for document in documents:
            if clusters and document["id"] in clusters:
                document["coref_clusters"] = clusters[document["id"]]
        docs = write(tmp_path, "docs.jsonl", "".join(json.dumps(d) + "\n" for d in documents))
        sums = write(tmp_path, "sums.jsonl", "".join(
            json.dumps({"id": sid, "document_id": did, "text": " ".join(texts)}) + "\n"
            for sid, did, texts in self.TRAFFIC_SUMMARIES
        ))
        claims = write(tmp_path, "claims.json", json.dumps(
            {sid: texts for sid, _, texts in self.TRAFFIC_SUMMARIES}
        ))
        return docs, sums, claims

    def test_traffic_matches_golden(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("sumfact.pipeline.BLOCK_PAIRS_PER_SLOT", self.PER_SLOT)
        docs, sums, claims = self.traffic(tmp_path)
        golden = json.loads((GOLDEN_DIR / "score_traffic.json").read_text())
        for workers in ("1", "3"):
            result, meta = self.run(
                runner, tmp_path, docs, sums, claims, 2, workers, window_size=2
            )
            assert result.exit_code == 0, result.stderr
            meta = json.loads(meta.read_text())
            assert {key: meta[key] for key in golden} == golden, workers

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_run_meta_matches_golden(self, runner, tmp_path, monkeypatch, workers):
        # d1 carries its clusters, so coref scans only d2, and cuts it after
        # three of its four sentences; d2 is listed once.
        monkeypatch.setattr("sumfact.pipeline.BLOCK_PAIRS_PER_SLOT", self.PER_SLOT)
        docs, sums, claims = self.traffic(tmp_path, {"d1": self.D1_CLUSTERS})
        result, meta = self.run(
            runner, tmp_path, docs, sums, claims, 2, workers, window_size=2, coref_max_sentences=3
        )
        assert result.exit_code == 0, result.stderr
        golden = (GOLDEN_DIR / "score_run_meta.json").read_text()
        assert meta.read_text().replace(str(tmp_path), "<tmp>") == golden

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_debug_traffic_matches_golden(self, runner, tmp_path, monkeypatch, workers):
        # Two blocks: the nli_calls lines, in order, and they add up to the
        # pairs the run-meta counts as sent.
        monkeypatch.setattr("sumfact.pipeline.BLOCK_PAIRS_PER_SLOT", self.PER_SLOT)
        docs, sums, claims = self.traffic(tmp_path)
        result, meta = self.run(
            runner, tmp_path, docs, sums, claims, 2, workers, window_size=2, log_level="debug"
        )
        assert result.exit_code == 0, result.stderr
        events = [line for line in result.stderr.splitlines() if '"event": "nli_calls"' in line]
        assert events == (GOLDEN_DIR / "score_nli_calls.jsonl").read_text().splitlines()
        sent = {stage: 0 for stage in ("sentence", "coref", "window", "document")}
        for event in map(json.loads, events):
            sent[event["stage"]] += event["pairs"]
        assert sent == json.loads(meta.read_text())["backend_calls"]

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_batches_match_golden(self, runner, tmp_path, monkeypatch, workers):
        # Rows per batch of each wave, waves in the order they are sent, with
        # and without a budget: a change to how batches are cut shows here.
        waves = []

        class Recording(MockEntailmentBackend):
            def submit(self, pairs, sizes=None, bound=None):
                inference = super().submit(pairs, sizes, bound)
                waves.append([len(batch) for batch in inference._batches])
                return inference

        monkeypatch.setattr("sumfact.pipeline.MockEntailmentBackend", Recording)
        monkeypatch.setattr("sumfact.pipeline.BLOCK_PAIRS_PER_SLOT", self.PER_SLOT)
        docs, sums, claims = self.traffic(tmp_path)
        got = []
        for units in (None, 150):
            waves.clear()
            result, _ = self.run(
                runner, tmp_path, docs, sums, claims, 2, workers, window_size=2, nli_max_units=units
            )
            assert result.exit_code == 0, result.stderr
            got.append({"nli_batch_size": 2, "nli_max_units": units, "waves": list(waves)})
        assert got == json.loads((GOLDEN_DIR / "score_batches.json").read_text())

    def test_claim_cache_miss_in_second_block_exits_2_after_the_first(self, runner, tmp_path):
        # The four summaries make one block; the miss is in its last
        # summary, so the lines of the three before it are written.
        docs, sums, claims, ids = self.news(tmp_path, n_docs=1)
        full, meta = self.run(runner, tmp_path, docs, sums, claims, 2)
        assert full.exit_code == 0, full.stderr
        meta.unlink()
        cache = json.loads(Path(claims).read_text())
        del cache[ids[3]]
        write(tmp_path, "claims.json", json.dumps(cache))
        result, meta = self.run(runner, tmp_path, docs, sums, claims, 2)
        assert result.exit_code == 2
        error = json.loads(result.stderr.strip().splitlines()[-1])
        assert error == {
            "error": "ClaimCacheMiss",
            "message": f"claim cache has no entry for summary '{ids[3]}'",
        }
        assert result.stdout.splitlines() == full.stdout.splitlines()[:3]
        assert not meta.exists()


# Inputs with two faults, and the one reported: the documents file is
# checked before the summaries file, each line's fields in a fixed order, and
# a summary's document only once the backends are built. ``{docs}``,
# ``{sums}`` and ``{tmp}`` stand for the files' paths and their directory.
DOC = '{"id": "d1", "text": "alpha beta."}'
SUM = '{"id": "s1", "document_id": "d1", "text": "alpha."}'
FIRST_FAULT = {
    "duplicate summary id before blank text": (
        "score", [DOC], [SUM, '{"id": "s1", "document_id": "d1", "text": " "}'], [],
        "{sums}:2: duplicate summary id 's1'",
    ),
    "extract-claims: duplicate summary id before blank text": (
        "extract-claims", [], [SUM, '{"id": "s1", "document_id": "d1", "text": " "}'],
        ["--claim-backend", "cache:{tmp}/claims.json"],
        "{sums}:2: duplicate summary id 's1'",
    ),
    "missing document_id before duplicate summary id": (
        "score", [DOC], [SUM, '{"id": "s1", "text": "alpha."}'], [],
        "{sums}:2: missing or empty string field 'document_id'",
    ),
    "sentence spans before duplicate document id": (
        "score", [DOC, '{"id": "d1", "text": "alpha.", "sentences": [{"start": 0, "end": 99}]}'],
        [SUM], [],
        "{docs}:2: sentence 0 span [0, 99) out of range",
    ),
    "documents file before summaries file": (
        "score", [DOC, '{"id": "d2"}'], ['{"id": "s1", "document_id": "d1", "text": " "}'], [],
        "{docs}:2: missing or empty string field 'text'",
    ),
    "blank summary before unknown document": (
        "score", [DOC], ['{"id": "s1", "document_id": "d9", "text": " "}'], [],
        "{sums}:1: cannot segment empty or whitespace-only text",
    ),
    "claim cache before unknown document": (
        "score", [DOC], ['{"id": "s1", "document_id": "d9", "text": "alpha."}'],
        ["--claim-backend", "cache:{tmp}/missing.json"],
        "cannot open {tmp}/missing.json: [Errno 2] No such file or directory: '{tmp}/missing.json'",
    ),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", list(FIRST_FAULT))
    def test_first_fault_is_reported(self, runner, tmp_path, case):
        command, doc_lines, sum_lines, args, message = FIRST_FAULT[case]
        paths = {
            "docs": write(tmp_path, "docs.jsonl", "".join(line + "\n" for line in doc_lines)),
            "sums": write(tmp_path, "sums.jsonl", "".join(line + "\n" for line in sum_lines)),
            "tmp": str(tmp_path),
        }
        write(tmp_path, "claims.json", '{"s1": ["alpha."]}')
        inputs = [paths["docs"], paths["sums"]] if command == "score" else [paths["sums"]]
        args = [arg.format(**paths) for arg in args]
        result = runner.invoke(main, [command, *inputs, *args])
        assert result.exit_code == 2, result.stderr
        assert result.stdout == ""
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": "InputError",
            "message": message.format(**paths),
        }

    @pytest.mark.parametrize(
        "doc_line, args, error, message",
        [
            pytest.param(
                DOC, ["--output", "{tmp}/missing/x.jsonl"], "FileNotFoundError",
                "[Errno 2] No such file or directory: '{tmp}/missing/x.jsonl'", id="output dir",
            ),
            pytest.param(
                DOC, ["--claim-backend", "local:"], "InputError",
                "claim_backend 'local:' needs a model name or path", id="local: without model",
            ),
            pytest.param(
                DOC, ["--coref-backend", "heuristic:max_sentences=1"], "InputError",
                "coref_backend 'heuristic:max_sentences=1': kind 'heuristic' takes no value",
                id="value on heuristic",
            ),
            pytest.param(
                DOC, ["--coref-backend", "none:x"], "InputError",
                "coref_backend 'none:x': kind 'none' takes no value", id="value on coref none",
            ),
            pytest.param(
                DOC, ["--nli-backend", "mock:large"], "InputError",
                "nli_backend 'mock:large': kind 'mock' takes no value", id="value on mock",
            ),
            pytest.param(
                DOC, ["--claim-backend", "none:claims.json"], "InputError",
                "claim_backend 'none:claims.json': kind 'none' takes no value",
                id="value on claims none",
            ),
            pytest.param(
                '{"id": "d1", "text": "alpha.    beta.", '
                '"sentences": [{"start": 0, "end": 6}, {"start": 6, "end": 10}]}',
                [], "InputError", "{docs}:1: document 'd1': sentence 1 is whitespace-only",
                id="whitespace-only sentence span",
            ),
        ],
    )
    def test_error_exits_2_with_json(self, runner, tmp_path, doc_line, args, error, message):
        paths = {
            "docs": write(tmp_path, "docs.jsonl", doc_line + "\n"),
            "sums": write(tmp_path, "sums.jsonl", SUM + "\n"),
            "tmp": str(tmp_path),
        }
        args = [arg.format(**paths) for arg in args]
        result = runner.invoke(main, ["score", paths["docs"], paths["sums"], *args])
        assert result.exit_code == 2, result.stderr
        assert result.stdout == ""
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": error,
            "message": message.format(**paths),
        }

    def test_blank_document_names_its_line(self, runner, tmp_path):
        docs = write(
            tmp_path, "docs.jsonl", '{"id": "d1", "text": "alpha."}\n{"id": "d2", "text": " \\t"}\n'
        )
        sums = write(
            tmp_path, "sums.jsonl", '{"id": "s1", "document_id": "d1", "text": "alpha."}\n'
        )
        result = runner.invoke(main, ["score", docs, sums])
        assert result.exit_code == 2
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": "InputError",
            "message": f"{docs}:2: cannot segment empty or whitespace-only text",
        }

    @pytest.mark.parametrize("command", ["score", "extract-claims"])
    @pytest.mark.parametrize(
        "content, message",
        [
            ("{bad", "invalid JSON"),
            ('{"s1": [1, 2]}', "entry 's1' must be an array of strings"),
            # A bare string would otherwise be read as one claim per character.
            ('{"s1": "He was ruled out."}', "entry 's1' must be an array of strings"),
        ],
    )
    def test_malformed_claim_cache_exits_2(self, runner, tmp_path, command, content, message):
        docs, sums, _ = corpus(tmp_path)
        claims = write(tmp_path, "bad.json", content)
        inputs = [docs, sums] if command == "score" else [sums]
        result = runner.invoke(main, [command, *inputs, "--claim-backend", f"cache:{claims}"])
        assert result.exit_code == 2
        assert result.stdout == ""
        error = json.loads(result.stderr.strip().splitlines()[-1])
        assert error["error"] == "InputError"
        assert message in error["message"]

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"claim_max_retries": 9}, "max_retries"),
            ({"claim_timeout": 0}, "timeout"),
            ({"claim_timeout": float("nan")}, "claim_timeout must be finite and above 0"),
            ({"claim_max_tokens": 0}, "max_tokens"),
            ({"claim_timeout": float("inf")}, "claim_timeout must be finite and above 0"),
            # A removed setting is an unknown key, not silently ignored.
            ({"claim_max_in_flight": 4}, "unknown key 'claim_max_in_flight'"),
        ],
    )
    def test_out_of_range_claim_settings_exit_2(self, runner, tmp_path, setting, message):
        docs, sums, _ = corpus(tmp_path)
        config = write(tmp_path, "run.json", json.dumps(setting))
        result = runner.invoke(
            main,
            ["score", docs, sums, "--config", config,
             "--claim-backend", "remote:http://127.0.0.1:9"],
        )
        assert result.exit_code == 2
        error = json.loads(result.stderr.strip().splitlines()[-1])
        assert error["error"] == "InputError"
        assert message in error["message"]

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"nli_max_units": 1}, "nli_max_units: budget below 16 units"),
            ({"nli_max_units": 15}, "nli_max_units: budget below 16 units"),
            ({"coref_max_sentences": 0, "coref_backend": "heuristic"},
             "coref_max_sentences: max_sentences must be >= 1"),
            ({"workers": None}, "config key 'workers': null is not allowed"),
            ({"cache_dir": ["a"]}, "config key 'cache_dir': not a string"),
            ({"nli_max_units": -5}, "nli_max_units: budget below 16 units"),
            # Checked with the config, whichever coref backend it names.
            ({"coref_max_sentences": 0}, "coref_max_sentences: max_sentences must be >= 1"),
        ],
    )
    def test_out_of_range_backend_settings_exit_2(self, runner, tmp_path, setting, message):
        docs, sums, _ = corpus(tmp_path)
        config = write(tmp_path, "run.json", json.dumps(setting))
        result = runner.invoke(main, ["score", docs, sums, "--config", config])
        assert result.exit_code == 2
        assert result.stdout == ""
        error = json.loads(result.stderr.strip().splitlines()[-1])
        assert error["error"] == "InputError"
        assert message in error["message"]

    @pytest.mark.parametrize("units", [None, 0])
    def test_unset_nli_max_units_means_unlimited(self, runner, tmp_path, units):
        docs, sums, claims = corpus(tmp_path)
        config = write(tmp_path, "run.json", json.dumps({"nli_max_units": units}))
        result = runner.invoke(
            main, ["score", docs, sums, "--config", config, "--claim-backend", f"cache:{claims}"]
        )
        assert result.exit_code == 0, result.stderr
        assert result.stdout == GOLDEN_LINE + "\n"

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{bad", "invalid JSON"),
            ('{"v1": "abc"}', "entry 'v1' is not a number"),
            ('{"v1": null}', "entry 'v1' is not a number"),
            ('{"v1": NaN}', "entry 'v1' is not a number"),
            ('{"v1": -Infinity}', "entry 'v1' is not a number"),
            pytest.param('{"v1": 1' + "0" * 400 + "}", "entry 'v1' is not a number", id="huge-int"),
        ],
    )
    def test_corrupt_score_cache_exits_2(self, runner, tmp_path, content, message):
        records = benchmark_file(tmp_path)
        cache_dir = tmp_path / "cache"
        args = ["benchmark", records, "--cache-dir", str(cache_dir)]
        assert runner.invoke(main, args).exit_code == 0
        (cache_path,) = cache_dir.glob("scores-*.json")
        cache_path.write_text(content, encoding="utf-8")
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        error = json.loads(result.stderr.strip().splitlines()[-1])
        assert error["error"] == "InputError"
        assert message in error["message"]


class TestExtractClaims:
    def test_cache_passthrough(self, runner, tmp_path):
        _, sums, claims = corpus(tmp_path, claim_text="A claim stands.")
        result = runner.invoke(
            main, ["extract-claims", sums, "--claim-backend", f"cache:{claims}"]
        )
        assert result.exit_code == 0
        assert result.stdout == json.dumps({"s1": ["A claim stands."]}, indent=2) + "\n"

    def test_requires_backend(self, runner, tmp_path):
        _, sums, _ = corpus(tmp_path)
        result = runner.invoke(main, ["extract-claims", sums])
        assert result.exit_code == 2
        assert "needs --claim-backend" in result.stderr

    def test_no_summaries_yields_empty_object(self, runner, tmp_path):
        sums = write(tmp_path, "empty.jsonl", "\n")
        claims = write(tmp_path, "claims.json", "{}")
        result = runner.invoke(
            main, ["extract-claims", sums, "--claim-backend", f"cache:{claims}"]
        )
        assert result.exit_code == 0
        assert result.stdout == "{}\n"

    def test_empty_extraction_recorded_as_empty_list(self, runner, tmp_path):
        _, sums, _ = corpus(tmp_path)
        claims = write(tmp_path, "claims.json", '{"s1": []}')
        result = runner.invoke(
            main, ["extract-claims", sums, "--claim-backend", f"cache:{claims}"]
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {"s1": []}


class TestEvalClaims:
    def files(self, tmp_path):
        system = write(
            tmp_path, "system.jsonl", '{"summary_id": "a", "claims": ["the cat sat"]}\n'
        )
        human = write(
            tmp_path, "human.jsonl", '{"summary_id": "a", "claims": ["the cat ran here"]}\n'
        )
        return system, human

    def test_report_values(self, runner, tmp_path):
        system, human = self.files(tmp_path)
        result = runner.invoke(main, ["eval-claims", system, human])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["easiness_p"] == pytest.approx(4 / 7, abs=5e-7)
        assert '"easiness_p": 0.571429' in result.stdout

    def test_percent_summary_on_stderr(self, runner, tmp_path):
        system, human = self.files(tmp_path)
        result = runner.invoke(main, ["eval-claims", system, human])
        assert "easiness_P=57.1 easiness_R=57.1 easiness_F1=57.1 (percent)" in result.stderr

    def test_id_mismatch_exits_2(self, runner, tmp_path):
        system = write(tmp_path, "system.jsonl", '{"summary_id": "a", "claims": ["x."]}\n')
        human = write(tmp_path, "human.jsonl", '{"summary_id": "b", "claims": ["x."]}\n')
        result = runner.invoke(main, ["eval-claims", system, human])
        assert result.exit_code == 2
        assert "different summaries" in result.stderr


def benchmark_file(tmp_path, golds=("factual", "not_factual", "factual", "not_factual")):
    rows = []
    ids = ["v1", "v2", "t1", "t2"]
    splits = ["validation", "validation", "test", "test"]
    for rid, split, gold in zip(ids, splits, golds):
        factual_text = "alpha beta gamma."
        summary = factual_text if gold == "factual" else "delta epsilon zeta."
        rows.append(
            json.dumps(
                {
                    "record_id": rid,
                    "document": factual_text,
                    "summary": summary,
                    "gold_label": gold,
                    "dataset": "main",
                    "split": split,
                }
            )
        )
    return write(tmp_path, "records.jsonl", "\n".join(rows) + "\n")


class TestBenchmark:
    def test_separable_records_score_perfectly(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        result = runner.invoke(main, ["benchmark", records])
        assert result.exit_code == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["average_balanced_accuracy"] == 1.0
        assert payload["datasets"]["main"]["confusion"] == {
            "tp": 1, "fp": 0, "tn": 1, "fn": 0,
        }
        assert '"average_balanced_accuracy": 1.000000' in result.stdout

    def test_single_threshold_reports_pooled(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        result = runner.invoke(main, ["benchmark", records, "--protocol", "single_threshold"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["protocol"] == "single_threshold"
        assert "pooled_threshold" in payload

    def test_degenerate_validation_labels_exit_4(self, runner, tmp_path):
        records = benchmark_file(tmp_path, golds=("factual", "factual", "factual", "not_factual"))
        result = runner.invoke(main, ["benchmark", records])
        assert result.exit_code == 4
        assert "DegenerateLabels" in result.stderr

    def test_scores_csv(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        csv_path = tmp_path / "scores.csv"
        result = runner.invoke(main, ["benchmark", records, "--scores-csv", str(csv_path)])
        assert result.exit_code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "record_id,dataset,split,system,gold_label,score,prediction"
        assert lines[1] == "v1,main,validation,unknown,factual,1.000000,factual"
        assert lines[2] == "v2,main,validation,unknown,not_factual,0.000000,not_factual"
        assert len(lines) == 5

    def test_nli_blip_leaves_report_unchanged(self, runner, tmp_path, fast_retries):
        records = benchmark_file(tmp_path)
        blips = []

        def handler(path, body, headers):
            if blips and len(server.requests) == blips[0]:
                return 503, {"error": "busy"}
            return 200, {"triples": [oracles.mock_triple(p, h) for p, h in body["pairs"]]}

        config = write(tmp_path, "run.json", json.dumps({"nli_batch_size": 1}))
        mock = ["benchmark", records, "--config", config]
        with StubServer(handler) as server:
            args = mock + ["--nli-backend", f"remote:{server.url}"]
            clean = runner.invoke(main, args)
            assert clean.exit_code == 0, clean.stderr
            sent = len(server.requests)
            blips.append(sent + 2)  # the second batch of the next run, once
            flaky = runner.invoke(main, args)
            assert flaky.exit_code == 0, flaky.stderr
            assert len(server.requests) == 2 * sent + 1
        assert flaky.stdout_bytes == clean.stdout_bytes
        assert clean.stdout_bytes == runner.invoke(main, mock).stdout_bytes

    def test_cache_reuse_and_fingerprint_separation(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        cache_dir = tmp_path / "cache"
        out1 = tmp_path / "out1.json"
        out2 = tmp_path / "out2.json"
        base = ["benchmark", records, "--cache-dir", str(cache_dir)]
        assert runner.invoke(main, base + ["-o", str(out1)]).exit_code == 0
        assert runner.invoke(main, base + ["-o", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(list(cache_dir.glob("scores-*.json"))) == 1
        # A different gate threshold is a different scorer fingerprint.
        assert runner.invoke(main, base + ["--T", "0.5"]).exit_code == 0
        assert len(list(cache_dir.glob("scores-*.json"))) == 2

    def test_unreadable_score_cache_exits_2(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        cache_dir = tmp_path / "cache"
        args = ["benchmark", records, "--cache-dir", str(cache_dir)]
        assert runner.invoke(main, args).exit_code == 0
        (path,) = cache_dir.glob("scores-*.json")
        path.unlink()
        path.mkdir()
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.stderr
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": "InputError",
            "message": f"cannot open score cache {path}: [Errno 21] Is a directory: '{path}'",
        }

    def test_edited_claim_file_is_rescored(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        claims = tmp_path / "claims.json"
        cached = ["benchmark", records, "--claim-backend", f"cache:{claims}"]
        cached += ["--cache-dir", str(tmp_path / "cache")]
        fresh = cached[:-1] + [str(tmp_path / "fresh")]
        csv_path = tmp_path / "scores.csv"

        def t1_score(args):
            result = runner.invoke(main, args + ["--scores-csv", str(csv_path)])
            assert result.exit_code == 0, result.stderr
            return csv_path.read_text().splitlines()[3].split(",")[5]

        claims.write_text(json.dumps({"t1:summary": ["alpha beta gamma."]}), encoding="utf-8")
        assert t1_score(cached) == "1.000000"
        claims.write_text(json.dumps({"t1:summary": ["delta epsilon."]}), encoding="utf-8")
        assert t1_score(cached) == t1_score(fresh) == "0.000000"

    def test_nli_sent_shares_one_cache_across_claim_backends(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        cache_dir = tmp_path / "cache"
        base = ["benchmark", records, "--mode", "nli_sent", "--cache-dir", str(cache_dir)]
        c1 = write(tmp_path, "c1.json", json.dumps({"t1:summary": ["alpha."]}))
        c2 = write(tmp_path, "c2.json", json.dumps({"t1:summary": ["delta."]}))
        outputs = set()
        for backend in ("none", f"cache:{c1}", f"cache:{c2}"):
            result = runner.invoke(main, base + ["--claim-backend", backend])
            assert result.exit_code == 0, result.stderr
            outputs.add(result.stdout)
        assert len(outputs) == 1
        assert len(list(cache_dir.glob("scores-*.json"))) == 1

    @pytest.mark.parametrize("claim_file", ["missing", "array"])
    def test_nli_sent_never_loads_the_claim_file(self, runner, tmp_path, claim_file):
        # nli_sent scores summary sentences, so a claim file that cannot be
        # loaded neither stops it nor moves its score cache; full mode still
        # rejects the file.
        records = benchmark_file(tmp_path)
        if claim_file == "missing":
            claims = str(tmp_path / "missing.json")
        else:
            claims = write(tmp_path, "array.json", json.dumps([["alpha."]]))
        meta_path = tmp_path / "meta.json"

        def run(mode, claim_backend, cache_dir):
            return runner.invoke(
                main,
                [
                    "benchmark", records, "--mode", mode, "--claim-backend", claim_backend,
                    "--cache-dir", str(tmp_path / cache_dir), "--run-meta", str(meta_path),
                ],
            )

        baseline = run("nli_sent", "none", "plain")
        assert baseline.exit_code == 0, baseline.stderr
        result = run("nli_sent", f"cache:{claims}", "claims")
        assert result.exit_code == 0, result.stderr
        assert result.stdout == baseline.stdout
        names = [[p.name for p in (tmp_path / d).glob("scores-*.json")] for d in ("plain", "claims")]
        assert names[0] == names[1] and len(names[0]) == 1
        assert json.loads(meta_path.read_text())["claim_backend"] == "none"
        full = run("full", f"cache:{claims}", "full")
        assert full.exit_code == 2
        assert "error" in json.loads(full.stderr.strip().splitlines()[-1])

    def test_cluster_free_coref_ablation_matches_claim_ablation(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        paths = {}
        for mode in ("nli_claim", "nli_coref"):
            csv_path = tmp_path / f"{mode}.csv"
            result = runner.invoke(
                main, ["benchmark", records, "--mode", mode, "--scores-csv", str(csv_path)]
            )
            assert result.exit_code == 0
            paths[mode] = csv_path
        assert paths["nli_claim"].read_bytes() == paths["nli_coref"].read_bytes()

    def test_run_meta_counts_fallbacks(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        meta_path = tmp_path / "meta.json"
        result = runner.invoke(main, ["benchmark", records, "--run-meta", str(meta_path)])
        assert result.exit_code == 0
        meta = json.loads(meta_path.read_text())
        assert meta["command"] == "benchmark"
        assert meta["mode"] == "full"
        assert meta["records"] == 4
        # No claim extractor: every record falls back to summary sentences.
        assert meta["claims_fallback_count"] == 4
        assert meta["cache"] is None

    def test_nli_sent_mode_never_counts_fallbacks(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        meta_path = tmp_path / "meta.json"
        result = runner.invoke(
            main, ["benchmark", records, "--mode", "nli_sent", "--run-meta", str(meta_path)]
        )
        assert result.exit_code == 0
        assert json.loads(meta_path.read_text())["claims_fallback_count"] == 0

    def test_fenice_alias(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        meta_path = tmp_path / "meta.json"
        result = runner.invoke(
            main, ["benchmark", records, "--mode", "fenice", "--run-meta", str(meta_path)]
        )
        assert result.exit_code == 0
        assert json.loads(meta_path.read_text())["mode"] == "full"
        assert json.loads(result.stdout)["mode"] == "full"

    def test_workers_flag_keeps_output_stable(self, runner, tmp_path):
        records = benchmark_file(tmp_path)
        serial = runner.invoke(main, ["benchmark", records])
        threaded = runner.invoke(main, ["benchmark", records, "--workers", "3"])
        assert serial.stdout == threaded.stdout

    def test_nli_sent_builds_only_the_backend_pool(self, runner, tmp_path, monkeypatch):
        # nli_sent extracts no claims, so its pairs are resolved on the
        # caller's thread at any --workers; only the backend's batches run on a pool.
        records = benchmark_file(tmp_path)
        serial = runner.invoke(main, ["benchmark", records, "--mode", "nli_sent"])
        built = []
        init = ThreadPoolExecutor.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("max_workers", args[0] if args else None))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting)
        result = runner.invoke(main, ["benchmark", records, "--mode", "nli_sent", "--workers", "4"])
        assert result.exit_code == 0, result.stderr
        assert built == [4]
        assert result.stdout == serial.stdout


class TestOutputsNameNoOtherFile:
    """An output (``--output``, ``--run-meta``, ``--scores-csv``) may not name
    a file its command reads, nor another output: the run exits 2 before it
    reads anything, and every file is left as it was."""

    INPUTS = {
        "score": ["documents", "summaries"],
        "benchmark": ["records"],
        "extract-claims": ["summaries"],
        "eval-claims": ["system", "human"],
    }

    def files(self, tmp_path, command, read=None):
        docs, sums, claims = corpus(tmp_path)
        # The claim file is named by --claim-backend, or only by the config.
        in_config = {"claim_backend": f"cache:{claims}"} if read == "config's claims" else {}
        files = {
            "documents": docs,
            "summaries": sums,
            "records": benchmark_file(tmp_path),
            "system": write(tmp_path, "system.jsonl", '{"summary_id": "a", "claims": ["x."]}\n'),
            "human": write(tmp_path, "human.jsonl", '{"summary_id": "a", "claims": ["x."]}\n'),
            "config": write(tmp_path, "config.json", json.dumps(in_config)),
            "claims": claims,
            "config's claims": claims,
        }
        args = [command, *(files[name] for name in self.INPUTS[command])]
        if command == "extract-claims" or read == "claims":
            args += ["--claim-backend", f"cache:{claims}"]
        if command != "eval-claims":
            args += ["--config", files["config"]]
        return args, files

    @staticmethod
    def snapshot(tmp_path):
        return {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    @pytest.mark.parametrize(
        "command, flag, read",
        [
            ("score", "--run-meta", "documents"),
            ("score", "--run-meta", "summaries"),
            ("score", "--output", "config"),
            ("score", "--run-meta", "config"),
            ("benchmark", "--output", "records"),
            ("benchmark", "--scores-csv", "records"),
            ("benchmark", "--run-meta", "records"),
            ("benchmark", "--scores-csv", "config"),
            ("extract-claims", "--output", "summaries"),
            ("extract-claims", "--output", "config"),
            ("eval-claims", "--output", "system"),
            ("eval-claims", "--output", "human"),
            ("score", "--output", "claims"),
            ("score", "--output", "config's claims"),
            ("extract-claims", "--output", "claims"),
        ],
    )
    def test_output_onto_a_read_file_exits_2(self, runner, tmp_path, command, flag, read):
        args, files = self.files(tmp_path, command, read)
        before = self.snapshot(tmp_path)
        result = runner.invoke(main, [*args, flag, files[read]])
        assert result.exit_code == 2, result.stderr
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": "InputError",
            "message": f"{flag} {files[read]} is one of the inputs; it would be truncated",
        }
        assert self.snapshot(tmp_path) == before

    @pytest.mark.parametrize(
        "command, first, second",
        [
            ("score", "--output", "--run-meta"),
            ("benchmark", "--output", "--scores-csv"),
            ("benchmark", "--output", "--run-meta"),
            ("benchmark", "--run-meta", "--scores-csv"),
        ],
    )
    @pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
    def test_two_outputs_onto_one_path_exit_2(
        self, runner, tmp_path, command, first, second, exists
    ):
        args, _ = self.files(tmp_path, command)
        out = tmp_path / "out"
        if exists:
            out.write_text("kept\n")
        before = self.snapshot(tmp_path)
        # The second flag names the path by another spelling.
        other = str(tmp_path / "." / "out")
        result = runner.invoke(main, [*args, second, other, first, str(out)])
        assert result.exit_code == 2, result.stderr
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": "InputError",
            "message": f"{second} {other} is also {first}; it would be truncated",
        }
        assert self.snapshot(tmp_path) == before

    @pytest.mark.parametrize(
        "command, flag",
        [("score", "--run-meta"), ("benchmark", "--run-meta"), ("benchmark", "--scores-csv")],
    )
    def test_dash_is_stdout_for_every_output(
        self, runner, tmp_path, monkeypatch, command, flag
    ):
        args, _ = self.files(tmp_path, command)
        monkeypatch.chdir(tmp_path)
        report = str(tmp_path / "report")
        to_file = runner.invoke(main, [*args, "-o", report, flag, "side"])
        assert to_file.exit_code == 0, to_file.stderr
        to_stdout = runner.invoke(main, [*args, "-o", report, flag, "-"])
        assert to_stdout.exit_code == 0, to_stdout.stderr
        assert to_stdout.stdout_bytes == (tmp_path / "side").read_bytes()
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize(
        "command, outputs, message",
        [
            ("score", ["--run-meta", "-"], "--run-meta - is also --output"),
            ("benchmark", ["--scores-csv", "-"], "--scores-csv - is also --output"),
            (
                "benchmark",
                ["-o", "report", "--run-meta", "-", "--scores-csv", "-"],
                "--scores-csv - is also --run-meta",
            ),
        ],
    )
    def test_two_outputs_on_stdout_exit_2(
        self, runner, tmp_path, monkeypatch, command, outputs, message
    ):
        args, _ = self.files(tmp_path, command)
        monkeypatch.chdir(tmp_path)
        before = self.snapshot(tmp_path)
        result = runner.invoke(main, [*args, *outputs])
        assert result.exit_code == 2, result.stderr
        assert result.stdout == ""
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": "InputError",
            "message": f"{message}; it would be truncated",
        }
        assert self.snapshot(tmp_path) == before

    @pytest.mark.parametrize(
        "command, flag, path",
        [
            ("benchmark", "--output", "nodir/out.json"),
            ("score", "--run-meta", "nodir/meta.json"),
            ("benchmark", "--scores-csv", "afile/scores.csv"),
            ("benchmark", "--output", "afile/x/out.json"),
            ("benchmark", "--cache-dir", "afile"),
            ("benchmark", "--cache-dir", "afile/sub"),
            ("benchmark", "--output", "."),
            ("benchmark", "--scores-csv", "."),
            ("benchmark", "--run-meta", "."),
            ("score", "--run-meta", "."),
            ("extract-claims", "--output", "."),
        ],
    )
    def test_unopenable_output_fails_before_scoring(
        self, runner, tmp_path, monkeypatch, command, flag, path
    ):
        # Each fails with the error its open (or the cache's makedirs) would
        # raise, but before a record is scored or a claim extracted. "." is
        # the working directory, so an output there is a directory.
        args, _ = self.files(tmp_path, command)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        with pytest.raises(OSError) as late:
            if flag == "--cache-dir":
                os.makedirs(path, exist_ok=True)
            else:
                open(path, "w")
        calls = []

        def counted(real):
            def call(*a, **kw):
                calls.append(a)
                return real(*a, **kw)

            return call

        # Reports come from ``score_corpus``, extracted claims from ``ordered_map``.
        for name in ("score_corpus", "ordered_map"):
            monkeypatch.setattr(pipeline, name, counted(getattr(pipeline, name)))
        before = self.snapshot(tmp_path)
        if command == "benchmark" and flag != "--cache-dir":
            args += ["--cache-dir", "cdir"]
        if flag != "--output":
            args += ["--output", "out"]
        result = runner.invoke(main, [*args, flag, path])
        assert result.exit_code == 2, result.stderr
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": type(late.value).__name__,
            "message": str(late.value),
        }
        assert calls == []
        assert self.snapshot(tmp_path) == before


class TestReadmeRunMetaKeys:
    def test_table_lists_exactly_the_keys_each_command_writes(self, runner, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("Run-meta keys:", 1)[1].split("\n\n", 2)[1]
        rows = [line.split("|")[1:4] for line in table.splitlines() if line.startswith("| `")]
        listed = {
            command: sorted(key.strip(" `") for key, *marks in rows if marks[column].strip() == "yes")
            for column, command in enumerate(("score", "benchmark"))
        }
        docs, sums, _ = corpus(tmp_path)
        runs = {"score": ["score", docs, sums], "benchmark": ["benchmark", benchmark_file(tmp_path)]}
        for command, args in runs.items():
            meta = tmp_path / f"{command}.meta.json"
            result = runner.invoke(main, args + ["--run-meta", str(meta)])
            assert result.exit_code == 0, result.stderr
            assert sorted(json.loads(meta.read_text())) == listed[command], command
        assert len(rows) == len({key for key, *_ in rows})


class TestReadmeBlockCut:
    def test_nli_batch_size_row_states_the_pairs_per_slot(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        (row,) = [line for line in readme.splitlines() if line.startswith("| `nli_batch_size` |")]
        per_slot = pipeline.BLOCK_PAIRS_PER_SLOT
        assert f"`nli_batch_size` × {per_slot} pairs" in row
        assert f"({RunConfig().nli_batch_size * per_slot:,} at the default)" in row
        # Every other place that names the cut names the same value.
        stated = re.findall(r"`nli_batch_size` × (\d+) pairs", " ".join(readme.split()))
        assert len(stated) > 1
        assert set(stated) == {str(per_slot)}


class TestTopLevel:
    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for command in ("score", "extract-claims", "eval-claims", "benchmark"):
            assert command in result.stdout

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.stdout

    def test_other_toolkit_error_exits_1_with_json(self, runner, tmp_path, monkeypatch):
        def fail(path):
            raise SumfactError("boom")

        monkeypatch.setattr(formats, "index_documents", fail)
        docs, sums, _ = corpus(tmp_path)
        result = runner.invoke(main, ["score", docs, sums])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(result.stderr.strip().splitlines()[-1]) == {
            "error": "SumfactError",
            "message": "boom",
        }


HTTP_STACK = ("requests", "urllib3", "charset_normalizer")

# Runs in a fresh interpreter: import the CLI, run the statement given as
# argv[1], then print which modules of the HTTP stack the package loaded.
_IMPORT_PROBE = f"""
import json
import sys
before = set(sys.modules)
from sumfact.cli import main
exec(sys.argv[1])
print(json.dumps([m for m in {HTTP_STACK!r} if m in sys.modules and m not in before]))
"""


def loaded_http_modules(statement, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, statement, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestHttpStackLoadsOnDemand:
    def test_mock_score_run_never_loads_it(self, tmp_path):
        docs, sums, claims = corpus(tmp_path)
        statement = (
            "main(['score', sys.argv[2], sys.argv[3], '--claim-backend', 'cache:' + sys.argv[4],"
            " '-o', sys.argv[5]], standalone_mode=False)"
        )
        out = tmp_path / "out.jsonl"
        assert loaded_http_modules(statement, docs, sums, claims, str(out)) == []
        assert out.read_text(encoding="utf-8") == GOLDEN_LINE + "\n"

    @pytest.mark.parametrize(
        "statement",
        [
            "from sumfact.nli import RemoteEntailmentBackend; RemoteEntailmentBackend('http://x')",
            "from sumfact.claims import RemoteLlmExtractor; RemoteLlmExtractor('http://x')",
        ],
        ids=["nli", "claims"],
    )
    def test_remote_backends_load_it(self, statement):
        assert "requests" in loaded_http_modules(statement)


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# One dataset of eight records over three documents with names and pronouns,
# so heuristic coref yields clusters and the coref stage can win. The claim
# cache has one empty entry (r3) and no entry for r4; both fall back to the
# summary sentences. r2 and r3 repeat a summary sentence, which nli_sent keeps.
_GOLDEN_DOCS = {
    "d1": "Billy Vunipola has been ruled out of the match. He injured his knee in "
    "training. The coach said Vunipola would return in March. England play Wales "
    "on Saturday.",
    "d2": "Maria Lopez won the city marathon on Sunday. She finished in two hours and "
    "ten minutes. Lopez thanked the crowd after the race. The runner-up was Anna Berg.",
    "d3": "The council approved the new bridge plan. Work will start in May. Mayor Tom "
    "Reed said the bridge would cut traffic. Reed expects the project to finish next year.",
}
_GOLDEN_RECORDS = [
    ("r1", "d1", "validation", "factual",
     "He was ruled out of the match. He injured his knee."),
    ("r2", "d1", "validation", "not_factual",
     "Vunipola will not return in March. Vunipola will not return in March."),
    ("r3", "d2", "validation", "factual", "She won the marathon. She won the marathon."),
    ("r4", "d2", "validation", "not_factual", "Anna Berg won the marathon in record time."),
    ("r5", "d3", "test", "factual",
     "Reed said the bridge would cut traffic. The project will finish next year."),
    ("r6", "d3", "test", "not_factual", "The council rejected the bridge plan."),
    ("r7", "d1", "test", "factual", "England play Wales on Saturday."),
    ("r8", "d2", "test", "not_factual", "She finished in three hours."),
]
_GOLDEN_CLAIMS = {
    "r1:s": ["He was ruled out of the match.", "He injured his knee in training."],
    "r2:s": ["Vunipola will not return in March."],
    "r3:s": [],
    "r5:s": ["Reed said the bridge would cut traffic.", "The project will finish next year."],
    "r6:s": ["The council did not approve the bridge plan."],
    "r7:s": ["England play Wales on Saturday."],
    "r8:s": ["She finished in three hours."],
}
# nli_sent scores summary sentences, never claims, so it counts no fallback.
_GOLDEN_FALLBACKS = {"full": 2, "nli_sent": 0, "nli_claim": 2, "nli_coref": 2}
# Backend pairs per stage: the ablations stop before the coarser stages.
_GOLDEN_BACKEND_CALLS = {
    "full": {"sentence": 40, "coref": 9, "window": 18, "document": 6},
    "nli_sent": {"sentence": 40, "coref": 0, "window": 0, "document": 0},
    "nli_claim": {"sentence": 40, "coref": 0, "window": 0, "document": 0},
    "nli_coref": {"sentence": 40, "coref": 9, "window": 0, "document": 0},
}


_GOLDEN_MODES = ["full", "nli_sent", "nli_claim", "nli_coref"]


def golden_records(tmp_path):
    """The golden records and claim cache files: ``(records, claims)``."""
    rows = [
        json.dumps(
            {
                "record_id": rid,
                "document": {"id": doc_id, "text": _GOLDEN_DOCS[doc_id]},
                "summary": {"id": f"{rid}:s", "text": text},
                "gold_label": gold,
                "dataset": "news",
                "split": split,
            }
        )
        for rid, doc_id, split, gold, text in _GOLDEN_RECORDS
    ]
    records = write(tmp_path, "records.jsonl", "\n".join(rows) + "\n")
    return records, write(tmp_path, "claims.json", json.dumps(_GOLDEN_CLAIMS))


class TestAblationGoldens:
    # The same goldens hold with scoring and claim resolution on three workers.
    @pytest.mark.parametrize(
        "mode, workers",
        [pytest.param(mode, "1", id=mode) for mode in _GOLDEN_MODES]
        + [pytest.param(mode, "3", id=f"{mode}-workers3") for mode in _GOLDEN_MODES],
    )
    def test_benchmark_mode_matches_golden(self, runner, tmp_path, mode, workers):
        records, claims = golden_records(tmp_path)
        csv_path = tmp_path / "scores.csv"
        meta_path = tmp_path / "meta.json"
        result = runner.invoke(
            main,
            [
                "benchmark", records, "--mode", mode,
                "--coref-backend", "heuristic", "--claim-backend", f"cache:{claims}",
                "--T", "0.9", "--j", "2", "--workers", workers,
                "--scores-csv", str(csv_path), "--run-meta", str(meta_path),
            ],
        )
        assert result.exit_code == 0, result.stderr
        assert result.stdout_bytes == (GOLDEN_DIR / f"benchmark_{mode}.json").read_bytes()
        assert csv_path.read_bytes() == (GOLDEN_DIR / f"benchmark_{mode}.csv").read_bytes()
        meta = json.loads(meta_path.read_text())
        assert meta["claims_fallback_count"] == _GOLDEN_FALLBACKS[mode]
        assert meta["backend_calls"] == _GOLDEN_BACKEND_CALLS[mode]
        # r3's claim cache entry is empty, but nli_sent never consults the cache.
        assert ("extractor returned no claims" in result.stderr) == (mode != "nli_sent")

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_benchmark_run_meta_matches_golden(self, runner, tmp_path, workers):
        records, claims = golden_records(tmp_path)
        meta_path = tmp_path / "meta.json"
        result = runner.invoke(
            main,
            [
                "benchmark", records,
                "--coref-backend", "heuristic", "--claim-backend", f"cache:{claims}",
                "--T", "0.9", "--j", "2", "--workers", workers,
                "--cache-dir", str(tmp_path / "cache"), "--run-meta", str(meta_path),
            ],
        )
        assert result.exit_code == 0, result.stderr
        # The cache file is named by a digest that covers the claim file's path.
        cache = json.loads(meta_path.read_text())["cache"]
        assert Path(cache).parent == tmp_path / "cache" and Path(cache).is_file()
        meta = meta_path.read_text().replace(cache, "<tmp>/cache/scores-<fingerprint>.json")
        golden = (GOLDEN_DIR / "benchmark_run_meta.json").read_text()
        assert meta.replace(str(tmp_path), "<tmp>") == golden
