"""JSONL readers, fixed-decimal JSON rendering, report and CSV output."""

import io
import json
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumfact import (
    Claim,
    InputError,
    MockEntailmentBackend,
    Scorer,
    ScoringParams,
)
from sumfact.benchmark import BenchmarkReport, Confusion, DatasetResult, run_benchmark
from sumfact.formats import (
    benchmark_report_to_dict,
    dumps_fixed,
    index_documents,
    index_summaries,
    load_benchmark_records,
    load_claim_cache,
    load_claim_sets,
    read_benchmark_records,
    read_corpus,
    read_summaries,
    render_report,
    write_claim_cache,
    write_scores_csv,
)
from sumfact.scoring import STAGES, AlignedSpan, ClaimVerdict, FactualityReport, Substitution

import oracles
from cases import benchmark_row, doc_from_sentences, score_block


def jsonl(tmp_path, name, *rows):
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def summary_line(summary_id, text="Alpha."):
    return json.dumps({"id": summary_id, "document_id": "d", "text": text})


class TestReadJsonl:
    """How every JSONL reader numbers and parses lines, seen through ``index_summaries``."""

    def test_line_numbers_and_blank_lines(self, tmp_path):
        a, b = summary_line("a"), summary_line("b")
        path = jsonl(tmp_path, "x.jsonl", a, "", b)
        # Both records are read and the blank line is skipped...
        rows = index_summaries(path)
        assert [(row.id, row.offset) for row in rows.values()] == [("a", 0), ("b", len(a) + 2)]
        assert [s.text for s in read_summaries(path, rows.values())] == ["Alpha.", "Alpha."]
        # ...but counted: the third line is line 3.
        path = jsonl(tmp_path, "x.jsonl", a, "", a)
        with pytest.raises(InputError, match=r"x\.jsonl:3: duplicate summary id 'a'"):
            index_summaries(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = jsonl(tmp_path, "x.jsonl", summary_line("a"), "{broken")
        with pytest.raises(InputError, match=r"x\.jsonl:2: invalid JSON"):
            index_summaries(path)

    def test_non_object_line(self, tmp_path):
        path = jsonl(tmp_path, "x.jsonl", "[1, 2]")
        with pytest.raises(InputError, match="expected a JSON object"):
            index_summaries(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot open"):
            index_summaries(str(tmp_path / "absent.jsonl"))


def documents_of(tmp_path, path):
    """Every document of a documents file, read in both passes: checked by
    ``index_documents``, then read again by ``read_corpus`` for one summary
    of each."""
    rows = index_documents(path)
    sums = jsonl(
        tmp_path,
        "sums.jsonl",
        *(json.dumps({"id": f"s-{d}", "document_id": d, "text": "Alpha."}) for d in rows),
    )
    return [document for document, _ in read_corpus(path, rows, sums, index_summaries(sums))]


def summaries_of(path):
    """Every summary of a summaries file, read in both passes."""
    return list(read_summaries(path, index_summaries(path).values()))


class TestLoadDocuments:
    def test_segmented_document(self, tmp_path):
        path = jsonl(tmp_path, "docs.jsonl", '{"id": "d1", "text": "Alpha beta. Gamma delta."}')
        (doc,) = documents_of(tmp_path, path)
        assert doc.id == "d1"
        assert [s.text for s in doc.sentences] == ["Alpha beta.", "Gamma delta."]

    def test_precomputed_spans(self, tmp_path):
        record = {
            "id": "d2",
            "text": "One two. Three.",
            "sentences": [{"start": 0, "end": 8}, {"start": 9, "end": 15}],
        }
        path = jsonl(tmp_path, "docs.jsonl", json.dumps(record))
        (doc,) = documents_of(tmp_path, path)
        assert [s.text for s in doc.sentences] == ["One two.", "Three."]

    def test_clusters_loaded_and_singletons_dropped(self, tmp_path):
        record = {
            "id": "d3",
            "text": "Mary spoke. She left.",
            "coref_clusters": [
                [
                    {"sentence_index": 0, "start": 0, "end": 4},
                    {"sentence_index": 1, "start": 0, "end": 3},
                ],
                [{"sentence_index": 0, "start": 5, "end": 10}],
            ],
        }
        path = jsonl(tmp_path, "docs.jsonl", json.dumps(record))
        (doc,) = documents_of(tmp_path, path)
        assert len(doc.coref_clusters) == 1
        assert [m.surface for m in doc.coref_clusters[0].mentions] == ["Mary", "She"]

    def test_span_out_of_range(self, tmp_path):
        record = {"id": "d", "text": "Tiny.", "sentences": [{"start": 0, "end": 99}]}
        path = jsonl(tmp_path, "docs.jsonl", json.dumps(record))
        with pytest.raises(InputError, match="out of range"):
            documents_of(tmp_path, path)

    def test_spans_leaving_gap_text(self, tmp_path):
        record = {
            "id": "d",
            "text": "One two. xx Three.",
            "sentences": [{"start": 0, "end": 8}, {"start": 12, "end": 18}],
        }
        path = jsonl(tmp_path, "docs.jsonl", json.dumps(record))
        with pytest.raises(InputError, match="between sentences"):
            documents_of(tmp_path, path)

    def test_missing_text_field(self, tmp_path):
        path = jsonl(tmp_path, "docs.jsonl", '{"id": "d"}')
        with pytest.raises(InputError, match="string field 'text'"):
            documents_of(tmp_path, path)

    def test_duplicate_ids(self, tmp_path):
        row = '{"id": "d", "text": "Alpha."}'
        path = jsonl(tmp_path, "docs.jsonl", row, row)
        with pytest.raises(InputError, match="duplicate document id 'd'"):
            documents_of(tmp_path, path)

    def test_bad_cluster_mention(self, tmp_path):
        record = {
            "id": "d",
            "text": "Mary spoke.",
            "coref_clusters": [[{"sentence_index": 5, "start": 0, "end": 4}] * 2],
        }
        path = jsonl(tmp_path, "docs.jsonl", json.dumps(record))
        with pytest.raises(InputError, match="sentence_index 5 out of range"):
            documents_of(tmp_path, path)


class TestLoadSummaries:
    def test_happy_path(self, tmp_path):
        path = jsonl(
            tmp_path,
            "sums.jsonl",
            '{"id": "s1", "document_id": "d1", "text": "First. Second."}',
        )
        (summary,) = summaries_of(path)
        assert summary.id == "s1"
        assert summary.document_id == "d1"
        assert [s.text for s in summary.sentences] == ["First.", "Second."]

    def test_missing_document_id(self, tmp_path):
        path = jsonl(tmp_path, "sums.jsonl", '{"id": "s1", "text": "First."}')
        with pytest.raises(InputError, match="string field 'document_id'"):
            summaries_of(path)

    def test_duplicate_ids(self, tmp_path):
        row = '{"id": "s1", "document_id": "d", "text": "First."}'
        path = jsonl(tmp_path, "sums.jsonl", row, row)
        with pytest.raises(InputError, match="duplicate summary id 's1'"):
            summaries_of(path)


class TestClaimCacheIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "claims.json")
        with open(path, "w", encoding="utf-8") as fh:
            write_claim_cache(fh, {"b": ["x"], "a": ["y", "z"]})
        assert load_claim_cache(path) == {"a": ["y", "z"], "b": ["x"]}

    def test_file_format_is_sorted_indented(self, tmp_path):
        path = tmp_path / "claims.json"
        with open(path, "w", encoding="utf-8") as fh:
            write_claim_cache(fh, {"b": ["x"], "a": ["y"]})
        expected = json.dumps({"a": ["y"], "b": ["x"]}, indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_write_to_stream(self):
        buffer = io.StringIO()
        write_claim_cache(buffer, {"s": ["c"]})
        assert json.loads(buffer.getvalue()) == {"s": ["c"]}
        assert buffer.getvalue().endswith("\n")

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "claims.json"
        path.write_text("[]")
        with pytest.raises(InputError, match="JSON object"):
            load_claim_cache(str(path))

    @pytest.mark.parametrize("content", ["[]", '"a claim"'])
    def test_not_an_object_is_refused_as_every_json_input(self, tmp_path, content):
        path = tmp_path / "claims.json"
        path.write_text(content)
        with pytest.raises(InputError) as refused:
            load_claim_cache(str(path))
        assert str(refused.value) == f"{path}: expected a JSON object"

    def test_entry_not_strings(self, tmp_path):
        path = tmp_path / "claims.json"
        path.write_text('{"s1": [1, 2]}')
        with pytest.raises(InputError, match="entry 's1'"):
            load_claim_cache(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "claims.json"
        path.write_text("{nope")
        with pytest.raises(InputError, match="invalid JSON"):
            load_claim_cache(str(path))


class TestLoadClaimSets:
    def test_happy_path(self, tmp_path):
        path = jsonl(
            tmp_path,
            "sets.jsonl",
            '{"summary_id": "s1", "claims": ["First claim.", "Second claim."]}',
            '{"summary_id": "s2", "claims": ["Third."]}',
        )
        assert load_claim_sets(path) == {
            "s1": ["First claim.", "Second claim."],
            "s2": ["Third."],
        }

    def test_claims_must_be_strings(self, tmp_path):
        path = jsonl(tmp_path, "sets.jsonl", '{"summary_id": "s1", "claims": [1]}')
        with pytest.raises(InputError, match="array of strings"):
            load_claim_sets(path)

    def test_duplicate_summary(self, tmp_path):
        row = '{"summary_id": "s1", "claims": ["x"]}'
        path = jsonl(tmp_path, "sets.jsonl", row, row)
        with pytest.raises(InputError, match="duplicate summary id 's1'"):
            load_claim_sets(path)


def read_both_passes(path):
    """Rows from the checking pass, and the (document, summary) pairs they point at."""
    rows = load_benchmark_records(path)
    return rows, list(read_benchmark_records(path, rows))


class TestLoadBenchmarkRecords:
    def test_string_forms_get_derived_ids(self, tmp_path):
        record = {
            "record_id": "r1",
            "document": "Alpha beta. Gamma.",
            "summary": "Alpha beta.",
            "gold_label": "factual",
            "dataset": "xsum",
            "split": "test",
        }
        path = jsonl(tmp_path, "bench.jsonl", json.dumps(record))
        (row,), [(document, summary)] = read_both_passes(path)
        assert document.id == "r1:doc"
        assert summary.id == "r1:summary"
        assert summary.document_id == "r1:doc"
        assert row.gold_label is True
        assert row.system == "unknown"

    def test_object_forms_keep_ids(self, tmp_path):
        record = {
            "record_id": "r2",
            "document": {"id": "doc-9", "text": "Alpha beta."},
            "summary": {"id": "sum-9", "document_id": "doc-9", "text": "Alpha."},
            "gold_label": 0,
            "system": "pegasus",
            "dataset": "cnndm",
            "split": "validation",
        }
        path = jsonl(tmp_path, "bench.jsonl", json.dumps(record))
        (row,), [(document, summary)] = read_both_passes(path)
        assert document.id == "doc-9"
        assert summary.id == "sum-9"
        assert row.gold_label is False
        assert row.system == "pegasus"

    @pytest.mark.parametrize(
        "raw,expected",
        [
            (True, True),
            (False, False),
            (1, True),
            (0, False),
            ('"factual"', True),
            ('"not_factual"', False),
            ('"TRUE"', True),
            ('"0"', False),
        ],
    )
    def test_gold_label_spellings(self, tmp_path, raw, expected):
        value = raw if isinstance(raw, str) else json.dumps(raw)
        record = (
            '{"record_id": "r", "document": "Alpha.", "summary": "Alpha.", '
            f'"gold_label": {value}, "split": "test"}}'
        )
        path = jsonl(tmp_path, "bench.jsonl", record)
        (loaded,) = load_benchmark_records(path)
        assert loaded.gold_label is expected

    def test_bad_gold_label(self, tmp_path):
        record = (
            '{"record_id": "r", "document": "Alpha.", "summary": "Alpha.", '
            '"gold_label": "maybe", "split": "test"}'
        )
        path = jsonl(tmp_path, "bench.jsonl", record)
        with pytest.raises(InputError, match="gold_label"):
            load_benchmark_records(path)

    def test_missing_split_rejected(self, tmp_path):
        record = (
            '{"record_id": "r", "document": "Alpha.", "summary": "Alpha.", '
            '"gold_label": true}'
        )
        path = jsonl(tmp_path, "bench.jsonl", record)
        with pytest.raises(InputError, match="split"):
            load_benchmark_records(path)


class _Str(str):
    pass


class _Float(float):
    pass


class _Int(int):
    pass


def _reference_dumps(value):
    """The rules of ``dumps_fixed``, with ``json.dumps`` for every string."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, float):
        return f"{value if value != 0 else 0.0:.6f}"
    if isinstance(value, int):
        return json.dumps(value)
    if isinstance(value, Mapping):
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{json.dumps(key)}: {_reference_dumps(item)}")
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_reference_dumps(item) for item in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _outcome(dump, value):
    try:
        return dump(value)
    except TypeError as err:
        return TypeError, str(err)


_KEYS = st.one_of(st.text(max_size=6), st.text(max_size=6).map(_Str))
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers().map(_Int),
        st.floats(),
        st.just(-0.0),
        st.floats().map(_Float),
        st.text(max_size=8),
        st.text(max_size=8).map(_Str),
        st.frozensets(st.integers(), max_size=2),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4).map(MappingProxyType),
        st.dictionaries(st.one_of(_KEYS, st.integers(), st.none()), children, max_size=3),
    ),
    max_leaves=20,
)


class TestDumpsFixed:
    def test_floats_get_six_decimals(self):
        assert dumps_fixed(0.5) == "0.500000"
        assert dumps_fixed(1 / 3) == "0.333333"
        assert dumps_fixed(-0.25) == "-0.250000"

    def test_negative_zero_normalized(self):
        assert dumps_fixed(-0.0) == "0.000000"

    def test_ints_bools_none(self):
        assert dumps_fixed(5) == "5"
        assert dumps_fixed(True) == "true"
        assert dumps_fixed(False) == "false"
        assert dumps_fixed(None) == "null"

    def test_strings_are_ascii_escaped(self):
        assert dumps_fixed("café") == '"caf\\u00e9"'

    def test_dict_keeps_insertion_order(self):
        assert dumps_fixed({"b": 1, "a": 0.5}) == '{"b": 1, "a": 0.500000}'

    def test_nested_containers(self):
        value = {"xs": [0.5, 1, "x"], "inner": {"ok": True}}
        assert dumps_fixed(value) == '{"xs": [0.500000, 1, "x"], "inner": {"ok": true}}'

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            dumps_fixed({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps_fixed({"x": {1, 2}})

    @settings(deadline=None)
    @given(_JSON_VALUES)
    @example({"a": [True, 1, -0.0, _Float(-0.0), _Str("é"), (None, _Int(3))]})
    @example({"a": {"b": [1.5, {2: "x"}]}})
    def test_matches_reference(self, value):
        assert _outcome(dumps_fixed, value) == _outcome(_reference_dumps, value)

    def test_output_is_valid_json(self):
        value = {"a": [0.1, -0.0, 3], "b": None, "c": {"d": "text"}}
        assert json.loads(dumps_fixed(value)) == {
            "a": [0.1, 0.0, 3],
            "b": None,
            "c": {"d": "text"},
        }


# Report texts: any characters, with quotes, backslashes, control characters
# and non-ASCII ones drawn often.
_REPORT_TEXTS = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7fé€😀’')), min_size=1, max_size=10
)
_SCORES = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 4e-7, 5e-7, -4e-7, -1e-300, -0.75]))


@st.composite
def _aligned_spans(draw):
    granularity = draw(st.sampled_from(["sentence", "coref_sentence", "window", "document"]))
    start = 0 if granularity == "document" else draw(st.integers(0, 10**6))
    end = start if "sentence" in granularity else start + draw(st.integers(0, 40))
    substitution = None
    if granularity == "coref_sentence" and draw(st.booleans()):
        substitution = Substitution(draw(_REPORT_TEXTS), draw(_REPORT_TEXTS))
    return AlignedSpan(granularity, start, end, draw(_REPORT_TEXTS), substitution)


_VERDICTS = st.builds(
    ClaimVerdict,
    st.builds(Claim, _REPORT_TEXTS, st.integers(0, 10**6), _REPORT_TEXTS.filter(str.strip)),
    _SCORES,
    st.sampled_from(["sentence", "coref", "multi_granularity"]),
    _aligned_spans(),
    # Every subset of the stages, keyed in any order.
    st.lists(st.sampled_from(STAGES), unique=True).flatmap(
        lambda stages: st.fixed_dictionaries({stage: _SCORES for stage in stages})
    ),
)
_REPORTS = st.builds(
    FactualityReport,
    _REPORT_TEXTS,
    _SCORES,
    st.lists(_VERDICTS, max_size=3).map(tuple),
    st.booleans(),
    st.builds(
        ScoringParams,
        window_size=st.integers(1, 10**6),
        gate_threshold=st.one_of(st.floats(-1.0, 1.0), st.just(-0.0)),
        max_coref_variants=st.integers(1, 10**6),
        monotone_gate=st.booleans(),
    ),
)


class TestRenderReport:
    def test_exact_line(self):
        scorer = Scorer(MockEntailmentBackend())
        doc = doc_from_sentences("d", ["alpha beta.", "gamma delta."])
        (report,) = score_block(scorer, [(doc, [Claim("s1", 0, "gamma delta.")], False)])
        expected = (
            '{"summary_id": "s1", "score": 1.000000, "verdicts": '
            '[{"claim": {"summary_id": "s1", "index": 0, "text": "gamma delta."}, '
            '"score": 1.000000, "stage": "coref", '
            '"aligned": {"granularity": "sentence", "sentence_start": 1, '
            '"sentence_end": 1, "premise_text": "gamma delta.", "substitution": null}, '
            '"sub_scores": {"sentence": 1.000000, "coref": 1.000000}}], '
            '"claims_fallback": false, '
            '"params": {"j": 5, "T": 0.800000, "max_coref_variants": 20}}'
        )
        assert render_report(report) == expected

    def test_substitution_serialized(self):
        scorer = Scorer(MockEntailmentBackend())
        doc = doc_from_sentences(
            "d",
            ["Billy Vunipola has been ruled out.", "The player will return soon."],
            [[(0, 0, 14), (1, 0, 10)]],
        )
        claims = [Claim("s1", 0, "The player was ruled out.")]
        (report,) = score_block(scorer, [(doc, claims, False)])
        payload = json.loads(render_report(report))
        aligned = payload["verdicts"][0]["aligned"]
        assert aligned["granularity"] == "coref_sentence"
        assert aligned["substitution"] == {
            "replaced": "Billy Vunipola",
            "replacement": "The player",
        }

    def test_sub_scores_serialized_in_stage_order(self):
        scorer = Scorer(MockEntailmentBackend(), ScoringParams(monotone_gate=False))
        doc = doc_from_sentences("d", ["alpha beta gamma.", "delta epsilon."])
        (report,) = score_block(scorer, [(doc, [Claim("s1", 0, "stray words.")], False)])
        keys = list(json.loads(render_report(report))["verdicts"][0]["sub_scores"])
        assert keys == ["sentence", "coref", "window", "document"]

    @settings(deadline=None)
    @given(_REPORTS)
    def test_matches_the_dict_form_byte_for_byte(self, report):
        assert render_report(report) == dumps_fixed(oracles.report_dict(report))


def sample_benchmark(protocol):
    scores = {"v1": 0.9, "v2": 0.1, "t1": 0.8, "t2": 0.2}
    records = [
        benchmark_row("v1", "A", "validation", True),
        benchmark_row("v2", "A", "validation", False),
        benchmark_row("t1", "A", "test", True),
        benchmark_row("t2", "A", "test", False),
    ]
    return run_benchmark(records, lambda pending: [scores[r.record_id] for r in pending], protocol)


class TestBenchmarkReportDict:
    def test_per_split_shape(self):
        payload = benchmark_report_to_dict(sample_benchmark("per_split"))
        assert list(payload) == ["protocol", "average_balanced_accuracy", "datasets"]
        dataset = payload["datasets"]["A"]
        assert dataset["balanced_accuracy"] == 1.0
        assert dataset["confusion"] == {"tp": 1, "fp": 0, "tn": 1, "fn": 0}
        assert dataset["n_validation"] == 2 and dataset["n_test"] == 2

    def test_single_threshold_exposes_pooled(self):
        payload = benchmark_report_to_dict(sample_benchmark("single_threshold"))
        assert "pooled_threshold" in payload
        assert payload["pooled_threshold"] == payload["datasets"]["A"]["threshold"]

    def test_mode_key_only_when_given(self):
        report = sample_benchmark("per_split")
        assert "mode" not in benchmark_report_to_dict(report)
        payload = benchmark_report_to_dict(report, mode="nli_sent")
        assert list(payload)[:2] == ["protocol", "mode"]
        assert payload["mode"] == "nli_sent"

    def test_renders_through_dumps_fixed(self):
        payload = benchmark_report_to_dict(sample_benchmark("per_split"))
        text = dumps_fixed(payload)
        assert '"tp": 1' in text  # confusion counts stay integers
        assert '"average_balanced_accuracy": 1.000000' in text


def render_scores_csv(report):
    buffer = io.StringIO()
    write_scores_csv(buffer, report)
    return buffer.getvalue()


class TestScoresCsv:
    # Dataset "cnndm" is tuned at 0.0, so a score at or above 0.0 reads factual.
    REPORT = BenchmarkReport(
        "per_split",
        (DatasetResult("cnndm", 0.0, 0.75, Confusion(1, 1, 1, 0), None, 0, 3),),
        0.75,
        None,
        [
            benchmark_row("r1", "cnndm", "test", True),
            benchmark_row("r2", "cnndm", "test", False),
            benchmark_row("r3", "cnndm", "test", False),
        ],
        [0.5, -0.25, 0.0],
    )

    def test_golden_output(self):
        expected = (
            "record_id,dataset,split,system,gold_label,score,prediction\n"
            "r1,cnndm,test,sys,factual,0.500000,factual\n"
            "r2,cnndm,test,sys,not_factual,-0.250000,not_factual\n"
            "r3,cnndm,test,sys,not_factual,0.000000,factual\n"
        )
        assert render_scores_csv(self.REPORT) == expected

    def test_write_matches_render(self, tmp_path):
        # A file opened the way the benchmark command opens it gets the same text.
        path = tmp_path / "scores.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_scores_csv(fh, self.REPORT)
        assert path.read_bytes().decode("utf-8") == render_scores_csv(self.REPORT)

    def test_benchmark_records_render(self):
        report = sample_benchmark("per_split")
        text = render_scores_csv(report)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + 4
        assert lines[1].startswith("v1,A,validation,sys,factual,0.900000,")
