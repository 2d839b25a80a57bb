"""File formats: JSONL corpora in, reports out.

Input formats
  documents.jsonl   {"id", "text"} with optional precomputed "sentences"
                    ([{"start","end"}] character spans) and "coref_clusters"
                    ([[{"sentence_index","start","end"}]] with sentence-local
                    offsets; singleton clusters are dropped).
  summaries.jsonl   {"id", "document_id", "text"}.
  claims cache      JSON object: summary_id -> [claim strings].
  claim sets        JSONL {"summary_id", "claims": [...]}.
  benchmark.jsonl   {"record_id","document","summary","gold_label","system",
                    "dataset","split"} with document/summary either inline
                    objects or raw strings.

Documents, summaries and benchmark records are read in two passes, so a run
holds the text of only the records it is scoring. The first pass checks
every line, in order, and keeps a light row of each: the record's id, the
byte offset of its line and the line's digest (:class:`Row`, or
:class:`BenchmarkRow` with the labels; both row types live here). The
second reads each record again at its offset when it is scored, checks
that the line did not change in between (:func:`_read_again`), and yields
(document, summary) pairs (:func:`read_corpus`,
:func:`read_benchmark_records`). These inputs must therefore be regular,
seekable files; claim sets, read once, need not.

Every JSON input is parsed and refused here, by one rule
(:func:`json_object`): each line of a JSONL file, and each file read whole
(:func:`load_json_object`), which are the claim cache, the run config of
:mod:`~sumfact.config` and the score cache of :mod:`~sumfact.benchmark`.
Text that is not JSON, or JSON that is not an object, is an
:class:`InputError` naming where it was read.

A summary's report is written as its JSONL line straight from the report's
fields, in one pass (:func:`render_report`); the benchmark and claim-metric
reports are dicts written by :func:`dumps_fixed`. Both write each value by
the same rules: a float with exactly 6 decimal places (``-0.0`` as
``0.000000``) and a string through the stock ASCII encoder, so outputs are
byte-stable across runs and platforms.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str  # json.dumps of a str
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .documents import (
    CorefCluster,
    Document,
    Mention,
    Sentence,
    Summary,
    segment,
    whole_text,
)
from .errors import InputError, SumfactError
from .scoring import STAGES, ClaimVerdict, FactualityReport

if TYPE_CHECKING:
    from .benchmark import BenchmarkReport

__all__ = [
    "json_object",
    "load_json_object",
    "Row",
    "BenchmarkRow",
    "index_documents",
    "index_summaries",
    "read_summaries",
    "read_corpus",
    "load_claim_cache",
    "write_claim_cache",
    "load_claim_sets",
    "load_benchmark_records",
    "read_benchmark_records",
    "dumps_fixed",
    "render_report",
    "benchmark_report_to_dict",
    "write_scores_csv",
]


def _open(path: str, twice: bool = True) -> IO[bytes]:
    """``path`` opened to read bytes; a file to be read ``twice`` must be seekable."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    if twice and not fh.seekable():
        fh.close()
        raise InputError(f"cannot read {path}: input must be a regular, seekable file")
    return fh


def _lines(fh: IO[bytes]) -> Iterator[tuple[int, bytes]]:
    """(byte offset, line) for each line from the position of ``fh`` on, the
    offset counted from that position.

    Lines split and end as in text mode: at "\\n", "\\r\\n" or a lone "\\r",
    each ending read as "\\n".
    """
    offset = 0
    for chunk in fh:
        if b"\r" not in chunk:
            yield offset, chunk
            offset += len(chunk)
            continue
        for line in chunk.splitlines(keepends=True):
            body = line.rstrip(b"\r\n")
            yield offset, body + b"\n" if len(body) < len(line) else body
            offset += len(line)


def json_object(text: str, where: str) -> dict:
    """The JSON object ``text`` holds; anything else is an :class:`InputError`
    that names ``where`` it was read."""
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise InputError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise InputError(f"{where}: expected a JSON object")
    return value


def load_json_object(path: str, where: str) -> dict:
    """The JSON object in the file at ``path``, read whole as UTF-8 text
    (:func:`json_object`); ``where`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot open {where}: {exc}") from exc
    except ValueError as exc:  # bytes that are not UTF-8
        raise InputError(f"{where}: invalid JSON: {exc}") from exc
    return json_object(text, where)


def _parse_line(path: str, line_number: int, line: bytes) -> dict | None:
    """The JSON object on one line (:func:`json_object`); ``None`` for a blank line."""
    where = f"{path}:{line_number}"
    try:
        text = line.decode("utf-8")
    except ValueError as exc:
        raise InputError(f"{where}: invalid JSON: {exc}") from exc
    return json_object(text, where) if text.strip() else None


def _read_jsonl(path: str, twice: bool = True) -> Iterator[tuple[int, int, bytes, dict]]:
    """Yield (line_number, byte offset, line, record) for every non-blank line."""
    with _open(path, twice) as fh:
        for line_number, (offset, line) in enumerate(_lines(fh), start=1):
            record = _parse_line(path, line_number, line)
            if record is not None:
                yield line_number, offset, line, record


def _line_digest(line: bytes) -> bytes:
    """The 16-byte BLAKE2b digest of a line, without its line ending."""
    return hashlib.blake2b(line.rstrip(b"\n"), digest_size=16).digest()


def _read_again(path: str, rows: Iterable, what: str, build: Callable, key: str = "id") -> Iterator:
    """What ``build(record, path)`` makes of each row's line, read again at its offset, lazily.

    This is the second pass of every two-pass reader: a row (:class:`Row`,
    :class:`BenchmarkRow`) holds the offset and digest of a line the first
    pass checked, ``key`` names the row's attribute that holds the record's
    id and ``what`` names the record, both for the message below. A row
    repeated back to back is read once.

    The digest is the one check: a line whose digest differs from the row's
    (the file changed between the two passes) raises :class:`InputError`.
    A line with the row's digest holds the bytes the first pass checked, so
    it is built as it is, and an error from building it is raised as itself.
    """
    with _open(path) as fh:
        last = full = None
        for row in rows:
            if row is not last:
                last = row
                fh.seek(row.offset)
                _, line = next(_lines(fh), (0, b""))
                if _line_digest(line) != row.digest:
                    raise InputError(
                        f"{path} changed during the run: {what} '{getattr(row, key)}' "
                        f"at byte {row.offset} is not the line first read there"
                    )
                full = build(_parse_line(path, 0, line), path)
            yield full


def _require_str(record: Mapping, key: str, where: str) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value:
        raise InputError(f"{where}: missing or empty string field {key!r}")
    return value


def _sentences_from_spans(text: str, spans: object) -> tuple[Sentence, ...]:
    if not isinstance(spans, list) or not spans:
        raise ValueError("'sentences' must be a non-empty array")
    out = []
    for i, span in enumerate(spans):
        if not isinstance(span, dict) or "start" not in span or "end" not in span:
            raise ValueError(f"sentence {i} needs 'start' and 'end'")
        start, end = span["start"], span["end"]
        # Offsets are JSON integers: a float, a string or a bool is not one.
        if not type(start) is type(end) is int:
            raise ValueError(f"sentence {i} has non-integer offsets")
        if not (0 <= start < end <= len(text)):
            raise ValueError(f"sentence {i} span [{start}, {end}) out of range")
        out.append(Sentence(i, start, end, text[start:end]))
    return tuple(out)


def _clusters_from_record(
    sentences: Sequence[Sentence], raw: object
) -> tuple[CorefCluster, ...]:
    if not isinstance(raw, list):
        raise ValueError("'coref_clusters' must be an array of clusters")
    clusters = []
    for ci, cluster in enumerate(raw):
        if not isinstance(cluster, list):
            raise ValueError(f"cluster {ci} must be an array of mentions")
        mentions = []
        for mi, mention in enumerate(cluster):
            if not isinstance(mention, dict):
                raise ValueError(f"cluster {ci} mention {mi} must be an object")
            si, start, end = (mention.get(k) for k in ("sentence_index", "start", "end"))
            if not type(si) is type(start) is type(end) is int:
                raise ValueError(
                    f"cluster {ci} mention {mi} needs integer "
                    f"'sentence_index', 'start', 'end'"
                )
            if not (0 <= si < len(sentences)):
                raise ValueError(
                    f"cluster {ci} mention {mi} sentence_index {si} out of range"
                )
            sentence = sentences[si]
            if not (0 <= start < end <= len(sentence.text)):
                raise ValueError(
                    f"cluster {ci} mention {mi} span [{start}, {end}) "
                    f"outside sentence {si}"
                )
            mentions.append(Mention(si, start, end, sentence.text[start:end]))
        if len(mentions) >= 2:  # singletons carry no substitution value
            clusters.append(CorefCluster(tuple(mentions)))
    return tuple(clusters)


# How a text without precomputed sentence spans is cut into sentences.
Splitter = Callable[[str], list[Sentence]]


@contextmanager
def _at(where: str) -> Iterator[None]:
    """Name ``where`` once in front of an error raised in the block, as an :class:`InputError`."""
    try:
        yield
    except (ValueError, SumfactError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def _document_from_record(record: Mapping, where: str, split: Splitter = segment) -> Document:
    doc_id = _require_str(record, "id", where)
    text = _require_str(record, "text", where)
    with _at(where):
        if "sentences" in record:
            sentences = _sentences_from_spans(text, record["sentences"])
        else:
            # Clusters are checked against the sentences they point into.
            sentences = tuple((segment if "coref_clusters" in record else split)(text))
        clusters: tuple[CorefCluster, ...] = ()
        if "coref_clusters" in record:
            clusters = _clusters_from_record(sentences, record["coref_clusters"])
        return Document(doc_id, text, sentences, clusters)


def _summary_from_record(record: Mapping, where: str, split=segment, seen=()) -> Summary:
    summary_id = _require_str(record, "id", where)
    document_id = _require_str(record, "document_id", where)
    text = _require_str(record, "text", where)
    if summary_id in seen:
        raise InputError(f"{where}: duplicate summary id '{summary_id}'")
    with _at(where):
        return Summary(summary_id, document_id, text, tuple(split(text)))


class Row(NamedTuple):
    """A checked document or summary: its id, the byte offset of its line and
    the line's 16-byte digest, from which the second pass reads it again. A
    summary's row also names its document."""

    id: str
    offset: int
    digest: bytes
    document_id: str = ""


@dataclass(frozen=True, slots=True)
class BenchmarkRow:
    """A checked record's labels, and the byte offset of its line in the
    records file, from which its document and summary are read again to be scored.

    ``digest`` is the 16-byte BLAKE2b digest of that line (without its line
    ending); the score cache stores it with the record's score.
    """

    record_id: str
    gold_label: bool
    system: str
    dataset: str
    split: str
    offset: int
    digest: bytes


def index_documents(path: str) -> dict[str, Row]:
    """Check every document of a documents file, in line order; its row by id.

    Every check that building the document makes runs here, with the same
    message, but texts are not segmented (as in :func:`load_benchmark_records`),
    except a document's with coref clusters, which are checked against its
    sentences.
    """
    rows: dict[str, Row] = {}
    for line_number, offset, line, record in _read_jsonl(path):
        where = f"{path}:{line_number}"
        doc_id = _document_from_record(record, where, whole_text).id
        if doc_id in rows:
            raise InputError(f"{where}: duplicate document id '{doc_id}'")
        rows[doc_id] = Row(doc_id, offset, _line_digest(line))
    return rows


def index_summaries(path: str) -> dict[str, Row]:
    """Check every summary of a summaries file, in line order; its row by id, in that order.

    A duplicate id is reported before a blank text; texts are not segmented.
    """
    rows: dict[str, Row] = {}
    for line_number, offset, line, record in _read_jsonl(path):
        summary = _summary_from_record(record, f"{path}:{line_number}", whole_text, rows)
        rows[summary.id] = Row(summary.id, offset, _line_digest(line), summary.document_id)
    return rows


def read_summaries(path: str, rows: Iterable[Row]) -> Iterator[Summary]:
    """The summary of each row, read again at the row's offset, lazily (:func:`_read_again`)."""
    return _read_again(path, rows, "summary", _summary_from_record)


def read_corpus(
    documents: str, document_rows: Mapping[str, Row], summaries: str, summary_rows: Mapping[str, Row]
) -> Iterator[tuple[Document, Summary]]:
    """Each summary, in order, with its document, both read again lazily (:func:`_read_again`).

    ``documents`` and ``summaries`` are the files' paths, and the rows are
    what :func:`index_documents` and :func:`index_summaries` made of them.
    Every summary's document must have a row; that is checked when this is
    called, before any line is read again. A document is read again only
    when a summary names another one than the summary before it.
    """
    for row in summary_rows.values():
        if row.document_id not in document_rows:
            raise InputError(f"summary '{row.id}' references unknown document '{row.document_id}'")
    rows = (document_rows[row.document_id] for row in summary_rows.values())
    docs = _read_again(documents, rows, "document", _document_from_record)
    return zip(docs, read_summaries(summaries, summary_rows.values()))


def load_claim_cache(path: str) -> dict[str, list[str]]:
    data = load_json_object(path, path)
    for summary_id, claims in data.items():
        if not isinstance(claims, list) or not all(isinstance(c, str) for c in claims):
            raise InputError(f"{path}: entry '{summary_id}' must be an array of strings")
    return data


def write_claim_cache(stream: IO[str], cache: dict[str, list[str]]) -> None:
    json.dump(cache, stream, ensure_ascii=True, indent=2, sort_keys=True)
    stream.write("\n")


def load_claim_sets(path: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line_number, _, _, record in _read_jsonl(path, twice=False):
        where = f"{path}:{line_number}"
        summary_id = _require_str(record, "summary_id", where)
        claims = record.get("claims")
        if not isinstance(claims, list) or not all(isinstance(c, str) for c in claims):
            raise InputError(f"{where}: 'claims' must be an array of strings")
        if summary_id in out:
            raise InputError(f"{where}: duplicate summary id '{summary_id}'")
        out[summary_id] = list(claims)
    return out


_GOLD_VALUES = {
    "factual": True,
    "not_factual": False,
    "1": True,
    "0": False,
    "true": True,
    "false": False,
}


def _gold_label(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str) and value.lower() in _GOLD_VALUES:
        return _GOLD_VALUES[value.lower()]
    raise ValueError(f"gold_label must be factual/not_factual, got {value!r}")


def _benchmark_record(
    record: Mapping, where: str, split: Splitter = segment
) -> tuple[tuple, tuple[Document, Summary]]:
    """A record's labels ``(record_id, gold_label, system, dataset, split)`` and its pair."""
    record_id = _require_str(record, "record_id", where)
    raw_doc = record.get("document")
    if isinstance(raw_doc, str):
        raw_doc = {"id": f"{record_id}:doc", "text": raw_doc}
    if not isinstance(raw_doc, dict):
        raise InputError(f"{where}: 'document' must be an object or a string")
    document = _document_from_record(raw_doc, where, split)
    raw_summary = record.get("summary")
    if isinstance(raw_summary, str):
        raw_summary = {"text": raw_summary}
    if not isinstance(raw_summary, dict):
        raise InputError(f"{where}: 'summary' must be an object or a string")
    raw_summary = {"id": f"{record_id}:summary", "document_id": document.id, **raw_summary}
    summary = _summary_from_record(raw_summary, where, split)
    with _at(where):
        gold_label = _gold_label(record.get("gold_label"))
        split_name = str(record.get("split", ""))
        if split_name not in ("validation", "test"):
            raise ValueError(
                f"record '{record_id}': split must be 'validation' or 'test', got {split_name!r}"
            )
        if summary.document_id != document.id:
            raise ValueError(
                f"record '{record_id}': summary points at document "
                f"'{summary.document_id}' but carries document '{document.id}'"
            )
    system, dataset = str(record.get("system", "unknown")), str(record.get("dataset", "default"))
    return (record_id, gold_label, system, dataset, split_name), (document, summary)


def load_benchmark_records(path: str) -> list[BenchmarkRow]:
    """Check every record of a benchmark file, in line order; a row of each.

    Every check that building the record's pair makes runs here, with the
    same message, but texts are not segmented: segmenting fails only on
    blank text, which is checked instead. Rows hold the labels and each
    line's byte offset, for :func:`read_benchmark_records`, and the digest of
    the line, for the score cache. A repeated record id is reported at its
    line, after that line's own checks.
    """
    rows = []
    ids: set[str] = set()
    for line_number, offset, line, record in _read_jsonl(path):
        where = f"{path}:{line_number}"
        labels, _ = _benchmark_record(record, where, whole_text)
        record_id, gold_label, *names = labels
        if record_id in ids:
            raise InputError(f"{where}: duplicate record id '{record_id}'")
        ids.add(record_id)
        digest = _line_digest(line)
        rows.append(BenchmarkRow(record_id, gold_label, *map(sys.intern, names), offset, digest))
    return rows


def read_benchmark_records(
    path: str, rows: Iterable[BenchmarkRow]
) -> Iterator[tuple[Document, Summary]]:
    """The (document, summary) pair of each row's record, read again at the row's
    offset, lazily (:func:`_read_again`)."""
    return (pair for _, pair in _read_again(path, rows, "record", _benchmark_record, "record_id"))


# -- fixed-decimal JSON rendering -------------------------------------------


def _fixed(value: float) -> str:
    """A float with exactly 6 decimals; ``-0.0`` prints as ``0.000000``."""
    return f"{value if value != 0 else 0.0:.6f}"


def _literal(value: bool | None) -> str:
    """``null``, ``true`` or ``false``."""
    return "null" if value is None else "true" if value else "false"


# An int as the stock encoder writes it.
_int = int.__repr__


def dumps_fixed(value: object) -> str:
    """Serialize to JSON with every float rendered as exactly 6 decimals.

    Insertion order of dict keys is preserved; strings go through the stock
    encoder (ensure_ascii), so output bytes are stable across platforms.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, float):
        return _fixed(value)
    if value is None or isinstance(value, bool):
        return _literal(value)
    if isinstance(value, int):
        return _int(value)
    # ``dict`` first: the check against the ``Mapping`` ABC is the slow one.
    if isinstance(value, (dict, Mapping)):
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{_encode_str(key)}: {dumps_fixed(item)}")
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(dumps_fixed, value)) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _verdict_json(verdict: ClaimVerdict) -> str:
    claim, aligned, scores = verdict.claim, verdict.aligned, verdict.sub_scores
    swap = aligned.substitution
    substitution = _literal(None) if swap is None else (
        f'{{"replaced": {_encode_str(swap.replaced)}, "replacement": {_encode_str(swap.replacement)}}}'
    )
    sub_scores = ", ".join(f"{_encode_str(s)}: {_fixed(scores[s])}" for s in STAGES if s in scores)
    return (
        f'{{"claim": {{"summary_id": {_encode_str(claim.summary_id)}, '
        f'"index": {_int(claim.index)}, "text": {_encode_str(claim.text)}}}, '
        f'"score": {_fixed(verdict.score)}, "stage": {_encode_str(verdict.stage)}, '
        f'"aligned": {{"granularity": {_encode_str(aligned.granularity)}, '
        f'"sentence_start": {_int(aligned.sentence_start)}, '
        f'"sentence_end": {_int(aligned.sentence_end)}, '
        f'"premise_text": {_encode_str(aligned.premise_text)}, '
        f'"substitution": {substitution}}}, '
        f'"sub_scores": {{{sub_scores}}}}}'
    )


def render_report(report: FactualityReport) -> str:
    """One JSONL line for one summary report, written from its fields in one
    pass, with :func:`dumps_fixed`'s rules for each value.

    Keys come in the order of the README's report schema; a verdict's
    sub-scores in stage order (:data:`~sumfact.scoring.STAGES`).
    """
    params = report.params
    return (
        f'{{"summary_id": {_encode_str(report.summary_id)}, "score": {_fixed(report.score)}, '
        f'"verdicts": [{", ".join(map(_verdict_json, report.verdicts))}], '
        f'"claims_fallback": {_literal(report.claims_fallback)}, '
        f'"params": {{"j": {_int(params.window_size)}, "T": {_fixed(params.gate_threshold)}, '
        f'"max_coref_variants": {_int(params.max_coref_variants)}}}}}'
    )


def benchmark_report_to_dict(report: BenchmarkReport, mode: str | None = None) -> dict:
    out: dict = {"protocol": report.protocol}
    if mode is not None:
        out["mode"] = mode
    out["average_balanced_accuracy"] = report.average_balanced_accuracy
    if report.pooled_threshold is not None:
        out["pooled_threshold"] = report.pooled_threshold
    out["datasets"] = {
        r.dataset: {
            "threshold": r.threshold,
            "balanced_accuracy": r.balanced_accuracy,
            "bootstrap_std": r.bootstrap_std,
            "confusion": r.confusion.as_dict(),
            "n_validation": r.n_validation,
            "n_test": r.n_test,
        }
        for r in report.datasets
    }
    return out


def write_scores_csv(stream: IO[str], report: BenchmarkReport) -> None:
    """Per-record audit CSV, in the order of the report's rows; scores use the
    same 6-decimal rendering, and a prediction binarizes the score at its
    dataset's threshold (:func:`~sumfact.benchmark.binarize`)."""
    thresholds = {r.dataset: r.threshold for r in report.datasets}
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["record_id", "dataset", "split", "system", "gold_label", "score", "prediction"]
    )
    for row, score in zip(report.rows, report.scores, strict=True):
        writer.writerow(
            [
                row.record_id,
                row.dataset,
                row.split,
                row.system,
                "factual" if row.gold_label else "not_factual",
                f"{score:.6f}",
                "factual" if score >= thresholds[row.dataset] else "not_factual",
            ]
        )
