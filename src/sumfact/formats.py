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
                    objects or raw strings. Read in two passes: the first
                    checks every record and keeps a light row of each, the
                    second reads the full records to score at their offsets.

Report JSON renders every float with exactly 6 decimal places via a custom
emitter, making outputs byte-stable across runs and platforms.
"""

from __future__ import annotations

import csv
import json
import sys
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from .benchmark import BenchmarkRecord, BenchmarkReport, BenchmarkRow, RecordScore
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
from .scoring import AlignedSpan, ClaimVerdict, FactualityReport

__all__ = [
    "read_jsonl",
    "load_documents",
    "load_summaries",
    "load_claim_cache",
    "write_claim_cache",
    "load_claim_sets",
    "load_benchmark_records",
    "read_benchmark_records",
    "dumps_fixed",
    "report_to_dict",
    "render_report",
    "benchmark_report_to_dict",
    "write_scores_csv",
]


def _open(path: str) -> IO[bytes]:
    try:
        return open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc


def _lines(fh: IO[bytes]) -> Iterator[tuple[int, bytes]]:
    """(byte offset, line) for each line from the position of ``fh`` on.

    Lines split and end as in text mode: at "\\n", "\\r\\n" or a lone "\\r",
    each ending read as "\\n".
    """
    offset = fh.tell()
    for chunk in fh:
        if b"\r" not in chunk:
            yield offset, chunk
            offset += len(chunk)
            continue
        for line in chunk.splitlines(keepends=True):
            body = line.rstrip(b"\r\n")
            yield offset, body + b"\n" if len(body) < len(line) else body
            offset += len(line)


def _parse_line(path: str, line_number: int, line: bytes) -> dict | None:
    """The JSON object on one line; ``None`` for a blank line."""
    try:
        text = line.decode("utf-8")
        if not text.strip():
            return None
        record = json.loads(text)
    except ValueError as exc:
        raise InputError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise InputError(f"{path}:{line_number}: expected a JSON object")
    return record


def _read_jsonl(path: str) -> Iterator[tuple[int, int, dict]]:
    """Yield (line_number, byte offset, record) for every non-blank line."""
    with _open(path) as fh:
        for line_number, (offset, line) in enumerate(_lines(fh), start=1):
            record = _parse_line(path, line_number, line)
            if record is not None:
                yield line_number, offset, record


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, record) for every non-blank line."""
    for line_number, _, record in _read_jsonl(path):
        yield line_number, record


def _require_str(record: Mapping, key: str, where: str) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value:
        raise InputError(f"{where}: missing or empty string field {key!r}")
    return value


def _sentences_from_spans(text: str, spans: object, where: str) -> tuple[Sentence, ...]:
    if not isinstance(spans, list) or not spans:
        raise InputError(f"{where}: 'sentences' must be a non-empty array")
    out = []
    for i, span in enumerate(spans):
        if not isinstance(span, dict) or "start" not in span or "end" not in span:
            raise InputError(f"{where}: sentence {i} needs 'start' and 'end'")
        try:
            start, end = int(span["start"]), int(span["end"])
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: sentence {i} has non-integer offsets") from exc
        if not (0 <= start < end <= len(text)):
            raise InputError(f"{where}: sentence {i} span [{start}, {end}) out of range")
        out.append(Sentence(i, start, end, text[start:end]))
    return tuple(out)


def _clusters_from_record(
    sentences: Sequence[Sentence], raw: object, where: str
) -> tuple[CorefCluster, ...]:
    if not isinstance(raw, list):
        raise InputError(f"{where}: 'coref_clusters' must be an array of clusters")
    clusters = []
    for ci, cluster in enumerate(raw):
        if not isinstance(cluster, list):
            raise InputError(f"{where}: cluster {ci} must be an array of mentions")
        mentions = []
        for mi, mention in enumerate(cluster):
            if not isinstance(mention, dict):
                raise InputError(f"{where}: cluster {ci} mention {mi} must be an object")
            try:
                si = int(mention["sentence_index"])
                start = int(mention["start"])
                end = int(mention["end"])
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(
                    f"{where}: cluster {ci} mention {mi} needs integer "
                    f"'sentence_index', 'start', 'end'"
                ) from exc
            if not (0 <= si < len(sentences)):
                raise InputError(
                    f"{where}: cluster {ci} mention {mi} sentence_index {si} out of range"
                )
            sentence = sentences[si]
            if not (0 <= start < end <= len(sentence.text)):
                raise InputError(
                    f"{where}: cluster {ci} mention {mi} span [{start}, {end}) "
                    f"outside sentence {si}"
                )
            mentions.append(Mention(si, start, end, sentence.text[start:end]))
        if len(mentions) >= 2:  # singletons carry no substitution value
            clusters.append(CorefCluster(tuple(mentions)))
    return tuple(clusters)


# How a text without precomputed sentence spans is cut into sentences.
Splitter = Callable[[str], list[Sentence]]


def _document_from_record(record: Mapping, where: str, split: Splitter = segment) -> Document:
    doc_id = _require_str(record, "id", where)
    text = _require_str(record, "text", where)
    try:
        if "sentences" in record:
            sentences = _sentences_from_spans(text, record["sentences"], where)
        else:
            sentences = tuple(split(text))
        clusters: tuple[CorefCluster, ...] = ()
        if "coref_clusters" in record:
            clusters = _clusters_from_record(sentences, record["coref_clusters"], where)
        return Document(doc_id, text, sentences, clusters)
    except InputError:
        raise
    except (ValueError, SumfactError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def load_documents(path: str) -> list[Document]:
    documents = []
    seen: set[str] = set()
    for line_number, record in read_jsonl(path):
        where = f"{path}:{line_number}"
        document = _document_from_record(record, where)
        if document.id in seen:
            raise InputError(f"{where}: duplicate document id '{document.id}'")
        seen.add(document.id)
        documents.append(document)
    return documents


def load_summaries(path: str) -> list[Summary]:
    summaries = []
    seen: set[str] = set()
    for line_number, record in read_jsonl(path):
        where = f"{path}:{line_number}"
        summary_id = _require_str(record, "id", where)
        document_id = _require_str(record, "document_id", where)
        text = _require_str(record, "text", where)
        if summary_id in seen:
            raise InputError(f"{where}: duplicate summary id '{summary_id}'")
        seen.add(summary_id)
        try:
            summaries.append(Summary.from_text(summary_id, document_id, text))
        except (ValueError, SumfactError) as exc:
            raise InputError(f"{where}: {exc}") from exc
    return summaries


def load_claim_cache(path: str) -> dict[str, list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: claim cache must be a JSON object")
    out: dict[str, list[str]] = {}
    for summary_id, claims in data.items():
        if not isinstance(claims, list) or not all(isinstance(c, str) for c in claims):
            raise InputError(f"{path}: entry '{summary_id}' must be an array of strings")
        out[str(summary_id)] = list(claims)
    return out


def write_claim_cache(stream: IO[str], cache: Mapping[str, Sequence[str]]) -> None:
    payload = {k: list(v) for k, v in sorted(cache.items())}
    json.dump(payload, stream, ensure_ascii=True, indent=2)
    stream.write("\n")


def load_claim_sets(path: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line_number, record in read_jsonl(path):
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


def _gold_label(value: object, where: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str) and value.lower() in _GOLD_VALUES:
        return _GOLD_VALUES[value.lower()]
    raise InputError(f"{where}: gold_label must be factual/not_factual, got {value!r}")


def _benchmark_record(record: Mapping, where: str, split: Splitter = segment) -> BenchmarkRecord:
    record_id = _require_str(record, "record_id", where)
    raw_doc = record.get("document")
    if isinstance(raw_doc, str):
        raw_doc = {"id": f"{record_id}:doc", "text": raw_doc}
    if not isinstance(raw_doc, dict):
        raise InputError(f"{where}: 'document' must be an object or a string")
    # Clusters are checked against the sentences they point into.
    document = _document_from_record(
        raw_doc, where, segment if "coref_clusters" in raw_doc else split
    )
    raw_summary = record.get("summary")
    if isinstance(raw_summary, str):
        raw_summary = {"text": raw_summary}
    if not isinstance(raw_summary, dict):
        raise InputError(f"{where}: 'summary' must be an object or a string")
    summary_id = raw_summary.get("id") or f"{record_id}:summary"
    try:
        text = _require_str(raw_summary, "text", where)
        summary = Summary(
            str(summary_id),
            str(raw_summary.get("document_id") or document.id),
            text,
            tuple(split(text)),
        )
    except (ValueError, SumfactError) as exc:
        raise InputError(f"{where}: {exc}") from exc
    return BenchmarkRecord(
        record_id=record_id,
        document=document,
        summary=summary,
        gold_label=_gold_label(record.get("gold_label"), where),
        system=str(record.get("system", "unknown")),
        dataset=str(record.get("dataset", "default")),
        split=str(record.get("split", "")),
    )


def load_benchmark_records(path: str) -> list[BenchmarkRow]:
    """Check every record of a benchmark file, in line order; a row of each.

    Every check that building the full record makes runs here, with the
    same message, but texts are not segmented: segmenting fails only on
    blank text, which is checked instead. Rows hold the labels and each
    line's byte offset, for :func:`read_benchmark_records`.
    """
    rows = []
    for line_number, offset, record in _read_jsonl(path):
        checked = _benchmark_record(record, f"{path}:{line_number}", whole_text)
        rows.append(
            BenchmarkRow(
                checked.record_id,
                checked.gold_label,
                sys.intern(checked.system),
                sys.intern(checked.dataset),
                sys.intern(checked.split),
                offset,
            )
        )
    return rows


def read_benchmark_records(path: str, rows: Iterable[BenchmarkRow]) -> Iterator[BenchmarkRecord]:
    """The full record of each row, read again at the row's offset, lazily.

    The file must not change between the two passes: a line that no longer
    holds a valid record with the row's id raises :class:`InputError`.
    """
    with _open(path) as fh:
        for row in rows:
            fh.seek(row.offset)
            _, line = next(_lines(fh), (0, b""))
            try:
                record = _parse_line(path, 0, line)
                full = None if record is None else _benchmark_record(record, path)
            except SumfactError:
                full = None
            if full is None or full.record_id != row.record_id:
                raise InputError(
                    f"{path} changed during the run: record '{row.record_id}' "
                    f"is no longer at byte {row.offset}"
                )
            yield full


# -- fixed-decimal JSON rendering -------------------------------------------


def dumps_fixed(value: object) -> str:
    """Serialize to JSON with every float rendered as exactly 6 decimals.

    Insertion order of dict keys is preserved; strings go through the stock
    encoder (ensure_ascii), so output bytes are stable across platforms.
    """
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
            items.append(f"{json.dumps(key)}: {dumps_fixed(item)}")
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(dumps_fixed(item) for item in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _aligned_to_dict(aligned: AlignedSpan) -> dict:
    substitution = None
    if aligned.substitution is not None:
        substitution = {
            "replaced": aligned.substitution.replaced,
            "replacement": aligned.substitution.replacement,
        }
    return {
        "granularity": aligned.granularity,
        "sentence_start": aligned.sentence_start,
        "sentence_end": aligned.sentence_end,
        "premise_text": aligned.premise_text,
        "substitution": substitution,
    }


def _verdict_to_dict(verdict: ClaimVerdict) -> dict:
    sub_scores = {
        stage: verdict.sub_scores[stage]
        for stage in ("sentence", "coref", "window", "document")
        if stage in verdict.sub_scores
    }
    return {
        "claim": {
            "summary_id": verdict.claim.summary_id,
            "index": verdict.claim.index,
            "text": verdict.claim.text,
        },
        "score": verdict.score,
        "stage": verdict.stage,
        "aligned": _aligned_to_dict(verdict.aligned),
        "sub_scores": sub_scores,
    }


def report_to_dict(report: FactualityReport) -> dict:
    return {
        "summary_id": report.summary_id,
        "score": report.score,
        "verdicts": [_verdict_to_dict(v) for v in report.verdicts],
        "claims_fallback": report.claims_fallback,
        "params": {
            "j": report.params.window_size,
            "T": report.params.gate_threshold,
            "max_coref_variants": report.params.max_coref_variants,
        },
    }


def render_report(report: FactualityReport) -> str:
    """One JSONL line for one summary report."""
    return dumps_fixed(report_to_dict(report))


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


def write_scores_csv(stream: IO[str], rows: Iterable[RecordScore]) -> None:
    """Per-record audit CSV; scores use the same 6-decimal rendering."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["record_id", "dataset", "split", "system", "gold_label", "score", "prediction"]
    )
    for row in rows:
        writer.writerow(
            [
                row.record_id,
                row.dataset,
                row.split,
                row.system,
                "factual" if row.gold_label else "not_factual",
                f"{row.score:.6f}",
                "factual" if row.prediction else "not_factual",
            ]
        )
