"""Per-layer spans and counts for the traced run.

The recorder wraps functions of the ``sumfact`` modules by attribute
replacement, from outside the program: nothing under ``src/`` knows it is
traced. Each call becomes a span (name, start, end, parent) kept in flat
arrays in memory and written out when the run ends. Hooks take counts at the
same boundaries, from the arguments and results of the wrapped call.

A name the program no longer has is recorded as missing, and every metric
that needs it is absent (``None``) rather than zero here; the report names
absent metrics.

Layer names are the first part of a span name: ``formats``, ``documents``,
``coref``, ``claims``, ``pipeline``, ``scoring``, ``nli``, ``benchmark`` and
``cli``. The span names listed in ``TARGETS`` are the layer boundaries.
Hooks run in ``trace.hook`` spans, which belong to no layer.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter

_clock = time.perf_counter


class Recorder:
    """Spans in flat arrays plus counters, for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.scorers: list = []
        self.batch_size = 0

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` with a spanned call that runs ``hook(args, result)``."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(name)
            return

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                # A span of its own, outside every layer, so that the hook's
                # time is not counted as the enclosing layer's self time.
                idx = self.open("trace.hook")
                hook(self, args, result)
                self.close(idx)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    # -- results --------------------------------------------------------------

    def span_totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Inclusive seconds and calls per span name, and self seconds per layer.

        Self time is a span's duration minus the durations of its direct
        children; the run is single-threaded, so children never overlap.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_self: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            # Recursive calls of one name would count twice inclusively.
            if self.parent[i] < 0 or self.names[self.name[self.parent[i]]] != name:
                inclusive[name] = inclusive.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + duration - child[i]
        return inclusive, calls, layer_self

    def write_spans(self, path: str) -> None:
        """Write every span as columns: names table, name id, start, end, parent."""
        base = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start_us": [round((t - base) * 1e6) for t in self.start],
                    "end_us": [round((t - base) * 1e6) for t in self.end],
                    "parent": self.parent.tolist(),
                },
                fh,
                separators=(",", ":"),
            )


# -- hooks: counts taken at the wrapped boundary ------------------------------


def _sentences(rec, args, result):
    rec.counts["documents.sentences"] += len(result)


def _mentions(rec, args, result):
    rec.counts["coref.mentions"] += sum(len(c.mentions) for c in result)


def _resolved(rec, args, result):
    rec.counts["claims.resolved"] += 1
    rec.counts["claims.fallback"] += bool(result[1])


def _scorer(rec, args, result):
    rec.scorers.append(args[0])


def _summary(rec, args, result):
    gate = args[0].params.gate_threshold
    for verdict in result.verdicts:
        sub = verdict.sub_scores
        rec.counts["scoring.claims"] += 1
        rec.counts["scoring.gate_pass"] += sub["coref"] >= gate
        rec.counts["scoring.coref_win"] += sub["coref"] > sub["sentence"]


def _score_many(rec, args, result):
    rec.counts["scoring.pairs_requested"] += len(args[1])


def _infer(rec, args, result):
    """Batch shape as a real model would see it, measured without tracing measure."""
    backend, pairs = args[0], args[1]
    measure = _unwrapped(type(backend), "measure")
    sizes = [measure(backend, p) + measure(backend, h) for p, h in pairs]
    rec.batch_size = backend.batch_size
    rec.counts["nli.batches"] += 1
    rec.counts["nli.pairs"] += len(pairs)
    rec.counts["nli.real_units"] += sum(sizes)
    rec.counts["nli.padded_units"] += len(sizes) * max(sizes)


def _tune(rec, args, result):
    rec.counts["benchmark.tune_candidates"] += len(set(args[0])) + 1


def _unwrapped(cls, attr):
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            fn = klass.__dict__[attr]
            return getattr(fn, "__wrapped__", fn)
    raise AttributeError(attr)


# (module, class or None, attribute, span name, hook)
TARGETS = [
    ("formats", None, "load_documents", "formats.load", None),
    ("formats", None, "load_summaries", "formats.load", None),
    ("formats", None, "load_benchmark_records", "formats.load", None),
    ("formats", None, "render_report", "formats.render", None),
    ("formats", None, "benchmark_report_to_dict", "formats.render", None),
    ("formats", None, "write_scores_csv", "formats.render", None),
    ("documents", "RuleSegmenter", "segment", "documents.segment", _sentences),
    ("coref", "HeuristicCorefBackend", "clusters", "coref.clusters", _mentions),
    ("coref", "NoopCorefBackend", "clusters", "coref.clusters", _mentions),
    ("claims", "FileCacheExtractor", "extract", "claims.extract", None),
    ("pipeline", None, "build_units", "pipeline.build_units", None),
    ("pipeline", None, "score_corpus", "pipeline.score_corpus", None),
    ("pipeline", None, "evaluate_pair", "pipeline.evaluate_pair", None),
    ("pipeline", None, "attach_clusters", "pipeline.attach_clusters", None),
    ("pipeline", None, "resolve_claims", "pipeline.resolve_claims", _resolved),
    ("scoring", "Scorer", "__init__", "scoring.init", _scorer),
    ("scoring", "Scorer", "score_summary", "scoring.score_summary", _summary),
    ("scoring", "Scorer", "score_claim", "scoring.score_claim", None),
    ("scoring", "Scorer", "score_sentences", "scoring.sentences", None),
    ("scoring", "Scorer", "score_coref", "scoring.coref", None),
    ("scoring", "Scorer", "_multi", "scoring.multi", None),
    ("scoring", "Scorer", "_window_stage", "scoring.window_stage", None),
    ("scoring", "Scorer", "_window_premises", "scoring.window_premises", None),
    ("scoring", "Scorer", "_score_many", "scoring.score_many", _score_many),
    ("nli", "EntailmentBackend", "entail_batch", "nli.entail_batch", None),
    ("nli", "EntailmentBackend", "measure", "nli.measure", None),
    ("nli", "MockEntailmentBackend", "_infer", "nli.infer", _infer),
    ("benchmark", None, "run_benchmark", "benchmark.run", None),
    ("benchmark", None, "_score_records", "benchmark.score_records", None),
    ("benchmark", None, "tune_threshold", "benchmark.tune", _tune),
    ("benchmark", None, "_bootstrap_std", "benchmark.bootstrap", None),
    ("benchmark", None, "balanced_accuracy", "benchmark.balanced_accuracy", None),
    ("benchmark", "ScoreCache", "__init__", "benchmark.cache_load", None),
    ("benchmark", "ScoreCache", "save", "benchmark.cache_save", None),
]


def install(rec: Recorder) -> None:
    """Wrap every target."""
    for module_name, class_name, attr, name, hook in TARGETS:
        try:
            module = importlib.import_module(f"sumfact.{module_name}")
        except ImportError:
            rec.missing.append(name)
            continue
        owner = getattr(module, class_name, None) if class_name else module
        if owner is None:
            rec.missing.append(name)
            continue
        rec.wrap(owner, attr, name, hook)


def model_seconds(counts, batch_ms: float, unit_us: float) -> float:
    """Latency model: a fixed cost per batch plus a cost per padded unit."""
    return counts["nli.batches"] * batch_ms / 1e3 + counts["nli.padded_units"] * unit_us / 1e6


LAYERS = ("cli", "formats", "documents", "coref", "claims", "pipeline", "scoring", "nli", "benchmark")


def _ratio(numerator, denominator):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def layer_metrics(rec: Recorder, batch_ms: float, unit_us: float) -> dict:
    """Per-layer metrics from one traced run; ``None`` marks a metric absent.

    A metric is absent when a name it is measured at no longer exists in the
    program, when it is a time of a span that never ran or a count in a layer
    that never ran, or when it is a ratio whose base is zero on this
    workload: the layer did no such work. Times are seconds; ``*_s`` of a
    span name is inclusive, and ``<layer>.self_s`` is the layer's self time.
    """
    inclusive, calls, layer_self = rec.span_totals()
    names = {t[3] for t in TARGETS}
    gone = {n for n in names if rec.missing.count(n) == sum(t[3] == n for t in TARGETS)}
    c = rec.counts

    def count(key, name):
        return c[key] if name.split(".", 1)[0] in layer_self and name not in gone else None

    out = {f"{layer}.self_s": layer_self.get(layer) for layer in LAYERS}
    for metric, name in (
        ("formats.load_s", "formats.load"),
        ("formats.render_s", "formats.render"),
        ("documents.segment_s", "documents.segment"),
        ("coref.clusters_s", "coref.clusters"),
        ("claims.extract_s", "claims.extract"),
        ("pipeline.build_units_s", "pipeline.build_units"),
        ("nli.infer_s", "nli.infer"),
        ("nli.measure_s", "nli.measure"),
        ("benchmark.tune_s", "benchmark.tune"),
        ("benchmark.bootstrap_s", "benchmark.bootstrap"),
        ("benchmark.cache_load_s", "benchmark.cache_load"),
        ("benchmark.cache_save_s", "benchmark.cache_save"),
    ):
        out[metric] = inclusive.get(name)
    for metric, name in (
        ("documents.sentences", "documents.segment"),
        ("coref.mentions", "coref.clusters"),
        ("nli.batches", "nli.infer"),
        ("nli.pairs", "nli.infer"),
        ("nli.padded_units", "nli.infer"),
        ("scoring.claims", "scoring.score_summary"),
        ("scoring.pairs_requested", "scoring.score_many"),
        ("benchmark.tune_candidates", "benchmark.tune"),
    ):
        out[metric] = count(metric, name)
    for name in ("nli.measure", "benchmark.balanced_accuracy"):
        c[name + "_calls"] = calls.get(name, 0)
        out[name + "_calls"] = count(name + "_calls", name)
    out["nli.model_s"] = None if out["nli.batches"] is None else model_seconds(c, batch_ms, unit_us)
    out["nli.batch_fill"] = _ratio(out["nli.pairs"], c["nli.batches"] * rec.batch_size)
    out["nli.padding_eff"] = _ratio(count("nli.real_units", "nli.infer"), c["nli.padded_units"])

    sent = None
    stage_pairs = {}
    if rec.scorers:
        stage_pairs = dict(rec.scorers[0].backend_calls)
        sent = sum(stage_pairs.values())
    for stage in ("sentence", "coref", "window", "document"):
        out[f"scoring.pairs.{stage}"] = stage_pairs.get(stage)
    requested = out["scoring.pairs_requested"]
    hits = None if sent is None or requested is None else requested - sent
    out["scoring.memo_hit_rate"] = _ratio(hits, requested)
    out["scoring.gate_pass_rate"] = _ratio(count("scoring.gate_pass", "scoring.score_summary"), c["scoring.claims"])
    out["scoring.coref_win_rate"] = _ratio(count("scoring.coref_win", "scoring.score_summary"), c["scoring.claims"])
    out["claims.fallback_share"] = _ratio(count("claims.fallback", "pipeline.resolve_claims"), c["claims.resolved"])
    return out
