"""Command-line interface.

Four batch commands: ``score`` (documents + summaries -> report JSONL),
``extract-claims`` (summaries -> claim cache JSON), ``eval-claims`` (system
vs human claim sets -> easiness report), and ``benchmark`` (labeled records
-> balanced-accuracy report). Exit codes: 0 success, 2 input error,
3 backend error, 4 degenerate labels.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import sys
from contextlib import contextmanager
from typing import Iterable, Iterator, TextIO

import click

from . import __version__, claim_metrics, formats, pipeline
from . import benchmark as bench
from .benchmark import PROTOCOLS, ScoreCache
from .claims import ClaimExtractor
from .config import MODE_ALIASES, MODES, load_run_config, scoring_params
from .coref import CorefBackend
from .errors import BackendError, DegenerateLabels, InputError, SumfactError
from .scoring import Scorer

_LOG_FORMAT = "%(message)s"


def _setup_logging(level: str) -> None:
    root = logging.getLogger("sumfact")
    root.handlers.clear()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(_LOG_FORMAT))
    root.addHandler(handler)
    root.setLevel(level.upper())


def _fail(error: Exception, code: int):
    click.echo(
        json.dumps({"error": type(error).__name__, "message": str(error)}), err=True
    )
    sys.exit(code)


def _same_path(a: str, b: str) -> bool:
    exist = os.path.exists(a) and os.path.exists(b)
    return os.path.samefile(a, b) if exist else os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(params: dict) -> None:
    """Refuse an output that names a file the command reads, or another output.

    The outputs are ``--output``, ``--run-meta`` and ``--scores-csv``
    (``-``, stdout, is never checked); what a command reads is its arguments
    and ``--config``. Opening an output truncates it, so this runs before
    the command reads anything.
    """
    command = click.get_current_context().command
    reads = [params[p.name] for p in command.params if isinstance(p, click.Argument)]
    taken = [(path, "one of the inputs") for path in [*reads, params.get("config_path")] if path]
    for flag in ("--output", "--run-meta", "--scores-csv"):
        path = params.get(flag[2:].replace("-", "_"))
        if path and path != "-":
            for other, what in taken:
                if _same_path(path, other):
                    raise InputError(f"{flag} {path} is {what}; it would be truncated")
            taken.append((path, f"also {flag}"))


def handle_errors(fn):
    """Run a command after :func:`_check_outputs`; map its errors to exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            _check_outputs(kwargs)
            return fn(*args, **kwargs)
        except DegenerateLabels as exc:
            _fail(exc, 4)
        except BackendError as exc:
            _fail(exc, 3)
        except InputError as exc:
            _fail(exc, 2)
        except OSError as exc:
            _fail(exc, 2)
        except SumfactError as exc:
            _fail(exc, 1)

    return wrapper


@contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """The stream to write to: stdout, never closed, for ``-``; else the file."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as stream:
        yield stream


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with _output(path) as stream:
        for line in lines:
            stream.write(line + "\n")


def _write_run_meta(
    path: str | None,
    scorer: Scorer,
    extractor: ClaimExtractor | None,
    coref_backend: CorefBackend,
    **command_keys,
) -> None:
    """Write the run's backends and the scorer's counts, with its command's own keys."""
    if path is None:
        return
    meta = {
        "nli_backend": scorer.backend.describe(),
        "claim_backend": extractor.describe() if extractor else "none",
        "coref_backend": coref_backend.describe(),
        "claims_fallback_count": scorer.claims_fallback,
        "backend_calls": scorer.backend_calls,
        "pairs_requested": scorer.pairs_requested,
        **command_keys,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


_CONFIG = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                       default=None, help="JSON config file; flags override it.")
_WORKERS = click.option("--workers", type=int, default=None,
                        help="Claim extractions, and backend batches, in flight at once.")
_LOG_LEVEL = click.option("--log-level", default=None,
                          help="error | warning | info | debug (debug emits JSON call logs).")

_SCORING_FLAGS = [
    _CONFIG,
    click.option("--j", "window_size", type=int, default=None,
                 help="Window length in sentences for windowed premises."),
    click.option("--T", "gate_threshold", type=float, default=None,
                 help="Score gate at/above which coarser stages are skipped."),
    click.option("--nli-backend", default=None,
                 help="mock | local:<checkpoint> | remote:<url>"),
    click.option("--claim-backend", default=None,
                 help="none | cache:<path> | remote:<url> | local:<model>"),
    click.option("--coref-backend", default=None, help="none | heuristic"),
    click.option("--monotone-gate/--no-monotone-gate", default=None,
                 help="Below the gate, keep the better of coref and multi scores."),
    _WORKERS,
    _LOG_LEVEL,
]


def _apply(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Factual consistency scoring for summaries."""


@main.command()
@click.argument("documents", type=click.Path(exists=True, dir_okay=False))
@click.argument("summaries", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", default="-", help="Report JSONL path ('-' = stdout).")
@click.option("--run-meta", default=None, help="Side file for run metadata JSON.")
@_apply(_SCORING_FLAGS)
@handle_errors
def score(documents, summaries, output, run_meta, config_path, **flags) -> None:
    """Score summaries against their documents; one report line each."""
    config = load_run_config(config_path, flags)
    _setup_logging(config.log_level)
    docs = formats.index_documents(documents)
    sums = formats.index_summaries(summaries)
    scorer = Scorer(pipeline.make_nli_backend(config), scoring_params(config))
    extractor = pipeline.make_claim_extractor(config)
    coref_backend = pipeline.make_coref_backend(config)
    pairs = formats.read_corpus(documents, docs, summaries, sums)
    reports = pipeline.score_corpus(pairs, scorer, extractor, coref_backend, "full")
    _write_lines(output, map(formats.render_report, reports))
    _write_run_meta(
        run_meta,
        scorer,
        extractor,
        coref_backend,
        command="score",
        coref_truncated_documents=list(coref_backend.truncated),
        summaries=scorer.summaries,
    )


@main.command("extract-claims")
@click.argument("summaries", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", default="-", help="Claim cache JSON path ('-' = stdout).")
@_apply([_CONFIG, click.option("--claim-backend", default=None,
                               help="cache:<path> | remote:<url> | local:<model>"),
         _WORKERS, _LOG_LEVEL])
@handle_errors
def extract_claims(summaries, output, config_path, **flags) -> None:
    """Extract claims for every summary into a claim cache file."""
    config = load_run_config(config_path, flags)
    _setup_logging(config.log_level)
    rows = formats.index_summaries(summaries)
    extractor = pipeline.make_claim_extractor(config)
    if extractor is None:
        raise InputError("extract-claims needs --claim-backend (cache:/remote:/local:)")
    sums = formats.read_summaries(summaries, rows.values())
    # An empty list is recorded as is; consumers apply the fallback policy on read.
    claim_lists = pipeline.ordered_map(
        lambda s: [c.text for c in extractor.extract(s)], sums, config.workers
    )
    cache = dict(zip(rows, claim_lists))
    with _output(output) as stream:
        formats.write_claim_cache(stream, cache)


@main.command("eval-claims")
@click.argument("system", type=click.Path(exists=True, dir_okay=False))
@click.argument("human", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", default="-", help="Report JSON path ('-' = stdout).")
@handle_errors
def eval_claims(system, human, output) -> None:
    """Compare system claim sets against human ones (easiness P/R/F1)."""
    report = claim_metrics.evaluate_claim_sets(
        formats.load_claim_sets(system), formats.load_claim_sets(human)
    )
    _write_lines(output, [formats.dumps_fixed(report)])
    click.echo(
        "easiness_P={:.1f} easiness_R={:.1f} easiness_F1={:.1f} (percent)".format(
            report["easiness_p"] * 100,
            report["easiness_r"] * 100,
            report["easiness_f1"] * 100,
        ),
        err=True,
    )


@main.command()
@click.argument("records", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", default="-", help="Report JSON path ('-' = stdout).")
@click.option("--scores-csv", default=None, help="Per-record audit CSV path.")
@click.option("--protocol", type=click.Choice(PROTOCOLS), default=None)
@click.option("--mode", type=click.Choice((*MODES, *MODE_ALIASES)), default=None,
              help="Scoring pipeline variant (fenice is an alias for full).")
@click.option("--cache-dir", default=None, help="Directory for score caches.")
@click.option("--bootstrap-seed", type=int, default=None)
@click.option("--run-meta", default=None, help="Side file for run metadata JSON.")
@_apply(_SCORING_FLAGS)
@handle_errors
def benchmark(records, output, scores_csv, run_meta, config_path, **flags) -> None:
    """Tune thresholds on validation splits and report balanced accuracy."""
    config = load_run_config(config_path, flags)
    _setup_logging(config.log_level)
    rows = formats.load_benchmark_records(records)
    backend = pipeline.make_nli_backend(config)
    scorer = Scorer(backend, scoring_params(config))
    # A mode that scores summary sentences never reads claims, so its claim
    # backend is neither built nor reported.
    sentences, _ = MODES[config.mode]
    extractor = None if sentences else pipeline.make_claim_extractor(config)
    coref_backend = pipeline.make_coref_backend(config)
    cache = None
    if config.cache_dir:
        cache = ScoreCache(config.cache_dir, pipeline.scorer_fingerprint(config, backend, extractor))

    def score_records(pending):
        # Only the records the cache cannot answer are read again.
        reports = pipeline.score_corpus(
            formats.read_benchmark_records(records, pending),
            scorer,
            extractor,
            coref_backend,
            config.mode,
            missing_ok=True,
        )
        return (report.score for report in reports)

    report = bench.run_benchmark(
        rows,
        score_records,
        config.protocol,
        cache=cache,
        bootstrap_seed=config.bootstrap_seed,
        bootstrap_resamples=config.bootstrap_resamples,
    )
    _write_lines(output, [formats.dumps_fixed(formats.benchmark_report_to_dict(report, config.mode))])
    if scores_csv:
        with open(scores_csv, "w", encoding="utf-8", newline="") as fh:
            formats.write_scores_csv(fh, report)
    _write_run_meta(
        run_meta,
        scorer,
        extractor,
        coref_backend,
        command="benchmark",
        mode=config.mode,
        protocol=config.protocol,
        records=len(rows),
        cache=cache.path if cache else None,
    )


if __name__ == "__main__":
    main()
