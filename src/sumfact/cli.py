"""Command-line interface.

Four batch commands: ``score`` (documents + summaries -> report JSONL),
``extract-claims`` (summaries -> claim cache JSON), ``eval-claims`` (system
vs human claim sets -> easiness report), and ``benchmark`` (labeled records
-> balanced-accuracy report). Exit codes: 0 success, 2 input error,
3 backend error, 4 degenerate labels.
"""

from __future__ import annotations

import errno
import functools
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import click

from . import __version__, claim_metrics, formats, pipeline
from . import benchmark as bench
from .benchmark import PROTOCOLS, ScoreCache
from .claims import ClaimExtractor
from .config import MODE_ALIASES, MODES, RunConfig, load_run_config, scoring_params
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
    if "-" in (a, b):  # stdout is only itself
        return a == b
    exist = os.path.exists(a) and os.path.exists(b)
    return os.path.samefile(a, b) if exist else os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(params: dict, config_path: str | None, config: RunConfig) -> None:
    """Refuse an output that names a file the command reads, or another
    output, or that cannot be opened; and a ``cache_dir`` that cannot be made.

    The outputs are ``--output``, ``--run-meta`` and ``--scores-csv``. What a
    command reads is its arguments, ``--config`` and the files its config
    names (:attr:`RunConfig.reads`, whether or not its mode reads them).
    ``-`` is stdout: it names no file, so it is never compared with an input,
    but two outputs on it collide. Opening an output truncates it, so this
    runs before the command reads anything. An output whose directory is
    missing, or that is itself a directory, fails here with the error
    ``open`` would give after the run (``ENOTDIR`` where the nearest existing
    part of its path is a file); a ``cache_dir`` that is a file, or whose
    nearest existing part is one, with the error ``os.makedirs`` would give
    at the first save. Nothing is created here.
    """
    command = click.get_current_context().command
    reads = [params[p.name] for p in command.params if isinstance(p, click.Argument)]
    # An input named "-" is a file; only an output's "-" is stdout.
    taken = [(os.path.abspath(p), "one of the inputs") for p in [*reads, config_path, *config.reads] if p]
    for flag in ("--output", "--run-meta", "--scores-csv"):
        path = params.get(flag[2:].replace("-", "_"))
        if path:
            for other, what in taken:
                if _same_path(path, other):
                    raise InputError(f"{flag} {path} is {what}; it would be truncated")
            taken.append((path, f"also {flag}"))
            parent = Path(path).absolute().parent
            if path != "-" and not parent.is_dir():
                code = errno.ENOTDIR if _file_on_the_way(parent) else errno.ENOENT
                raise OSError(code, os.strerror(code), path)
            if path != "-" and os.path.isdir(path):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    cache_dir = Path(config.cache_dir or ".").absolute()
    if _file_on_the_way(cache_dir):
        code = errno.EEXIST if cache_dir.exists() else errno.ENOTDIR
        raise OSError(code, os.strerror(code), config.cache_dir)


def _file_on_the_way(path: Path) -> bool:
    """Whether ``path`` or one of its ancestors is a file, not a directory."""
    return any(part.exists() and not part.is_dir() for part in (path, *path.parents))


def handle_errors(fn):
    """Run every command through one prologue; map its errors to exit codes.

    The prologue builds the :class:`RunConfig` from ``--config`` and the
    flags (the command's parameters named like its fields; a command with
    none gets the defaults), sets up logging, runs :func:`_check_outputs`,
    and then calls the command with the config and its other parameters.
    """

    @functools.wraps(fn)
    def wrapper(config_path=None, **params):
        try:
            flags = {k: params.pop(k) for k in RunConfig.__dataclass_fields__ if k in params}
            config = load_run_config(config_path, flags)
            _setup_logging(config.log_level)
            _check_outputs(params, config_path, config)
            return fn(config, **params)
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
    with open(path, "w", encoding="utf-8", newline="") as stream:
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
    _write_lines(path, [json.dumps(meta, indent=2, sort_keys=True)])


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
@click.option("--run-meta", default=None, help="Side file for run metadata JSON ('-' = stdout).")
@_apply(_SCORING_FLAGS)
@handle_errors
def score(config, documents, summaries, output, run_meta) -> None:
    """Score summaries against their documents; one report line each."""
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
def extract_claims(config, summaries, output) -> None:
    """Extract claims for every summary into a claim cache file."""
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
def eval_claims(config, system, human, output) -> None:
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
@click.option("--scores-csv", default=None, help="Per-record audit CSV path ('-' = stdout).")
@click.option("--protocol", type=click.Choice(PROTOCOLS), default=None)
@click.option("--mode", type=click.Choice((*MODES, *MODE_ALIASES)), default=None,
              help="Scoring pipeline variant (fenice is an alias for full).")
@click.option("--cache-dir", default=None, help="Directory for score caches.")
@click.option("--bootstrap-seed", type=int, default=None)
@click.option("--run-meta", default=None, help="Side file for run metadata JSON ('-' = stdout).")
@_apply(_SCORING_FLAGS)
@handle_errors
def benchmark(config, records, output, scores_csv, run_meta) -> None:
    """Tune thresholds on validation splits and report balanced accuracy."""
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
        with _output(scores_csv) as stream:
            formats.write_scores_csv(stream, report)
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
