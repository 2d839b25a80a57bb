"""Opt-in checks that need model weights or a labeled corpus.

Each check skips unless the environment names the resources it needs; only
the mock-backend run of the benchmark helper runs by default.

- ``SUMFACT_NLI_MODEL``: entailment checkpoint for the ``local:`` backend
  (requires the ``models`` extra).
- ``SUMFACT_BENCHMARK_JSONL``: labeled benchmark records (validation + test
  splits) for accuracy targets.
- ``SUMFACT_CLAIM_CACHE``: extracted-claims JSON for those records, used by
  the ablation ordering check.

The accuracy targets are corpus-level numbers with a wide +/-2 point band;
the directional model checks assert orderings, not absolute scores. The
benchmark runs go through the ``benchmark`` command.
"""

import json
import logging
import os
import random

import pytest
from click.testing import CliRunner

from sumfact import Claim, Scorer, ScoringParams, cli, load_run_config
from sumfact.config import MODES
from sumfact.coref import HeuristicCorefBackend
from sumfact.pipeline import attach_clusters, make_nli_backend

from cases import doc_from_sentences, score_block, write_news_records

NLI_MODEL = os.environ.get("SUMFACT_NLI_MODEL")
BENCH_JSONL = os.environ.get("SUMFACT_BENCHMARK_JSONL")
CLAIM_CACHE = os.environ.get("SUMFACT_CLAIM_CACHE")

needs_model = pytest.mark.skipif(
    not NLI_MODEL,
    reason="set SUMFACT_NLI_MODEL to a local entailment checkpoint to run",
)
needs_corpus = pytest.mark.skipif(
    not (NLI_MODEL and BENCH_JSONL),
    reason="set SUMFACT_NLI_MODEL and SUMFACT_BENCHMARK_JSONL to run the "
    "labeled benchmark",
)
needs_full_stack = pytest.mark.skipif(
    not (NLI_MODEL and BENCH_JSONL and CLAIM_CACHE),
    reason="set SUMFACT_NLI_MODEL, SUMFACT_BENCHMARK_JSONL and "
    "SUMFACT_CLAIM_CACHE to run the ablation ordering",
)


def _model_backend():
    config = load_run_config(None, {"nli_backend": f"local:{NLI_MODEL}"})
    return make_nli_backend(config)


def _run_benchmark(
    mode, protocol="per_split", *, records=BENCH_JSONL, nli_backend=None, claim_cache=CLAIM_CACHE
):
    """The ``benchmark`` command's report on ``records``, as a dict."""
    args = [
        "benchmark", records,
        "--nli-backend", nli_backend or f"local:{NLI_MODEL}",
        "--coref-backend", "heuristic",
        "--mode", mode,
        "--protocol", protocol,
        "--workers", "4",
    ]
    if claim_cache:
        args += ["--claim-backend", f"cache:{claim_cache}"]
    try:
        result = CliRunner().invoke(cli.main, args)
    finally:
        logging.getLogger("sumfact").handlers.clear()
    assert result.exit_code == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("mode", MODES)
def test_benchmark_helper_on_the_mock_backend(tmp_path, mode):
    """The labeled-corpus helper on a small generated corpus, so that an API
    change fails here and not only in the skipped tests below."""
    records, claims = write_news_records(tmp_path, random.Random(5))
    report = _run_benchmark(mode, records=records, nli_backend="mock", claim_cache=claims)
    assert report["mode"] == mode
    assert report["datasets"]["news"]["n_test"] == 8
    assert 0.0 <= report["average_balanced_accuracy"] <= 1.0


@needs_corpus
def test_labeled_benchmark_accuracy(criterion):
    """Full pipeline lands near its published corpus-level accuracy."""
    with criterion("labeled-benchmark-accuracy"):
        per_split = _run_benchmark("full", "per_split")
        assert 100 * per_split["average_balanced_accuracy"] == pytest.approx(71.6, abs=2.0)
        pooled = _run_benchmark("full", "single_threshold")
        assert 100 * pooled["average_balanced_accuracy"] == pytest.approx(72.7, abs=2.0)


@needs_full_stack
def test_ablation_ordering(criterion):
    """Each pipeline stage adds accuracy on the labeled corpus."""
    with criterion("ablation-ordering"):
        averages = {
            mode: _run_benchmark(mode)["average_balanced_accuracy"]
            for mode in ("nli_sent", "nli_claim", "nli_coref", "full")
        }
        assert (
            averages["nli_sent"]
            < averages["nli_claim"]
            < averages["nli_coref"]
            < averages["full"]
        )


@needs_model
def test_model_entailment_directionality():
    backend = _model_backend()
    premise = "The striker scored two goals on Saturday."
    hypotheses = [
        "The striker scored.", "The striker did not score.", "The coach retired in 2010."
    ]
    scores = backend.submit([(premise, h) for h in hypotheses]).scores()
    entailed, contradicted, unrelated = scores
    assert entailed > 0.5
    assert contradicted < 0.0
    assert entailed > unrelated


@needs_model
def test_model_coref_substitution_helps():
    # "Maria Lopez" is the only name, so the heuristic must attach "She" to it.
    doc = doc_from_sentences(
        "d-coref",
        [
            "Maria Lopez joined the company in 2019.",
            "She resigned from the company last week.",
        ],
    )
    doc = attach_clusters(doc, HeuristicCorefBackend())
    assert doc.coref_clusters, "heuristic should link 'She' to 'Maria Lopez'"
    scorer = Scorer(_model_backend(), ScoringParams())
    claim = Claim("s-coref", 0, "Maria Lopez resigned from the company.")
    (report,) = score_block(scorer, [(doc, [claim], False)], stop="coref")
    (verdict,) = report.verdicts
    assert verdict.sub_scores["coref"] > verdict.sub_scores["sentence"]
    assert verdict.aligned.granularity == "coref_sentence"
