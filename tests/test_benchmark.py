"""Benchmark harness: balanced accuracy, threshold tuning, caching, bootstrap."""

import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sumfact import (
    DegenerateLabels,
    InputError,
    MissingSplit,
    NliBackendError,
    ScoreCache,
    balanced_accuracy,
    binarize,
    run_benchmark,
    tune_threshold,
)
from sumfact.benchmark import _bootstrap_std, config_fingerprint
from sumfact.formats import write_scores_csv
from sumfact.pipeline import ordered_map

import oracles
from cases import benchmark_row as rec

D1, D2, D3 = (bytes([i]) * 16 for i in (1, 2, 3))


def batch(score):
    """A ``run_benchmark`` batch scorer that scores each pending record with ``score``."""
    return lambda pending: [score(record) for record in pending]


def scorer_from(mapping):
    return batch(lambda record: mapping[record.record_id])


# Dataset A separates at 0.5, dataset B at 0.25. A pooled threshold must pick
# 0.25 and misclassify one A test record; per-dataset tuning stays perfect.
SPLIT_SCORES = {
    "a1": 0.6, "a2": 0.4, "a3": 0.55, "a4": 0.45,
    "b1": 0.3, "b2": 0.2, "b3": 0.35, "b4": 0.15,
}
SPLIT_RECORDS = [
    rec("a1", "A", "validation", True),
    rec("a2", "A", "validation", False),
    rec("a3", "A", "test", True),
    rec("a4", "A", "test", False),
    rec("b1", "B", "validation", True),
    rec("b2", "B", "validation", False),
    rec("b3", "B", "test", True),
    rec("b4", "B", "test", False),
]


class TestBalancedAccuracy:
    def test_chance_level(self):
        assert balanced_accuracy([True, True, False, False], [True, False, True, False]) == 0.5

    def test_perfect(self):
        assert balanced_accuracy([True, False], [True, False]) == 1.0

    def test_all_wrong(self):
        assert balanced_accuracy([False, True], [True, False]) == 0.0

    def test_asymmetric(self):
        preds = [True, True, True, False]
        golds = [True, False, True, False]
        assert balanced_accuracy(preds, golds) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 predictions vs 2"):
            balanced_accuracy([True], [True, False])

    def test_empty(self):
        with pytest.raises(ValueError):
            balanced_accuracy([], [])

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            balanced_accuracy([True, False], [True, True])
        with pytest.raises(DegenerateLabels):
            balanced_accuracy([True, False], [False, False])

    @given(
        st.lists(
            st.tuples(st.booleans(), st.booleans()), min_size=2, max_size=30
        ).filter(lambda rows: len({g for _, g in rows}) == 2)
    )
    def test_label_swap_invariance(self, rows):
        preds = [p for p, _ in rows]
        golds = [g for _, g in rows]
        flipped = balanced_accuracy([not p for p in preds], [not g for g in golds])
        assert balanced_accuracy(preds, golds) == pytest.approx(flipped)


class TestBinarize:
    def test_threshold_is_inclusive(self):
        assert binarize([0.2, 0.5, 0.8], 0.5) == [False, True, True]

    def test_empty(self):
        assert binarize([], 0.5) == []


class TestTuneThreshold:
    def test_separable(self):
        result = tune_threshold([0.1, 0.4, 0.6, 0.9], [False, False, True, True])
        assert result.threshold == 0.5
        assert result.balanced_accuracy == 1.0
        assert result.confusion.as_dict() == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}

    def test_tie_takes_lowest_threshold(self):
        # Inverted labels: every candidate scores 0.5; the below-minimum
        # sentinel wins because later ties are not strict improvements.
        result = tune_threshold([0.2, 0.8], [True, False])
        assert result.threshold == pytest.approx(-0.8)
        assert result.balanced_accuracy == 0.5

    def test_constant_scores(self):
        result = tune_threshold([0.5] * 4, [True, False, True, False])
        assert result.threshold == pytest.approx(-0.5)
        assert result.balanced_accuracy == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tune_threshold([0.5], [True, False])

    def test_empty(self):
        with pytest.raises(ValueError):
            tune_threshold([], [])

    def test_single_class_propagates(self):
        with pytest.raises(DegenerateLabels):
            tune_threshold([0.1, 0.9], [True, True])

    # Few distinct values, so ties are common; -0.0 and 0.0 are both present,
    # and so are two adjacent floats, whose midpoint rounds onto one of them.
    # Any finite float may also appear, so that midpoints can overflow.
    TUNE_SCORES = st.one_of(
        st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, math.nextafter(0.5, 1.0)]),
        st.floats(allow_nan=False, allow_infinity=False),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(TUNE_SCORES, st.booleans()), min_size=1, max_size=40))
    @example([(0.5, True), (0.5, False), (0.5, True)])
    @example([(-0.0, True), (0.0, False), (0.0, True), (-0.0, False)])
    @example([(1e308, False), (1.7e308, True)])
    def test_matches_brute_force(self, rows):
        scores = [s for s, _ in rows]
        golds = [g for _, g in rows]
        expected = oracles.tune_threshold(scores, golds)
        if expected is None:
            with pytest.raises(DegenerateLabels):
                tune_threshold(scores, golds)
            return
        result = tune_threshold(scores, golds)
        assert (result.threshold, result.balanced_accuracy, result.confusion.as_dict()) == expected

    def test_beats_fine_grid(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 15)
            scores = [round(rng.uniform(-1, 1), 3) for _ in range(n)]
            golds = [rng.random() < 0.5 for _ in range(n)]
            if all(golds) or not any(golds):
                golds[0] = not golds[0]
            best = tune_threshold(scores, golds)
            for threshold in [x / 100 for x in range(-110, 111)]:
                ba = balanced_accuracy(binarize(scores, threshold), golds)
                assert best.balanced_accuracy >= ba


class TestBootstrap:
    def test_separable_has_zero_spread(self):
        std = _bootstrap_std(
            [0.9, 0.8, 0.2, 0.1],
            [True, True, False, False],
            0.5,
            random.Random(0),
            200,
        )
        assert std == 0.0

    def test_noisy_has_positive_spread(self):
        std = _bootstrap_std(
            [0.9, 0.8, 0.3, 0.2],
            [True, False, True, False],
            0.5,
            random.Random(0),
            200,
        )
        assert std is not None and std > 0.0

    def test_same_seed_same_value(self):
        args = ([0.9, 0.8, 0.3, 0.2], [True, False, True, False], 0.5)
        a = _bootstrap_std(*args, random.Random(42), 300)
        b = _bootstrap_std(*args, random.Random(42), 300)
        assert a == b

    def test_single_class_returns_none(self):
        std = _bootstrap_std([0.5, 0.6], [True, True], 0.5, random.Random(0), 50)
        assert std is None


class TestBootstrapOracle:
    """The bootstrap draws exactly what ``randrange`` would, value for value."""

    # Around each switch of lookup (one page, several pages, direct), and
    # 2**k + 1 records, which take many rounds of redraws.
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 255, 256, 257, 500, 1025, 1500, 4095, 4096, 4097, 65537]
    )
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        other=st.sampled_from([2, 3, 257, 500]),
        positive_share=st.sampled_from([0.0, 0.02, 0.5, 0.98, 1.0]),
    )
    def test_matches_randrange_reference(self, n, seed, other, positive_share):
        # Three datasets in turn on one generator, as run_benchmark draws them.
        data = random.Random(seed)
        ours, reference = random.Random(seed), random.Random(seed)
        for size in (n, other, n):
            scores = [data.random() for _ in range(size)]
            golds = [data.random() < positive_share for _ in range(size)]
            threshold = data.choice([*scores, data.random()])  # often equal to a score
            resamples = max(1, 3000 // size)
            assert _bootstrap_std(scores, golds, threshold, ours, resamples) == (
                oracles.bootstrap_std(scores, golds, threshold, reference, resamples)
            )
            assert ours.getstate() == reference.getstate()

    def test_million_records(self):
        # 2**20 + 1 records: values of 21 bits, beyond the code point range.
        # Two resamples, as the spread of one is always 0.
        n = 2**20 + 1
        data = random.Random(11)
        scores = [data.random() for _ in range(n)]
        golds = [data.random() < 0.5 for _ in range(n)]
        ours, reference = random.Random(12), random.Random(12)
        std = _bootstrap_std(scores, golds, 0.5, ours, 2)
        assert std == oracles.bootstrap_std(scores, golds, 0.5, reference, 2) and std > 0
        assert ours.getstate() == reference.getstate()

    def test_single_class_sample_gives_none(self):
        ours, reference = random.Random(3), random.Random(3)
        args = ([0.1, 0.7, 0.9], [False, False, False], 0.5)
        assert _bootstrap_std(*args, ours, 40) is None
        assert oracles.bootstrap_std(*args, reference, 40) is None
        assert ours.getstate() == reference.getstate()


class TestRunBenchmark:
    def test_per_split_protocol(self):
        report = run_benchmark(SPLIT_RECORDS, scorer_from(SPLIT_SCORES), "per_split")
        assert report.protocol == "per_split"
        assert report.pooled_threshold is None
        assert [d.dataset for d in report.datasets] == ["A", "B"]
        a, b = report.datasets
        assert a.threshold == pytest.approx(0.5)
        assert b.threshold == pytest.approx(0.25)
        assert a.balanced_accuracy == 1.0
        assert b.balanced_accuracy == 1.0
        assert report.average_balanced_accuracy == 1.0
        assert (a.n_validation, a.n_test) == (2, 2)

    def test_single_threshold_protocol(self):
        report = run_benchmark(SPLIT_RECORDS, scorer_from(SPLIT_SCORES), "single_threshold")
        assert report.pooled_threshold == pytest.approx(0.25)
        a, b = report.datasets
        assert a.threshold == b.threshold == report.pooled_threshold
        assert a.balanced_accuracy == 0.5
        assert b.balanced_accuracy == 1.0
        assert report.average_balanced_accuracy == 0.75

    def test_audit_rows_keep_input_order(self):
        report = run_benchmark(SPLIT_RECORDS, scorer_from(SPLIT_SCORES), "per_split")
        # The report holds the rows it was given, and each one's score at its position.
        assert report.rows is SPLIT_RECORDS
        assert report.scores == [SPLIT_SCORES[r.record_id] for r in SPLIT_RECORDS]
        # Each CSV prediction applies its own dataset's threshold (A: 0.5, B: 0.25).
        buffer = io.StringIO()
        write_scores_csv(buffer, report)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert [row["record_id"] for row in rows] == [r.record_id for r in SPLIT_RECORDS]
        predictions = {row["record_id"]: row["prediction"] for row in rows}
        assert predictions["a3"] == predictions["b3"] == "factual"
        assert predictions["a4"] == predictions["b4"] == "not_factual"

    def test_unknown_protocol(self):
        with pytest.raises(InputError, match="protocol"):
            run_benchmark(SPLIT_RECORDS, scorer_from(SPLIT_SCORES), "leave_one_out")

    def test_no_records(self):
        with pytest.raises(InputError, match="at least one record"):
            run_benchmark([], scorer_from({}), "per_split")

    def test_missing_split(self):
        records = [rec("r1", "A", "validation", True), rec("r2", "A", "validation", False)]
        with pytest.raises(MissingSplit, match="dataset 'A' has no test records"):
            run_benchmark(records, scorer_from({"r1": 0.9, "r2": 0.1}), "per_split")

    def test_duplicate_record_id(self):
        # Split coverage is intact, so the duplicate itself is what's rejected.
        a_records = [r for r in SPLIT_RECORDS if r.dataset == "A"]
        records = a_records + [a_records[0]]
        with pytest.raises(InputError, match="duplicate record id 'a1'"):
            run_benchmark(records, scorer_from(SPLIT_SCORES), "per_split")

    def test_degenerate_test_labels(self):
        records = [
            rec("r1", "A", "validation", True),
            rec("r2", "A", "validation", False),
            rec("r3", "A", "test", True),
            rec("r4", "A", "test", True),
        ]
        scores = {"r1": 0.9, "r2": 0.1, "r3": 0.8, "r4": 0.7}
        with pytest.raises(DegenerateLabels):
            run_benchmark(records, scorer_from(scores), "per_split")

    def test_bootstrap_seed_none_disables_spread(self):
        report = run_benchmark(
            SPLIT_RECORDS, scorer_from(SPLIT_SCORES), "per_split", bootstrap_seed=None
        )
        assert all(d.bootstrap_std is None for d in report.datasets)

    def test_bootstrap_deterministic_across_runs(self):
        kwargs = dict(bootstrap_seed=7, bootstrap_resamples=150)
        r1 = run_benchmark(SPLIT_RECORDS, scorer_from(SPLIT_SCORES), "per_split", **kwargs)
        r2 = run_benchmark(SPLIT_RECORDS, scorer_from(SPLIT_SCORES), "per_split", **kwargs)
        assert [d.bootstrap_std for d in r1.datasets] == [d.bootstrap_std for d in r2.datasets]

    def test_workers_do_not_change_results(self):
        lock = threading.Lock()
        calls = []

        def scorer(record):
            with lock:
                calls.append(record.record_id)
            return SPLIT_SCORES[record.record_id]

        serial = run_benchmark(
            SPLIT_RECORDS, lambda pending: ordered_map(scorer, pending, 1), "per_split"
        )
        parallel = run_benchmark(
            SPLIT_RECORDS, lambda pending: ordered_map(scorer, pending, 4), "per_split"
        )
        assert serial == parallel
        assert len(calls) == 2 * len(SPLIT_RECORDS)

    def test_batch_gets_uncached_records_in_input_order(self, tmp_path):
        cache = ScoreCache(str(tmp_path), "partial")
        for row in SPLIT_RECORDS:
            if row.record_id in ("a2", "b3"):
                cache.put(row.record_id, SPLIT_SCORES[row.record_id], row.digest)
        batches = []

        def score_records(pending):
            batches.append([r.record_id for r in pending])
            return [SPLIT_SCORES[r.record_id] for r in pending]

        report = run_benchmark(SPLIT_RECORDS, score_records, "per_split", cache=cache)
        assert batches == [["a1", "a3", "a4", "b1", "b2", "b4"]]
        assert report == run_benchmark(SPLIT_RECORDS, scorer_from(SPLIT_SCORES), "per_split")

    def test_batch_must_score_every_pending_record(self):
        with pytest.raises(ValueError):
            run_benchmark(SPLIT_RECORDS, lambda pending: [0.5], "per_split")


class TestScoreCache:
    def test_round_trip(self, tmp_path):
        cache = ScoreCache(str(tmp_path), "deadbeef00000000")
        cache.put("r1", 0.75, D1)
        cache.save()
        assert cache.path.endswith("scores-deadbeef00000000.json")
        reloaded = ScoreCache(str(tmp_path), "deadbeef00000000")
        assert reloaded.get("r1", D1) == 0.75
        assert reloaded.get("unknown", D1) is None

    def test_score_answers_only_its_digest(self, tmp_path):
        # "r2" is a plain score, as a cache written before digests were stored holds.
        path = tmp_path / "scores-digests.json"
        path.write_text(json.dumps({"r1": [0.75, "01" * 16], "r2": 0.25}))
        cache = ScoreCache(str(tmp_path), "digests")
        assert cache.get("r1", D1) == 0.75
        assert cache.get("r1", D2) is None
        # A plain score answers no record, and is not written back.
        assert cache.get("r2", D1) is None
        cache.put("r3", 0.5, D3)
        cache.save()
        assert json.loads(path.read_text()) == {"r1": [0.75, "01" * 16], "r3": [0.5, "03" * 16]}

    def test_two_caches_saving_one_file_at_once_both_finish(self, tmp_path, monkeypatch):
        # The second cache saves between the first one's write and its
        # rename: neither renames the other's temp file, and the last wins.
        first = ScoreCache(str(tmp_path), "fp")
        second = ScoreCache(str(tmp_path), "fp")
        first.put("r1", 0.75, D1)
        second.put("r2", 0.25, D2)
        replace = os.replace

        def interleaved(src, dst):
            monkeypatch.setattr(os, "replace", replace)
            second.save()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved)
        first.save()
        assert os.listdir(tmp_path) == ["scores-fp.json"]
        assert json.loads((tmp_path / "scores-fp.json").read_text()) == {"r1": [0.75, "01" * 16]}
        # The entry the last save lacks is missing, so it is scored again.
        reloaded = ScoreCache(str(tmp_path), "fp")
        assert reloaded.get("r1", D1) == 0.75
        assert reloaded.get("r2", D2) is None

    def test_a_failed_save_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = ScoreCache(str(tmp_path), "fp")
        cache.put("r1", 0.75, D1)

        def refuse(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            cache.save()
        assert os.listdir(tmp_path) == []

    def test_save_without_changes_writes_nothing(self, tmp_path):
        cache = ScoreCache(str(tmp_path), "abc")
        cache.save()
        assert not (tmp_path / "scores-abc.json").exists()

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "scores-bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(InputError, match="expected a JSON object"):
            ScoreCache(str(tmp_path), "bad")

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{bad", "invalid JSON"),
            ("7", "scores-bad.json: expected a JSON object"),
            ('{"r0": "abc"}', "entry 'r0' is not a number"),
            ('{"r0": null}', "entry 'r0' is not a number"),
            ('{"r0": true}', "entry 'r0' is not a number"),
            pytest.param('{"r0": 1' + "0" * 400 + "}", "entry 'r0' is not a number", id="huge-int"),
            ('{"r0": [0.5]}', "entry 'r0' is not a number"),
            ('{"r0": ["abc", "' + "0" * 32 + '"]}', "entry 'r0' is not a number"),
            ('{"r0": [NaN, "' + "0" * 32 + '"]}', "entry 'r0' is not a number"),
            ('{"r0": [0.5, "zz"]}', "entry 'r0' has a malformed digest"),
            ('{"r0": [0.5, 7]}', "entry 'r0' has a malformed digest"),
        ],
    )
    def test_corrupt_file_rejected(self, tmp_path, content, message):
        (tmp_path / "scores-bad.json").write_text(content)
        with pytest.raises(InputError, match=message):
            ScoreCache(str(tmp_path), "bad")

    def test_retune_without_rescoring(self, tmp_path):
        calls = []

        def scorer(record):
            calls.append(record.record_id)
            return SPLIT_SCORES[record.record_id]

        first = run_benchmark(
            SPLIT_RECORDS, batch(scorer), "per_split", cache=ScoreCache(str(tmp_path), "fp1")
        )
        assert len(calls) == len(SPLIT_RECORDS)
        # Same fingerprint: every score comes from disk, even under a
        # different tuning protocol.
        second = run_benchmark(
            SPLIT_RECORDS, batch(scorer), "per_split", cache=ScoreCache(str(tmp_path), "fp1")
        )
        assert len(calls) == len(SPLIT_RECORDS)
        assert second == first
        run_benchmark(
            SPLIT_RECORDS, batch(scorer), "single_threshold",
            cache=ScoreCache(str(tmp_path), "fp1"),
        )
        assert len(calls) == len(SPLIT_RECORDS)

    def test_different_fingerprints_do_not_share_scores(self, tmp_path):
        calls = []

        def scorer(record):
            calls.append(record.record_id)
            return SPLIT_SCORES[record.record_id]

        for fingerprint in ("fpA", "fpB"):
            cache = ScoreCache(str(tmp_path), fingerprint)
            run_benchmark(SPLIT_RECORDS, batch(scorer), "per_split", cache=cache)
        assert len(calls) == 2 * len(SPLIT_RECORDS)
        assert (tmp_path / "scores-fpA.json").exists()
        assert (tmp_path / "scores-fpB.json").exists()

    def test_cache_file_is_sorted_json(self, tmp_path):
        # An entry loaded from disk is written back with the digest it was read with.
        loaded = [0.3, "0123456789abcdef" * 2]
        (tmp_path / "scores-order.json").write_text(json.dumps({"mm": loaded}))
        cache = ScoreCache(str(tmp_path), "order")
        cache.put("zz", 0.1, D1)
        cache.put("aa", 0.2, D2)
        cache.save()
        text = (tmp_path / "scores-order.json").read_text()
        expected = {"aa": [0.2, "02" * 16], "mm": loaded, "zz": [0.1, "01" * 16]}
        assert text == json.dumps(expected, sort_keys=True)

    def test_scores_before_a_backend_failure_are_saved(self, tmp_path):
        def failing(pending):
            for record in pending[:2]:
                yield SPLIT_SCORES[record.record_id]
            raise NliBackendError("backend went away")

        with pytest.raises(NliBackendError):
            run_benchmark(
                SPLIT_RECORDS, failing, "per_split", cache=ScoreCache(str(tmp_path), "fp1")
            )
        saved = json.loads((tmp_path / "scores-fp1.json").read_text())
        assert sorted(saved) == ["a1", "a2"]
        # A rerun scores only the records the failure left unscored.
        calls = []

        def scorer(record):
            calls.append(record.record_id)
            return SPLIT_SCORES[record.record_id]

        run_benchmark(
            SPLIT_RECORDS, batch(scorer), "per_split", cache=ScoreCache(str(tmp_path), "fp1")
        )
        assert calls == [r.record_id for r in SPLIT_RECORDS[2:]]


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


class TestScoreCacheKeysTheCode:
    """A score cache answers only the code that wrote it: a run of a package
    whose scoring rules differ writes a cache file of its own."""

    RECORDS = [
        ("v1", "validation", "factual", "alpha beta gamma."),
        ("v2", "validation", "not_factual", "alpha is not gamma."),
        ("t1", "test", "factual", "beta gamma."),
        ("t2", "test", "not_factual", "gamma is not beta."),
    ]

    def benchmark(self, tmp_path, src, cache_dir):
        """The ``--scores-csv`` bytes of a ``benchmark`` run of the package under ``src``."""
        records = tmp_path / "records.jsonl"
        records.write_text(
            "".join(
                json.dumps({"record_id": rid, "document": "alpha beta gamma.", "summary": summary,
                            "gold_label": gold, "dataset": "main", "split": split}) + "\n"
                for rid, split, gold, summary in self.RECORDS
            ),
            encoding="utf-8",
        )
        csv_path = tmp_path / "scores.csv"
        done = subprocess.run(
            [sys.executable, "-c", "from sumfact.cli import main; main()", "benchmark",
             str(records), "--cache-dir", str(cache_dir), "--scores-csv", str(csv_path)],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert done.returncode == 0, done.stderr
        return csv_path.read_bytes()

    def test_a_run_of_edited_scoring_code_misses_the_cache(self, tmp_path):
        edited = tmp_path / "edited"
        shutil.copytree(
            SRC_DIR / "sumfact", edited / "sumfact", ignore=shutil.ignore_patterns("__pycache__")
        )
        nli = edited / "sumfact" / "nli.py"
        rule = '("not" in p) != ("not" in h)'
        source = nli.read_text(encoding="utf-8")
        assert source.count(rule) == 1
        nli.write_text(source.replace(rule, '("never" in p) != ("never" in h)'), encoding="utf-8")
        shared = tmp_path / "cache"
        original = self.benchmark(tmp_path, SRC_DIR, shared)
        warm = self.benchmark(tmp_path, edited, shared)
        assert len(list(shared.glob("scores-*.json"))) == 2
        cold = self.benchmark(tmp_path, edited, tmp_path / "cold")
        assert warm == cold != original


class TestConfigFingerprint:
    def test_key_order_irrelevant(self):
        a = config_fingerprint({"x": 1, "y": "b"})
        b = config_fingerprint({"y": "b", "x": 1})
        assert a == b

    def test_shape(self):
        fp = config_fingerprint({"x": 1})
        assert len(fp) == 16
        assert all(c in "0123456789abcdef" for c in fp)

    def test_value_sensitivity(self):
        assert config_fingerprint({"x": 1}) != config_fingerprint({"x": 2})
        assert config_fingerprint({"x": 1}) != config_fingerprint({"y": 1})
