"""Outside-in benchmark of ``sumfact score`` and ``sumfact benchmark``.

Run from the root of a source checkout:

    python3 perfbench/run.py --batch-ms 5 --unit-us 1 \\
        --workload score-news --seed 1 --seconds 40 --trace 0

Each command runs in a fresh interpreter through ``sumfact.cli.main`` on
seeded synthetic inputs, with the ``mock`` entailment backend and one worker.
An untimed traced first run warms the caches and counts backend batches. With
``--trace 0`` the command is then repeated untraced for ``--seconds`` and the
end-to-end metrics are medians over those runs. With ``--trace 1`` the same
untraced runs are followed by a second traced run, which gives the per-layer
metrics. ``--workload all`` runs every workload in turn.

End-to-end times are scaled to a nominal machine speed, measured around each
run with the fixed task in ``speed.py``; per-layer times are as measured.

No model weights are available, so the cost of a real entailment model is
modelled from the batches the backend receives: ``--batch-ms`` per batch plus
``--unit-us`` per padded unit (rows times the longest premise plus
hypothesis in the batch, in ``measure`` units). Both are fixed in
BENCHMARK.json.

Seed 1 is the default. Seed 1009 is held out: check a claim on it that the
change was not written against.

Every output is checked (``ScoreNews.check``, ``BenchCold.check``). The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count operations (a summary for ``score``, a record for
``benchmark``), and ``metrics`` holds the metrics that BENCHMARK.json names.
Per-layer metrics that the workload does not exercise read 0 there, and are
named on an ``absent`` line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen
import speed

HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
SCORE_DOCUMENTS = 100
SCORE_MAX_UNITS = 600
BENCH_RECORDS = 3000
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0
OUT_DIR = ".perfbench_out"
# Layer metrics that also describe the input; printed with the input properties.
INPUT_SHARES = ("scoring.gate_pass_rate", "scoring.coref_win_rate", "claims.fallback_share")


class Workload:
    """Inputs, command line and output checks of one workload."""

    name = ""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def read(self, name: str) -> bytes:
        with open(self.path(name), "rb") as fh:
            return fh.read()


class ScoreNews(Workload):
    name = "score-news"

    def generate(self) -> None:
        self.meta = gen.write_score_news(
            self.workdir, self.seed, documents=SCORE_DOCUMENTS, max_units=SCORE_MAX_UNITS
        )
        self.ops = len(self.meta["summaries"])

    def argv(self, tag: str) -> list[str]:
        return [
            "score", "documents.jsonl", "summaries.jsonl",
            "--output", f"{tag}.report.jsonl", "--run-meta", f"{tag}.meta.json",
            "--config", "config.json", "--claim-backend", "cache:claims.json",
            "--coref-backend", "heuristic", "--nli-backend", "mock", "--workers", "1",
        ]

    def check(self, tag: str):
        """Failed summary ids, problems, output digest and verdict count."""
        expected = self.meta["summaries"]
        data = self.read(f"{tag}.report.jsonl")
        failed: set[str] = set()
        problems: list[str] = []
        seen: dict[str, int] = {}
        verdicts = gate_pass = coref_win = fallback = 0
        for number, line in enumerate(data.decode("utf-8").splitlines(), 1):
            try:
                report = json.loads(line)
                sid = report["summary_id"]
            except (ValueError, KeyError, TypeError):
                problems.append(f"report line {number} does not parse")
                continue
            seen[sid] = seen.get(sid, 0) + 1
            if sid not in expected:
                problems.append(f"report names unknown summary {sid!r}")
                continue
            problem = _score_line_problem(report, expected[sid])
            if problem:
                failed.add(sid)
                problems.append(f"{sid}: {problem}")
                continue
            verdicts += len(report["verdicts"])
            gate_pass += sum(v["stage"] == "coref" for v in report["verdicts"])
            coref_win += sum(v["sub_scores"]["coref"] > v["sub_scores"]["sentence"] for v in report["verdicts"])
            fallback += report["claims_fallback"]
        for sid in expected:
            if seen.get(sid) != 1:
                failed.add(sid)
                problems.append(f"{sid} appears {seen.get(sid, 0)} times")
        meta = json.loads(self.read(f"{tag}.meta.json"))
        if meta.get("summaries") != len(expected):
            problems.append(f"run-meta counts {meta.get('summaries')} summaries")
        self.backend_calls = sum(meta.get("backend_calls", {}).values())
        if verdicts:
            self.shares = {
                "scoring.gate_pass_rate": gate_pass / verdicts,
                "scoring.coref_win_rate": coref_win / verdicts,
                "claims.fallback_share": fallback / len(expected),
            }
        return failed, problems, hashlib.sha256(data).hexdigest(), verdicts

    def inputs(self) -> dict:
        return {
            "input.over_budget_share": self.meta["over_budget_share"],
            "input.window_over_budget_share": self.meta["window_over_budget_share"],
            **getattr(self, "shares", {}),
        }


def _score_line_problem(report: dict, expected: dict) -> str | None:
    try:
        verdicts = report["verdicts"]
        params = report["params"]
        if params["j"] != 5 or params["T"] != 0.8:
            return f"params {params}"
        if len(verdicts) != expected["claims"]:
            return f"{len(verdicts)} verdicts, expected {expected['claims']}"
        if report["claims_fallback"] != expected["fallback"]:
            return "claims_fallback flag is wrong"
        mean = sum(v["score"] for v in verdicts) / len(verdicts)
        if abs(report["score"] - mean) > 1e-6 + 1e-12:
            return f"score {report['score']} is not the verdict mean {mean}"
        for v in verdicts:
            sub = v["sub_scores"]
            if sub["coref"] < sub["sentence"]:
                return "a coref sub-score is below its sentence sub-score"
            if (v["stage"] == "coref") != (sub["coref"] >= params["T"]):
                return f"stage {v['stage']} with coref sub-score {sub['coref']}"
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        return f"malformed report line ({exc!r})"
    return None


class BenchCold(Workload):
    name = "bench-cold"

    def generate(self) -> None:
        self.meta = gen.write_bench(self.workdir, self.seed, records=BENCH_RECORDS)
        self.ops = len(self.meta["records"])

    def cache_dir(self, tag: str) -> str:
        """An empty cache directory for every run: each run writes the cache.

        The ``warm`` run instead reads the cache that the first run wrote.
        """
        if tag == "warm":
            return "trace0.cache"
        path = f"{tag}.cache"
        os.makedirs(self.path(path))
        return path

    def argv(self, tag: str) -> list[str]:
        return [
            "benchmark", "records.jsonl", "--protocol", "per_split",
            "--output", f"{tag}.report.json", "--scores-csv", f"{tag}.scores.csv",
            "--cache-dir", self.cache_dir(tag), "--run-meta", f"{tag}.meta.json",
            "--nli-backend", "mock", "--claim-backend", "none", "--coref-backend", "none",
            "--workers", "1",
        ]

    def check(self, tag: str):
        """Failed record ids, problems, output digest and claim count."""
        expected = self.meta["records"]
        report_bytes = self.read(f"{tag}.report.json")
        csv_bytes = self.read(f"{tag}.scores.csv")
        failed: set[str] = set()
        problems: list[str] = []
        try:
            report = json.loads(report_bytes)
            datasets = report["datasets"]
            average = report["average_balanced_accuracy"]
        except (ValueError, KeyError, TypeError):
            return set(expected), ["benchmark report does not parse"], None, 0
        if not 0.0 <= average <= 1.0:
            problems.append(f"average balanced accuracy {average}")
            failed.update(expected)
        for dataset, counts in self.meta["counts"].items():
            entry = datasets.get(dataset) or {}
            ba = entry.get("balanced_accuracy")
            if (
                entry.get("n_validation") != counts["validation"]
                or entry.get("n_test") != counts["test"]
                or not isinstance(ba, float)
                or not 0.0 <= ba <= 1.0
            ):
                problems.append(f"dataset {dataset}: {entry}")
                failed.update(r for r, e in expected.items() if e["dataset"] == dataset)
        self.val_scores = []
        seen: dict[str, int] = {}
        for row in csv.DictReader(csv_bytes.decode("utf-8").splitlines()):
            rid = row.get("record_id")
            seen[rid] = seen.get(rid, 0) + 1
            want = expected.get(rid)
            gold = "factual" if want and want["gold"] else "not_factual"
            try:
                score = float(row["score"])
            except (TypeError, ValueError):
                score = math.nan
            if (
                want is None
                or (row["dataset"], row["split"], row["gold_label"]) != (want["dataset"], want["split"], gold)
                or not -1.0 <= score <= 1.0
            ):
                problems.append(f"scores CSV row {rid!r} is wrong")
                failed.add(rid)
            elif want["split"] == "validation":
                self.val_scores.append((want["dataset"], row["score"]))
        for rid in expected:
            if seen.get(rid) != 1:
                failed.add(rid)
                problems.append(f"scores CSV has {seen.get(rid, 0)} rows for {rid}")
        if os.path.isdir(self.path(f"{tag}.cache")):
            problems += self._check_cache(tag)
        digest = hashlib.sha256(report_bytes + b"\0" + csv_bytes).hexdigest()
        return failed & set(expected), problems, digest, self.meta["claims"]

    def _check_cache(self, tag: str) -> list[str]:
        """The score cache a cold run wrote: one file, one entry per record."""
        files = os.listdir(self.path(f"{tag}.cache"))
        if len(files) != 1:
            return [f"cold run left {len(files)} files in its cache directory"]
        with open(self.path(f"{tag}.cache/{files[0]}"), encoding="utf-8") as fh:
            cached = json.load(fh)
        if sorted(cached) != sorted(self.meta["records"]):
            return ["score cache does not hold one entry per record"]
        return []

    def inputs(self) -> dict:
        """Share of distinct validation scores (at report precision), per dataset."""
        per_dataset: dict[str, set[str]] = {}
        for dataset, score in getattr(self, "val_scores", ()):
            per_dataset.setdefault(dataset, set()).add(score)
        out = {"input.over_budget_share": 0.0}
        if per_dataset:
            distinct = sum(len(s) for s in per_dataset.values())
            out["input.distinct_val_score_share"] = distinct / len(self.val_scores)
        return out


WORKLOADS = {w.name: w for w in (ScoreNews, BenchCold)}


class Bench:
    """One invocation: spawns fresh processes, checks their outputs."""

    def __init__(self, root: str, workload: Workload, args, deadline: float):
        self.src = os.path.join(root, "src")
        self.w = workload
        self.args = args
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.reference = speed.Reference()

    def spawn(self, mode: str, tag: str) -> dict:
        """Run the command (or only the import, for ``setup``) in a fresh process.

        ``scale`` in the result converts the run's seconds to nominal speed.
        """
        before = self.reference.seconds()
        argv = self.w.argv(tag) if mode != "setup" else []
        result_path = self.w.path(f"{tag}.result.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.src, "", mode,
               result_path, json.dumps(argv), str(self.args.batch_ms), str(self.args.unit_us)]
        with open(self.w.path(f"{tag}.stdout"), "wb") as out, open(self.w.path(f"{tag}.stderr"), "wb") as err:
            cmd[3] = repr(time.monotonic())
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.w.workdir)
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = {"code": proc.returncode or -1}
        result["rss_mib"] = usage.ru_maxrss / 1024.0
        result["scale"] = speed.NOMINAL_S / ((before + self.reference.seconds()) / 2)
        return result

    def run(self, mode: str, tag: str) -> dict | None:
        """Run the command once and check its output; ``None`` if it failed."""
        result = self.spawn(mode, tag)
        self.attempted += self.w.ops
        if result.get("code") != 0 or "work_s" not in result:
            self.failed += self.w.ops
            with open(self.w.path(f"{tag}.stderr"), encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:]
            self.problems.append(f"{tag}: exit {result.get('code')}: {tail}")
            return None
        try:
            failed, problems, digest, claims = self.w.check(tag)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.failed += self.w.ops
            self.problems.append(f"{tag}: output cannot be checked: {exc!r}")
            return None
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            # The warm run of bench-cold reads the first run's cache, so a stale cache shows here.
            problems.append("output differs from the first run of this seed")
            failed = set(self.w.meta.get("summaries") or self.w.meta["records"])
        self.failed += len(failed)
        self.problems += [f"{tag}: {p}" for p in problems]
        result["claims"] = claims
        result["digest"] = digest
        return result


def run_workload(root: str, name: str, args) -> tuple[dict, Bench]:
    started = time.monotonic()
    workdir = os.path.join(root, OUT_DIR, f"{name}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[name](workdir, args.seed)
        workload.generate()
        bench = Bench(root, workload, args, started + TIME_LIMIT_S)
        metrics: dict = {}
        # An untimed traced first run warms the file cache and the bytecode
        # cache, and counts the backend batches for the latency model.
        first = bench.run("trace", "trace0")
        model_s = first["model_s"] if first else None
        if first and name == "score-news" and first["counts"].get("nli.pairs", 0) != workload.backend_calls:
            bench.problems.append("trace0: nli.pairs differs from run-meta backend_calls")
        if first and name == "bench-cold":
            # Untimed: the same command on the cache the first run wrote, all hits.
            bench.run("time", "warm")
        timed = []
        until = time.monotonic() + args.seconds
        while not timed or time.monotonic() < until:
            result = bench.run("time", f"time{len(timed)}")
            if result is None:
                break
            timed.append(result)
        # More set-up samples from processes that only import the CLI.
        setups = [r["setup_s"] * r["scale"] for r in timed]
        while timed and len(setups) < SETUP_SAMPLES and time.monotonic() < bench.deadline - 10:
            result = bench.spawn("setup", f"setup{len(setups)}")
            setups.append(result["setup_s"] * result["scale"])
        if timed and model_s is not None:
            work = [r["work_s"] * r["scale"] for r in timed]
            ops, claims = workload.ops, timed[0]["claims"]
            metrics.update(
                {
                    "records_per_s": statistics.median([ops / w for w in work]),
                    "est_records_per_s": statistics.median([ops / (w + model_s) for w in work]),
                    "claims_per_s": statistics.median([claims / w for w in work]),
                    "est_claims_per_s": statistics.median([claims / (w + model_s) for w in work]),
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": statistics.median([r["rss_mib"] for r in timed]),
                    "work_s": statistics.median(work),
                    "raw_work_s": statistics.median([r["work_s"] for r in timed]),
                    "speed": statistics.median([r["scale"] for r in timed]),
                    "timed_runs": len(timed),
                    "nli.model_s": model_s,
                }
            )
        if args.trace and first:
            metrics.update(traced_metrics(bench, first, metrics.get("work_s")))
        metrics.update(input_metrics(workload))
        metrics["fail_rate"] = bench.failed / bench.attempted
        return metrics, bench
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_metrics(bench: Bench, first: dict, untimed_work_s: float | None) -> dict:
    """A second traced run, after the timed ones, gives the per-layer metrics.

    Its backend counts must repeat those of the first traced run exactly.
    """
    second = bench.run("trace", "trace1")
    if second is None:
        return {}
    nli_first = {k: v for k, v in first["counts"].items() if k.startswith("nli.")}
    nli_second = {k: v for k, v in second["counts"].items() if k.startswith("nli.")}
    if nli_first != nli_second or first["model_s"] != second["model_s"]:
        bench.problems.append(f"nli counts differ between traced runs: {nli_first} {nli_second}")
    spans = os.path.join(os.path.dirname(bench.w.workdir), f"spans-{bench.w.name}-seed{bench.w.seed}.json")
    os.replace(bench.w.path("trace1.spans.json"), spans)
    metrics = dict(second["metrics"])
    if untimed_work_s is not None:
        metrics["trace.overhead_s"] = second["work_s"] * second["scale"] - untimed_work_s
    metrics["missing"] = second["missing"]
    metrics["spans_file"] = os.path.relpath(spans)
    return metrics


def input_metrics(workload: Workload) -> dict:
    sentences = sorted(workload.meta["doc_sentences"])
    deciles = statistics.quantiles(sentences, n=10)
    out = {
        "input.doc_sentences_p10": deciles[0],
        "input.doc_sentences_p50": statistics.median(sentences),
        "input.doc_sentences_p90": deciles[-1],
        "input.summaries_per_doc": workload.meta["summaries_per_doc"],
    }
    out.update(workload.inputs())
    return out


def report(name: str, seed: int, metrics: dict, bench: Bench, spec: dict) -> dict:
    """Print every metric by name and unit; return the JSON metrics object."""
    per_layer = bool(bench.args.trace)
    wanted = spec["per_layer"] if per_layer else spec["end_to_end"]
    print(f"== {name} seed {seed}: {metrics.get('timed_runs', 0)} timed runs, "
          f"median work {metrics.get('work_s', float('nan')):.3f} s at nominal speed "
          f"({metrics.get('raw_work_s', float('nan')):.3f} s measured, "
          f"speed {metrics.get('speed', float('nan')):.2f} of nominal), "
          f"digest {(bench.digest or 'none')[:16]}")
    missing_e2e = [e["name"] for e in spec["end_to_end"] if metrics.get(e["name"]) is None]
    if not per_layer and missing_e2e:
        bench.problems.append(f"no value for {', '.join(missing_e2e)}")
    out = {}
    absent = []
    for entry in wanted:
        value = metrics.get(entry["name"])
        if value is None:
            # The result line holds every metric BENCHMARK.json names; a layer
            # that did no such work on this workload did zero of it.
            absent.append(entry["name"])
            value = 0
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<34} {value:>14.6g} {entry['unit']}")
    print(f"  {'fail_rate':<34} {metrics['fail_rate']:>14.6g} share "
          f"({bench.failed} of {bench.attempted} operations)")
    if per_layer:
        if absent:
            print(f"  absent, reported as 0 (layer not exercised or name gone): {', '.join(absent)}")
        if metrics.get("missing"):
            print(f"  names no longer in the program: {', '.join(metrics['missing'])}")
        if metrics.get("spans_file"):
            print(f"  spans: {metrics['spans_file']}")
    inputs = {
        k: v for k, v in metrics.items() if v is not None and (k.startswith("input.") or k in INPUT_SHARES)
    }
    print("  inputs: " + ", ".join(f"{k.split('.', 1)[1]}={v:.4g}" for k, v in sorted(inputs.items())))
    for problem in bench.problems[:20]:
        print(f"  PROBLEM {problem}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; {HELD_OUT_SEED} is held out for checking claims")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batch-ms", type=float, required=True,
                        help="modelled cost of one backend batch, in milliseconds")
    parser.add_argument("--unit-us", type=float, required=True,
                        help="modelled cost of one padded unit, in microseconds")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sumfact", "cli.py")):
        print("run from the root of a sumfact checkout: src/sumfact/cli.py not found", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    correct, attempted, failed, out = True, 0, 0, {}
    for name in names:
        metrics, bench = run_workload(root, name, args)
        reported = report(name, args.seed, metrics, bench, spec)
        correct = correct and not bench.problems and bench.failed == 0
        attempted += bench.attempted
        failed += bench.failed
        if len(names) == 1:
            out = reported
        else:
            out.update({f"{name}/{k}": v for k, v in reported.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
