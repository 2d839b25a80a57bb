"""Run one ``sumfact`` command in this fresh interpreter and record its timings.

Usage: child.py SRC SPAWN_T MODE RESULT ARGV_JSON BATCH_MS UNIT_US

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start-up and the import of
``sumfact.cli``. MODE is one of:

  setup  import the CLI and stop;
  time   run the command untraced;
  trace  run it with every layer wrapped, and write the spans beside RESULT.

The command goes through the public entry point, ``sumfact.cli.main`` with an
argv list. RESULT receives a JSON object with the exit code and timings.
"""

import time

import json
import sys


def main() -> None:
    src, spawn_t, mode, result_path, argv_json, batch_ms, unit_us = sys.argv[1:8]
    sys.path.insert(0, src)
    from sumfact import cli

    ready = time.monotonic()
    result = {"setup_s": ready - float(spawn_t)}
    if mode != "setup":
        recorder = None
        if mode == "trace":
            import tracing

            recorder = tracing.Recorder()
            tracing.install(recorder)
            root = recorder.open("cli.main")
        start = time.monotonic()
        try:
            cli.main(json.loads(argv_json), prog_name="sumfact")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        result["work_s"] = time.monotonic() - start
        result["code"] = code
        if recorder is not None:
            recorder.close(root)
            recorder.write_spans(result_path.replace(".result.json", ".spans.json"))
            result["metrics"] = tracing.layer_metrics(recorder, float(batch_ms), float(unit_us))
            result["missing"] = sorted(set(recorder.missing))
            result["counts"] = dict(recorder.counts)
            result["model_s"] = tracing.model_seconds(recorder.counts, float(batch_ms), float(unit_us))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
