"""Every name a ``sumfact`` module exports in ``__all__`` exists in it, no
module reads another's private names, and the CLI opens its outputs and
builds its config in one place each."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import sumfact

MODULES = sorted(f"sumfact.{m.name}" for m in pkgutil.iter_modules(sumfact.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    package = Path(sumfact.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # Names bound to sibling modules by ``from . import m``.
        siblings = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.name}:{node.lineno}" for a in node.names if _private(a.name)]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and _private(node.attr)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _calls_by_function(path):
    """``(top-level function, called name)`` for every call of a bare name."""
    calls = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        calls += [
            (owner, node.func.id)
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        ]
    return calls


CLI_CALLS = _calls_by_function(Path(sumfact.__file__).parent / "cli.py")


def test_cli_opens_files_only_in_output():
    # Every output goes through ``_output``, so ``-`` is stdout for each one.
    assert [owner for owner, name in CLI_CALLS if name == "open"] == ["_output"]


def test_cli_builds_configs_only_in_the_prologue():
    # The prologue builds the config, then checks the outputs against it.
    assert [owner for owner, name in CLI_CALLS if name == "load_run_config"] == ["handle_errors"]


# Names ``perfbench/tracing.py`` wraps that the program no longer has; their
# spans and metrics are absent from a traced run.
PERFBENCH_GONE = {
    "formats.load_documents",
    "formats.load_summaries",
    "pipeline.build_units",
    "pipeline.evaluate_pair",
    "Scorer.score_summary",
    "Scorer.score_claim",
    "Scorer.score_sentences",
    "Scorer.score_coref",
    "Scorer._multi",
    "Scorer._window_stage",
    "Scorer._window_premises",
    "Scorer._score_many",
    "EntailmentBackend.entail_batch",
}


def test_perfbench_loses_no_more_traced_names():
    # Read ``TARGETS`` without ``install``, which would wrap live functions;
    # resolve each target as ``Recorder.wrap`` does.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = set()
    for module_name, class_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"sumfact.{module_name}")
        owner = getattr(module, class_name, None) if class_name else module
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(fn):
            unresolved.add(f"{class_name or module_name}.{attr}")
    assert unresolved <= PERFBENCH_GONE
