"""Run configuration: one JSON file plus CLI flag overrides.

Every flag has a config-file key of the same meaning; precedence is
flag > config file > built-in default. Credentials never live here, only the
name of the environment variable holding them. ``workers`` reaches a
scoring run once, as the NLI backend's, which claim extraction shares too.
``MODES`` is the one table of the ablation modes, which validation, the
pipeline and the CLI all read.

A :class:`RunConfig` is valid by construction: it checks every key when it
is built and is frozen after. Backend selectors are compact ``kind`` or
``kind:value`` strings, and ``_SELECTORS`` is the one table of their
grammar: each selector's kinds, and what a kind's value names. The
factories in :mod:`~sumfact.pipeline` only build what it allows, and
:attr:`RunConfig.reads` lists the values that name a file the run reads
(``cache:<path>``), so a command can refuse an output onto one.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Mapping

from .benchmark import PROTOCOLS
from .errors import InputError
from .nli import MIN_UNITS
from .scoring import ScoringParams, Stop

__all__ = ["RunConfig", "load_run_config", "scoring_params", "MODES", "MODE_ALIASES", "PROTOCOLS"]

# For each mode: whether it scores the summary's sentences verbatim instead
# of its resolved claims, and where it stops the one scoring pipeline
# (``None`` runs it to the end).
MODES: dict[str, tuple[bool, Stop | None]] = {
    "full": (False, None),
    "nli_sent": (True, "sentence"),
    "nli_claim": (False, "sentence"),
    "nli_coref": (False, "coref"),
}

_LOG_LEVELS = ("error", "warning", "info", "debug")

# What a kind's value names when it is a file the run reads.
_READ_FILE = "a file path"

# For each backend selector key: its kinds, in the order errors list them,
# and what the value after a kind's ``:`` names ("" for a kind taking none).
_SELECTORS: dict[str, dict[str, str]] = {
    "nli_backend": {"mock": "", "local": "a checkpoint name or path", "remote": "a URL"},
    "claim_backend": {
        "none": "", "cache": _READ_FILE, "remote": "a URL", "local": "a model name or path"
    },
    "coref_backend": {"none": "", "heuristic": ""},
}

# The full pipeline also answers to this historical alias on the CLI.
MODE_ALIASES = {"fenice": "full"}


@dataclass(frozen=True)
class RunConfig:
    nli_backend: str = "mock"
    nli_batch_size: int = 32
    nli_max_units: int | None = None
    claim_backend: str = "none"
    claim_model: str | None = None
    claim_api_key_env: str = "SUMFACT_API_KEY"
    claim_timeout: float = 60.0
    claim_max_retries: int = 2
    claim_max_tokens: int = 1024
    coref_backend: str = "none"
    coref_max_sentences: int | None = None
    window_size: int = 5
    gate_threshold: float = 0.8
    max_coref_variants: int = 20
    monotone_gate: bool = False
    workers: int = 1
    cache_dir: str | None = None
    bootstrap_seed: int | None = 0
    bootstrap_resamples: int = 1000
    protocol: str = "per_split"
    mode: str = "full"
    log_level: str = "warning"

    def __post_init__(self) -> None:
        try:
            scoring_params(self)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if self.workers < 1:
            raise InputError("workers must be >= 1")
        if self.nli_batch_size < 1:
            raise InputError("nli_batch_size must be >= 1")
        if self.protocol not in PROTOCOLS:
            raise InputError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        if not 0 <= self.claim_max_retries <= 5:
            raise InputError("claim_max_retries must be between 0 and 5")
        if not (math.isfinite(self.claim_timeout) and self.claim_timeout > 0):
            raise InputError(f"claim_timeout must be finite and above 0, got {self.claim_timeout}")
        if self.claim_max_tokens < 1:
            raise InputError("claim_max_tokens must be >= 1")
        if self.bootstrap_resamples < 1:
            raise InputError("bootstrap_resamples must be >= 1")
        if str(self.log_level).lower() not in _LOG_LEVELS:
            raise InputError(f"log_level must be one of {_LOG_LEVELS}, got {self.log_level!r}")
        for key, kinds in _SELECTORS.items():
            selector = getattr(self, key)
            kind, colon, value = selector.partition(":")
            if kind not in kinds:
                raise InputError(
                    f"backend selector {selector!r}: kind must be one of {tuple(kinds)}"
                )
            if kinds[kind] and not value:
                raise InputError(f"{key} '{kind}:' needs {kinds[kind]}")
            if colon and not kinds[kind]:
                raise InputError(f"{key} {selector!r}: kind {kind!r} takes no value")
        if self.nli_max_units and self.nli_max_units < MIN_UNITS:  # 0, like None: unlimited
            raise InputError(
                f"nli_max_units: budget below {MIN_UNITS} units cannot fit any useful pair"
            )
        if self.coref_max_sentences is not None and self.coref_max_sentences < 1:
            raise InputError("coref_max_sentences: max_sentences must be >= 1 when set")

    @property
    def reads(self) -> tuple[str, ...]:
        """The files its selectors name for the run to read, whether or not
        the command's mode reads them."""
        selectors = ((kinds, getattr(self, key).partition(":")) for key, kinds in _SELECTORS.items())
        return tuple(value for kinds, (kind, _, value) in selectors if kinds[kind] == _READ_FILE)


def scoring_params(config: RunConfig) -> ScoringParams:
    return ScoringParams(
        window_size=config.window_size,
        gate_threshold=config.gate_threshold,
        max_coref_variants=config.max_coref_variants,
        monotone_gate=config.monotone_gate,
    )


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, value: object) -> object:
    """Light type coercion so config files and flags can both be loose."""
    kind = _FIELDS[name].type
    if value is None:
        if not kind.endswith("| None"):
            raise InputError(f"config key '{name}': null is not allowed")
        return None
    try:
        if kind in ("int", "int | None", "float") and isinstance(value, bool):
            raise ValueError(f"not a number: {value!r}")
        if kind == "int" or kind == "int | None":
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"not an integer: {value!r}")
            return int(value)  # type: ignore[call-overload]
        if kind == "float":
            return float(value)  # type: ignore[arg-type]
        if kind == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                if value.lower() in ("true", "1", "yes"):
                    return True
                if value.lower() in ("false", "0", "no"):
                    return False
            raise ValueError(f"not a boolean: {value!r}")
        if not isinstance(value, str):
            raise ValueError(f"not a string: {value!r}")
        return value
    except (TypeError, ValueError) as exc:
        raise InputError(f"config key '{name}': {exc}") from exc


def load_run_config(
    path: str | None = None, overrides: Mapping[str, object] | None = None
) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, then overrides.

    Override values of ``None`` mean "not given" and are skipped, so CLI
    flags can default to ``None`` without clobbering file settings. Unknown
    keys anywhere are hard errors; silent typos burn too much compute.
    """
    values: dict[str, object] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot open config {path}: {exc}") from exc
        except ValueError as exc:
            raise InputError(f"config {path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError(f"config {path}: expected a JSON object")
        for key, value in data.items():
            if key not in _FIELDS:
                raise InputError(f"config {path}: unknown key {key!r}")
            values[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise InputError(f"unknown config override {key!r}")
        values[key] = _coerce(key, value)
    if "mode" in values:
        values["mode"] = MODE_ALIASES.get(str(values["mode"]), values["mode"])
    return RunConfig(**values)  # type: ignore[arg-type]
