"""Run configuration: defaults, file loading, flag precedence, validation."""

import dataclasses
import json
import re
import threading
from pathlib import Path

import pytest

from sumfact import InputError, RunConfig, load_run_config
from sumfact.pipeline import ordered_map


def config_file(tmp_path, **values):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_built_in_values(self):
        config = RunConfig()
        assert config.nli_backend == "mock"
        assert config.claim_backend == "none"
        assert config.coref_backend == "none"
        assert config.window_size == 5
        assert config.gate_threshold == 0.8
        assert config.max_coref_variants == 20
        assert config.monotone_gate is False
        assert config.workers == 1
        assert config.protocol == "per_split"
        assert config.mode == "full"
        assert config.claim_api_key_env == "SUMFACT_API_KEY"
        assert config.cache_dir is None

    def test_no_file_no_overrides(self):
        assert load_run_config() == RunConfig()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().workers = 4


class TestReadmeKeys:
    def test_all_keys_table_lists_exactly_the_fields(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("Unknown keys are errors. All keys:", 1)[1].split("\n\n", 2)[1]
        keys = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
        assert keys == [f.name for f in dataclasses.fields(RunConfig)]


class TestFileLoading:
    def test_values_applied(self, tmp_path):
        path = config_file(tmp_path, window_size=3, gate_threshold=0.5, mode="nli_claim")
        config = load_run_config(path)
        assert config.window_size == 3
        assert config.gate_threshold == 0.5
        assert config.mode == "nli_claim"

    def test_unknown_key_rejected(self, tmp_path):
        path = config_file(tmp_path, windowsize=3)
        with pytest.raises(InputError, match="unknown key 'windowsize'"):
            load_run_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot open config"):
            load_run_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{nope")
        with pytest.raises(InputError, match="invalid JSON"):
            load_run_config(str(path))

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(InputError, match="expected a JSON object"):
            load_run_config(str(path))


class TestPrecedence:
    def test_flag_beats_file(self, tmp_path):
        path = config_file(tmp_path, gate_threshold=0.5)
        config = load_run_config(path, {"gate_threshold": 0.9})
        assert config.gate_threshold == 0.9

    def test_none_override_is_not_given(self, tmp_path):
        path = config_file(tmp_path, gate_threshold=0.5)
        config = load_run_config(path, {"gate_threshold": None, "window_size": None})
        assert config.gate_threshold == 0.5
        assert config.window_size == 5  # built-in default survives

    def test_unknown_override_rejected(self):
        with pytest.raises(InputError, match="unknown config override 'jj'"):
            load_run_config(None, {"jj": 3})


class TestCoercion:
    def test_string_numbers(self, tmp_path):
        path = config_file(tmp_path, window_size="7", gate_threshold="0.25")
        config = load_run_config(path)
        assert config.window_size == 7
        assert config.gate_threshold == 0.25

    def test_integral_float_and_level_case(self):
        config = load_run_config(None, {"window_size": 3.0, "log_level": "DEBUG"})
        assert config.window_size == 3 and type(config.window_size) is int
        assert config.log_level == "DEBUG"

    def test_optional_int(self, tmp_path):
        path = config_file(tmp_path, nli_max_units="128")
        assert load_run_config(path).nli_max_units == 128

    @pytest.mark.parametrize(
        "raw,expected", [("true", True), ("no", False), ("1", True), (True, True), (False, False)]
    )
    def test_bool_strings(self, raw, expected):
        config = load_run_config(None, {"monotone_gate": raw})
        assert config.monotone_gate is expected

    def test_bad_bool(self):
        with pytest.raises(InputError, match="config key 'monotone_gate'"):
            load_run_config(None, {"monotone_gate": "maybe"})

    def test_bad_int(self):
        with pytest.raises(InputError, match="config key 'workers'"):
            load_run_config(None, {"workers": "lots"})


class TestModeAlias:
    def test_historical_name_maps_to_full(self, tmp_path):
        assert load_run_config(None, {"mode": "fenice"}).mode == "full"
        path = config_file(tmp_path, mode="fenice")
        assert load_run_config(path).mode == "full"

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError, match="mode must be one of"):
            load_run_config(None, {"mode": "fast"})


class TestValidation:
    @pytest.mark.parametrize(
        "overrides,needle",
        [
            ({"window_size": 0}, "window_size"),
            ({"gate_threshold": 1.5}, "gate_threshold"),
            ({"max_coref_variants": 0}, "max_coref_variants"),
            ({"workers": 0}, "workers"),
            ({"nli_batch_size": 0}, "nli_batch_size"),
            ({"protocol": "loocv"}, "protocol"),
            ({"bootstrap_resamples": 0}, "bootstrap_resamples"),
            ({"nli_backend": "quantum:x"}, "backend selector"),
            ({"claim_backend": "ftp:x"}, "backend selector"),
            ({"coref_backend": "neural"}, "backend selector"),
            ({"log_level": "basic_format"}, "log_level must be one of"),
            ({"log_level": "verbose"}, "log_level must be one of"),
            ({"window_size": 2.9}, "config key 'window_size': not an integer"),
            ({"workers": True}, "config key 'workers': not a number"),
            ({"nli_max_units": False}, "config key 'nli_max_units': not a number"),
            ({"gate_threshold": True}, "config key 'gate_threshold': not a number"),
            ({"workers": None}, "config key 'workers': null is not allowed"),
            ({"claim_backend": None}, "config key 'claim_backend': null is not allowed"),
            ({"window_size": None}, "config key 'window_size': null is not allowed"),
            ({"cache_dir": ["a"]}, "config key 'cache_dir': not a string"),
            ({"claim_model": {"x": 1}}, "config key 'claim_model': not a string"),
            ({"claim_api_key_env": 5}, "config key 'claim_api_key_env': not a string"),
            ({"claim_max_retries": 9}, "claim_max_retries"),
            ({"claim_max_retries": -1}, "claim_max_retries"),
            ({"claim_timeout": 0}, "claim_timeout"),
            ({"claim_max_tokens": 0}, "claim_max_tokens"),
        ],
    )
    def test_rejections(self, tmp_path, overrides, needle):
        with pytest.raises(InputError, match=needle):
            load_run_config(config_file(tmp_path, **overrides))
        if None not in overrides.values():  # a None override means "flag not given"
            with pytest.raises(InputError, match=needle):
                load_run_config(None, overrides)

    @pytest.mark.parametrize(
        "key",
        ["nli_max_units", "claim_model", "coref_max_sentences", "cache_dir", "bootstrap_seed"],
    )
    def test_null_allowed_for_optional_keys(self, tmp_path, key):
        assert getattr(load_run_config(config_file(tmp_path, **{key: None})), key) is None

    def test_selector_kinds_accepted(self):
        config = load_run_config(
            None,
            {
                "nli_backend": "remote:http://localhost:9",
                "claim_backend": "cache:/tmp/claims.json",
                "coref_backend": "heuristic",
            },
        )
        assert config.nli_backend.startswith("remote:")


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_keep_input_order(self, workers):
        assert list(ordered_map(lambda x: x * x, range(50), workers)) == [
            x * x for x in range(50)
        ]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_source_failure_comes_after_every_result_before_it(self, workers):
        # As with ``map``, the items taken before the source fails are all
        # yielded, then its error is raised.
        def items():
            yield from range(10)
            raise KeyError("source")

        got = []
        with pytest.raises(KeyError, match="source"):
            for result in ordered_map(lambda x: x * x, items(), workers):
                got.append(result)
        assert got == [x * x for x in range(10)]

    def test_pulls_at_most_two_items_per_worker_ahead(self):
        pulled = []

        def items():
            for i in range(1000):
                pulled.append(i)
                yield i

        results = ordered_map(lambda x: x, items(), 3)
        assert next(results) == 0
        assert len(pulled) <= 6
        results.close()
        assert len(pulled) <= 6

    def test_earliest_failure_raises_first(self):
        # Item 5 fails before item 4 does; item 4's error still comes first.
        later_failed = threading.Event()

        def fn(x):
            if x == 4:
                later_failed.wait(timeout=5)
                raise ValueError("item 4")
            if x == 5:
                later_failed.set()
                raise KeyError("item 5")
            return x

        results = ordered_map(fn, range(10), 3)
        assert [next(results) for _ in range(4)] == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="item 4"):
            next(results)

    def test_close_cancels_pending_items(self):
        started = []
        release = threading.Event()

        def fn(x):
            started.append(x)
            if x == 0:
                return x
            release.wait(timeout=5)
            return x

        results = ordered_map(fn, range(100), 2)
        assert next(results) == 0
        release.set()
        results.close()
        assert len(started) <= 4
