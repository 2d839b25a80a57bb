"""Prompt construction, output parsing, and the claim-extraction backends."""

import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from sumfact import (
    PROMPT_TEMPLATE_ID,
    Claim,
    ClaimCacheMiss,
    ExtractorUnavailable,
    FileCacheExtractor,
    LocalSeq2SeqExtractor,
    MalformedClaimOutput,
    RemoteLlmExtractor,
    Summary,
    RunConfig,
    build_prompt,
    parse_claims,
)
from sumfact.pipeline import make_claim_extractor

from cases import from_text
from stubserver import StubServer, dead_url


def summary(text="The rover found evidence of water. The mission continues.", sid="s1"):
    return from_text(Summary, sid, "d1", text)


class TestPrompt:
    def test_template_id_and_determinism(self):
        s = summary()
        assert PROMPT_TEMPLATE_ID == "atomic-claims/v1"
        assert build_prompt(s) == build_prompt(s)

    def test_contains_definition_and_worked_example(self):
        rendered = build_prompt(summary())
        assert (
            'an "elementary information unit in a sentence, which no longer '
            'needs to be further split."' in rendered
        )
        assert "NASA's Perseverance rover" in rendered
        assert '"The study was published in the journal Science."' in rendered
        assert rendered.count("INPUT:") == 2
        assert rendered.count("OUTPUT:") == 2

    def test_example_output_is_literal_json(self):
        rendered = build_prompt(summary())
        assert '{"claims": [' in rendered  # brace escaping survived .format()

    def test_summary_inserted_verbatim_once(self):
        marker = "Xylophones quivered under ultraviolet drizzle."
        rendered = build_prompt(summary(marker))
        assert rendered.count(marker) == 1

    def test_ends_at_output_slot(self):
        assert build_prompt(summary()).rstrip().endswith("OUTPUT:")


class TestParseClaims:
    def test_well_formed_json(self):
        claims = parse_claims('{"claims": ["A cat sat.", "A dog ran."]}', "s1")
        assert [c.text for c in claims] == ["A cat sat.", "A dog ran."]
        assert [c.index for c in claims] == [0, 1]
        assert all(c.summary_id == "s1" for c in claims)

    def test_normalization_and_dedup(self):
        claims = parse_claims('{"claims": ["The  cat.", "The cat.", " "]}', "s1")
        assert [c.text for c in claims] == ["The cat."]

    def test_surrounding_prose_stripped(self):
        raw = 'Sure! Here you go:\n{"claims": ["X runs."]}\nHope that helps.'
        assert [c.text for c in parse_claims(raw, "s1")] == ["X runs."]

    def test_python_literal_recovered(self):
        raw = "{'claims': ['A cat sat.', 'A dog ran.']}"
        assert len(parse_claims(raw, "s1")) == 2

    def test_line_fallback(self):
        raw = "The cat sat.\nno terminal on this line\nThe dog ran!\n"
        assert [c.text for c in parse_claims(raw, "s1")] == ["The cat sat.", "The dog ran!"]

    def test_unparseable_raises_malformed(self):
        with pytest.raises(MalformedClaimOutput, match="s1"):
            parse_claims("completely unusable output", "s1")

    def test_wrong_claims_type_falls_through_to_malformed(self):
        with pytest.raises(MalformedClaimOutput):
            parse_claims('{"claims": [1, 2]}', "s1")

    def test_empty_claims_array(self):
        assert parse_claims('{"claims": []}', "s1") == []

    def test_whitespace_only_claims(self):
        assert parse_claims('{"claims": ["   ", ""]}', "s1") == []

    def test_braces_inside_claim_text(self):
        claims = parse_claims('{"claims": ["Uses {braces} fine."]}', "s1")
        assert claims[0].text == "Uses {braces} fine."


class TestFileCacheExtractor:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "claims.json"
        path.write_text(json.dumps({"s1": ["A cat sat.", "A dog ran."]}))
        extractor = make_claim_extractor(RunConfig(claim_backend=f"cache:{path}"))
        with pytest.raises(ClaimCacheMiss, match="no entry for summary 's2'"):
            extractor.extract(summary(sid="s2"))
        claims = extractor.extract(summary())
        assert [c.text for c in claims] == ["A cat sat.", "A dog ran."]
        assert claims == [Claim("s1", 0, "A cat sat."), Claim("s1", 1, "A dog ran.")]
        assert extractor.describe() == f"cache:{path}"

    def test_miss_raises(self, tmp_path):
        path = tmp_path / "claims.json"
        path.write_text("{}")
        with pytest.raises(ClaimCacheMiss, match="s1"):
            make_claim_extractor(RunConfig(claim_backend=f"cache:{path}")).extract(summary())

    def test_empty_entry_raises(self):
        assert FileCacheExtractor({"s1": []}).extract(summary()) == []


def envelope(content):
    return {"choices": [{"message": {"content": content}}]}


@pytest.mark.usefixtures("fast_retries")
class TestRemoteLlmExtractor:
    def test_success_and_request_shape(self):
        def handler(path, body, headers):
            return 200, envelope('{"claims": ["A cat sat."]}')

        with StubServer(handler) as server:
            extractor = RemoteLlmExtractor(server.url, model="m-1")
            claims = extractor.extract(summary())
            assert [c.text for c in claims] == ["A cat sat."]
            body = server.requests[0]["body"]
            assert body["model"] == "m-1"
            assert body["temperature"] == 0.0
            assert len(body["messages"]) == 1
            assert summary().text in body["messages"][0]["content"]
            assert "Authorization" not in server.requests[0]["headers"]

    def test_credential_from_named_env_var(self, monkeypatch):
        monkeypatch.setenv("OTHER_KEY_VAR", "sekret-token")

        def handler(path, body, headers):
            return 200, envelope('{"claims": ["A cat sat."]}')

        with StubServer(handler) as server:
            extractor = RemoteLlmExtractor(server.url, api_key_env="OTHER_KEY_VAR")
            extractor.extract(summary())
            assert server.requests[0]["headers"]["Authorization"] == "Bearer sekret-token"

    def test_secret_never_logged(self, monkeypatch, caplog):
        monkeypatch.setenv("SUMFACT_API_KEY", "sekret-token")

        def handler(path, body, headers):
            return 200, envelope('{"claims": ["A cat sat."]}')

        with caplog.at_level(logging.DEBUG, logger="sumfact.claims"):
            with StubServer(handler) as server:
                RemoteLlmExtractor(server.url).extract(summary())
        text = "\n".join(r.getMessage() for r in caplog.records)
        assert "<redacted>" in text
        assert "sekret-token" not in text

    def test_retries_5xx_then_succeeds(self):
        state = {"calls": 0}

        def handler(path, body, headers):
            state["calls"] += 1
            if state["calls"] < 3:
                return 503, {"error": "busy"}
            return 200, envelope('{"claims": ["A cat sat."]}')

        with StubServer(handler) as server:
            extractor = RemoteLlmExtractor(server.url, max_retries=2)
            assert len(extractor.extract(summary())) == 1
            assert state["calls"] == 3

    def test_retries_429(self):
        state = {"calls": 0}

        def handler(path, body, headers):
            state["calls"] += 1
            if state["calls"] == 1:
                return 429, {"error": "slow down"}
            return 200, envelope('{"claims": ["A cat sat."]}')

        with StubServer(handler) as server:
            RemoteLlmExtractor(server.url, max_retries=1).extract(summary())
            assert state["calls"] == 2

    def test_gives_up_after_max_retries_plus_one(self):
        def handler(path, body, headers):
            return 503, {"error": "down"}

        with StubServer(handler) as server:
            extractor = RemoteLlmExtractor(server.url, max_retries=1)
            with pytest.raises(ExtractorUnavailable, match="2 attempts"):
                extractor.extract(summary())
            assert len(server.requests) == 2

    def test_client_error_fails_fast(self):
        def handler(path, body, headers):
            return 403, {"error": "forbidden"}

        with StubServer(handler) as server:
            extractor = RemoteLlmExtractor(server.url, max_retries=3)
            with pytest.raises(ExtractorUnavailable, match="403"):
                extractor.extract(summary())
            assert len(server.requests) == 1

    def test_each_thread_posts_with_its_own_session(self, monkeypatch):
        import requests

        users = {}

        class Recording(requests.Session):
            def post(self, *args, **kwargs):
                users.setdefault(id(self), set()).add(threading.get_ident())
                return super().post(*args, **kwargs)

        def handler(path, body, headers):
            return 200, envelope('{"claims": ["A cat sat."]}')

        monkeypatch.setattr(requests, "Session", Recording)
        summaries = [summary(sid=f"s{i}") for i in range(9)]
        with StubServer(handler) as server:
            extractor = RemoteLlmExtractor(server.url)
            with ThreadPoolExecutor(max_workers=3) as pool:
                claims = list(pool.map(extractor.extract, summaries))
            assert claims == [[Claim(f"s{i}", 0, "A cat sat.")] for i in range(9)]
            assert users and all(len(threads) == 1 for threads in users.values())
            # An injected session serves every thread.
            users.clear()
            extractor = RemoteLlmExtractor(server.url, session=Recording())
            with ThreadPoolExecutor(max_workers=3) as pool:
                list(pool.map(extractor.extract, summaries))
            assert len(users) == 1
        assert len(server.requests) == 18

    def test_malformed_envelope(self):
        # A content that is not a string is malformed too, not a crash.
        payloads = [{"nope": 1}, envelope(None), envelope(3), envelope(["A cat sat."])]
        with StubServer(lambda *a: (200, payloads[len(server.requests) - 1])) as server:
            for _ in payloads:
                with pytest.raises(ExtractorUnavailable, match="malformed completion envelope"):
                    RemoteLlmExtractor(server.url).extract(summary())
            assert len(server.requests) == len(payloads)

    def test_unreachable_endpoint(self):
        extractor = RemoteLlmExtractor(dead_url(), max_retries=0)
        with pytest.raises(ExtractorUnavailable, match="1 attempts"):
            extractor.extract(summary())

    def test_describe_mentions_target_and_model(self):
        extractor = RemoteLlmExtractor("http://example.invalid/", model="m")
        assert "http://example.invalid/" in extractor.describe()
        assert "#m" in extractor.describe()
        assert extractor.describe() == "remote-llm:http://example.invalid/#m@t=0.0"


class TestLocalSeq2SeqExtractor:
    def test_injected_generate(self):
        extractor = LocalSeq2SeqExtractor(
            "fake-model", generate=lambda text: '{"claims": ["A cat sat."]}'
        )
        assert [c.text for c in extractor.extract(summary())] == ["A cat sat."]
        assert extractor.describe() == "local-seq2seq:fake-model"

    def test_generate_failure_wrapped(self):
        def broken(text):
            raise RuntimeError("no weights")

        extractor = LocalSeq2SeqExtractor("fake-model", generate=broken)
        with pytest.raises(ExtractorUnavailable, match="s1"):
            extractor.extract(summary())

