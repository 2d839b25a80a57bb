"""Claim extraction: turn a summary into a list of atomic claims.

The prompt template is frozen: its wording is part of the scoring contract
and changing it invalidates cached extractions, so it is versioned by
``PROMPT_TEMPLATE_ID`` and never built dynamically. Extraction backends are a
JSON file cache (exact reproduction of a prior run), a remote chat-completion
endpoint, and a local seq2seq model; all three feed the same tolerant parser.
"""

from __future__ import annotations

import ast
import hashlib
import json
import logging
import os
from typing import TYPE_CHECKING, Callable, Mapping, Protocol

from .documents import Claim, Summary, build_claims
from .errors import ClaimCacheMiss, ExtractorUnavailable, MalformedClaimOutput
from .remote import JsonService

if TYPE_CHECKING:
    import requests

__all__ = [
    "PROMPT_TEMPLATE_ID",
    "ClaimExtractor",
    "FileCacheExtractor",
    "RemoteLlmExtractor",
    "LocalSeq2SeqExtractor",
    "build_prompt",
    "parse_claims",
]

logger = logging.getLogger("sumfact.claims")

PROMPT_TEMPLATE_ID = "atomic-claims/v1"

_PROMPT = '''We define a claim as an "elementary information unit in a sentence, which no longer needs to be further split."
For example, given the following sentence:
INPUT:
"NASA's Perseverance rover has discovered ancient microbial life on Mars according to a recent study published in the journal Science. It established a set of new paradigms for space exploration"

OUTPUT:
{{"claims": ["NASA's Perseverance rover discovered ancient microbial life.", "Ancient microbial life was discovered on Mars.", "The discovery was made according to a recent study.", "The study was published in the journal Science.", "The study established a set of new paradigms for space exploration."]}}

Recommendations:
- Please consider not repeating the subject in the claims.
- If possible, use a noun as the subject in the claim (avoid pronouns).
- Do not generate any novel word, be faithful to the provided input.
- Your response must be only the JSON object, without any other text or explanation.
- Each fact expressed in the source text must be present in the output.

Now do this task for this input:
INPUT:
{summary}

OUTPUT:
'''


def build_prompt(summary: Summary) -> str:
    """Render the fixed template with the summary text appended verbatim."""
    return _PROMPT.format(summary=summary.text)


def _outer_braces(raw: str) -> str | None:
    lo = raw.find("{")
    hi = raw.rfind("}")
    if lo == -1 or hi <= lo:
        return None
    return raw[lo : hi + 1]


def _claims_field(obj: object) -> list[str] | None:
    if isinstance(obj, dict):
        claims = obj.get("claims")
        if isinstance(claims, list) and all(isinstance(c, str) for c in claims):
            return claims
    return None


def parse_claims(raw: str, summary_id: str) -> list[Claim]:
    """Parse extractor output into normalized, deduplicated claims.

    Primary format is a JSON object with a string-array ``claims`` field.
    Recovery routes, in order: strip text around the outermost braces, then
    retry as a Python literal (models often emit single-quoted dicts), then
    fall back to one claim per non-empty line ending in sentence punctuation.
    A successfully parsed claim list with no usable text returns ``[]``;
    output no route can parse raises :class:`MalformedClaimOutput`.
    """
    candidates = []
    stripped = raw.strip()
    if stripped:
        candidates.append(stripped)
    trimmed = _outer_braces(raw)
    if trimmed is not None and trimmed not in candidates:
        candidates.append(trimmed)
    texts: list[str] | None = None
    for candidate in candidates:
        for load in (json.loads, ast.literal_eval):
            try:
                parsed = load(candidate)
            except Exception:
                continue
            texts = _claims_field(parsed)
            if texts is not None:
                break
        if texts is not None:
            break
    if texts is None:
        lines = [line.strip() for line in raw.splitlines()]
        texts = [line for line in lines if line and line[-1] in ".!?"]
        if not texts:
            raise MalformedClaimOutput(
                f"summary '{summary_id}': extractor output is neither a JSON object "
                "with a 'claims' string array nor lines of sentence-like claims"
            )
    return build_claims(summary_id, texts)


class ClaimExtractor(Protocol):
    def extract(self, summary: Summary) -> list[Claim]: ...

    def describe(self) -> str: ...


class FileCacheExtractor:
    """Serve claims from a dict of summary id to claim texts, as loaded
    by ``formats.load_claim_cache``. It holds the caller's dict, not a copy."""

    def __init__(self, cache: dict[str, list[str]], source: str = "inline"):
        self._cache = cache
        self._source = source

    def describe(self) -> str:
        return f"cache:{self._source}"

    def digest(self) -> str:
        """Hex digest of the cached claims, so an edited claim file reads as new."""
        canonical = json.dumps(self._cache, sort_keys=True).encode("ascii")
        return hashlib.blake2b(canonical, digest_size=16).hexdigest()

    def extract(self, summary: Summary) -> list[Claim]:
        if summary.id not in self._cache:
            raise ClaimCacheMiss(f"claim cache has no entry for summary '{summary.id}'")
        return build_claims(summary.id, self._cache[summary.id])


def _redact(headers: Mapping[str, str]) -> dict[str, str]:
    return {
        k: ("<redacted>" if k.lower() in ("authorization", "api-key", "x-api-key") else v)
        for k, v in headers.items()
    }


class RemoteLlmExtractor:
    """Chat-completion client for claim extraction.

    Posts the rendered prompt as a single user message with temperature 0
    through :mod:`sumfact.remote`, with ``max_retries`` retries. The key is
    read from the environment variable ``api_key_env`` and never logged.
    """

    def __init__(
        self,
        url: str,
        *,
        model: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 2,
        api_key_env: str = "SUMFACT_API_KEY",
        max_tokens: int = 1024,
        session: requests.Session | None = None,
    ):
        self.model = model
        self.api_key_env = api_key_env
        self.max_tokens = max_tokens
        self.service = JsonService(
            url,
            "extraction endpoint",
            ExtractorUnavailable,
            timeout=timeout,
            retries=max_retries,
            session=session,
        )

    def describe(self) -> str:
        return f"remote-llm:{self.service.url}#{self.model or 'default'}@t=0.0"

    def extract(self, summary: Summary) -> list[Claim]:
        return parse_claims(self._complete(build_prompt(summary), summary.id), summary.id)

    def _complete(self, prompt: str, summary_id: str) -> str:
        body = {
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
            "max_tokens": self.max_tokens,
        }
        if self.model:
            body["model"] = self.model
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        logger.debug(
            json.dumps(
                {
                    "event": "claim_request",
                    "summary_id": summary_id,
                    "url": self.service.url,
                    "headers": _redact(headers),
                    "body": body,
                }
            )
        )
        prefix = f"summary '{summary_id}': "
        payload = self.service.post(body, headers, prefix)
        try:
            content = payload["choices"][0]["message"]["content"]  # type: ignore[index]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not a string")
        except (LookupError, TypeError) as exc:
            raise ExtractorUnavailable(f"{prefix}malformed completion envelope: {exc}") from exc
        logger.debug(
            json.dumps({"event": "claim_response", "summary_id": summary_id, "content": content})
        )
        return content


class LocalSeq2SeqExtractor:
    """Local text-to-text model honoring the summary-in / claims-JSON-out
    contract. A ``generate`` callable can be injected for tests; otherwise a
    transformers text2text pipeline is loaded lazily on first use."""

    def __init__(self, model_id: str, generate: Callable[[str], str] | None = None):
        self.model_id = model_id
        self._generate = generate

    def describe(self) -> str:
        return f"local-seq2seq:{self.model_id}"

    def _ensure(self) -> Callable[[str], str]:
        if self._generate is None:
            try:
                from transformers import pipeline  # type: ignore
            except ImportError as exc:
                raise ExtractorUnavailable(
                    "the local-seq2seq backend needs the 'transformers' package; "
                    "install the [models] extra"
                ) from exc
            runner = pipeline("text2text-generation", model=self.model_id)

            def generate(text: str) -> str:
                return runner(text, max_length=1024)[0]["generated_text"]

            self._generate = generate
        return self._generate

    def extract(self, summary: Summary) -> list[Claim]:
        generate = self._ensure()
        try:
            raw = generate(summary.text)
        except Exception as exc:
            raise ExtractorUnavailable(
                f"summary '{summary.id}': local extraction model failed: {exc}"
            ) from exc
        return parse_claims(raw, summary.id)

