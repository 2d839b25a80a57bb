"""The one way the toolkit talks HTTP: POST a JSON body, read a JSON answer.

Both ``remote:`` backends post through :class:`JsonService`, so they share
one retry rule. A transport error, a 429 or a 5xx is retried up to
``retries`` times, :data:`RETRY_DELAY` seconds apart; any other 4xx and a
body that is not JSON fail at once. Every failure is raised as the caller's
:class:`BackendError` subclass, and one that outlasts its retries names the
attempt count and the last error. Unless a ``session`` is given, each thread
posts with a ``requests.Session`` of its own, since a session is not
documented as safe to share between threads. ``requests`` is imported when a
service is built, not with this module, so runs without a remote backend
never load it.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from .errors import BackendError

if TYPE_CHECKING:
    import requests

__all__ = ["RETRY_DELAY", "JsonService"]

# Seconds between two attempts at one request.
RETRY_DELAY = 1.0


class JsonService:
    """A JSON endpoint at ``url``, named ``name`` in error messages."""

    def __init__(
        self,
        url: str,
        name: str,
        error: type[BackendError],
        *,
        timeout: float,
        retries: int,
        session: requests.Session | None = None,
    ):
        import requests

        self.url = url
        self.name = name
        self.timeout = timeout
        self.retries = retries
        self._error = error
        self._session = session
        self._requests = requests
        self._sessions = threading.local()

    def post(self, body: dict, headers: dict[str, str] | None = None, prefix: str = "") -> object:
        """The decoded JSON answer to ``body``; ``prefix`` starts each error message."""
        session = self._session or getattr(self._sessions, "session", None)
        if session is None:
            session = self._sessions.session = self._requests.Session()
        where = f"{prefix}{self.name} at {self.url}"
        last_error = "no attempt made"
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(RETRY_DELAY)
            try:
                response = session.post(self.url, json=body, headers=headers, timeout=self.timeout)
            except self._requests.RequestException as exc:
                last_error = str(exc)
                continue
            status = response.status_code
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                continue
            if status >= 400:
                raise self._error(f"{where} rejected the request with HTTP {status}")
            try:
                return response.json()
            except ValueError as exc:
                raise self._error(f"{where} returned non-JSON output: {exc}") from exc
        raise self._error(f"{where} failed after {self.retries + 1} attempts ({last_error})")
