"""In-process HTTP server for exercising the remote backends.

The handler callable receives (path, body_dict, headers_dict) and returns
(status_code, payload). A dict payload is JSON-encoded; bytes are written
verbatim (for deliberately malformed responses). Every request is recorded
on ``requests`` for assertions.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer


class StubServer:
    def __init__(self, handler):
        self.requests: list[dict] = []
        self._handler = handler
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b""
                try:
                    body = json.loads(raw) if raw else {}
                except ValueError:
                    body = {"_raw": raw.decode("utf-8", "replace")}
                headers = {k: v for k, v in self.headers.items()}
                outer.requests.append(
                    {"path": self.path, "body": body, "headers": headers}
                )
                status, payload = outer._handler(self.path, body, headers)
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        # ``shutdown`` waits for the serving loop's next poll, so poll often.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/"

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()


def dead_url() -> str:
    """A URL that refuses connections: bind a socket, close it, reuse the port."""
    server = HTTPServer(("127.0.0.1", 0), BaseHTTPRequestHandler)
    host, port = server.server_address
    server.server_close()
    return f"http://{host}:{port}/"
