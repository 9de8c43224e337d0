"""HTTP client side: timed requests and an SSE reader.

A request's wall time runs from before the connection opens to after the
last byte of the response body is read; the JSON is decoded after the clock
stops.  The server speaks HTTP/1.0, so every request uses a fresh
connection, as a browser client's would.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

TIMEOUT_S = 120.0


@dataclass
class Reply:
    status: int
    payload: dict[str, Any]
    wall_ms: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and bool(self.payload.get("ok")) and not self.error

    @property
    def data(self) -> Any:
        return self.payload.get("data")

    @property
    def server_ms(self) -> float | None:
        elapsed = self.payload.get("elapsed_ms")
        return float(elapsed) if elapsed is not None else None


@dataclass
class Stream:
    """One SSE subscription read to its terminal event."""

    status: int
    events: list[tuple[str, dict[str, Any], float]] = field(default_factory=list)
    wall_ms: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error and self.terminal == "done"

    @property
    def terminal(self) -> str:
        return self.events[-1][0] if self.events else ""

    def first(self, kind: str) -> float | None:
        """perf_counter time the first ``kind`` frame was received."""
        for event_type, _, received in self.events:
            if event_type == kind:
                return received
        return None


class Client:
    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.host = host
        self.port = port

    def request(self, method: str, path: str, body: dict[str, Any] | None = None) -> Reply:
        encoded = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if encoded is not None else {}
        started = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
        try:
            conn.request(method, path, body=encoded, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            wall_ms = (time.perf_counter() - started) * 1000.0
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            wall_ms = (time.perf_counter() - started) * 1000.0
            return Reply(0, {}, wall_ms, error=f"{type(exc).__name__}: {exc}")
        finally:
            conn.close()
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            return Reply(status, {}, wall_ms, error=f"bad JSON: {exc}")
        if not isinstance(payload, dict):
            return Reply(status, {}, wall_ms, error="body is not an object")
        return Reply(status, payload, wall_ms)

    def events(self, path: str) -> Stream:
        """Read an SSE stream until its terminal event (or the server closes)."""
        stream = Stream(status=0)
        started = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            stream.status = response.status
            if response.status != 200:
                response.read()
                stream.error = f"status {response.status}"
                return stream
            _read_frames(response.readline, stream.events.append)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            stream.error = f"{type(exc).__name__}: {exc}"
        finally:
            stream.wall_ms = (time.perf_counter() - started) * 1000.0
            conn.close()
        return stream


TERMINAL = ("done", "failed", "cancelled")


def _read_frames(
    readline: Callable[[], bytes], emit: Callable[[tuple[str, dict[str, Any], float]], None]
) -> None:
    kind, data = "", ""
    while True:
        line = readline()
        if not line:
            return
        text = line.decode("utf-8").rstrip("\r\n")
        if text.startswith("event:"):
            kind = text[6:].strip()
        elif text.startswith("data:"):
            data += text[5:].strip()
        elif not text and kind:
            emit((kind, json.loads(data) if data else {}, time.perf_counter()))
            if kind in TERMINAL:
                return
            kind, data = "", ""
