"""Dependency-free HTTP/1.1 wire plumbing.

The front door speaks HTTP/1.1 with JSON bodies, implemented here
directly on asyncio stream pairs — no third-party framework, because
queries and updates are small JSON messages and the interesting
engineering (admission batching, snapshot pinning) lives above the
wire anyway.

The module carries **both sides**: the server-side parser/encoder used
by :class:`~repro.frontdoor.server.FrontDoor`, and a minimal keep-alive
client (:class:`HTTPClient`) used by the test suite, so the repo can
exercise its own wire format end to end without external tooling.

Malformed input raises :class:`~repro.exceptions.ProtocolError`
(HTTP 400); size limits on request lines, headers and bodies keep a
misbehaving client from ballooning server memory.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exceptions import ProtocolError

MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 65536
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class HTTPRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    keep_alive: bool = True
    _json: object = field(default=None, repr=False)

    def json(self) -> object:
        """The body parsed as JSON (:class:`ProtocolError` when bad)."""
        if not self.body:
            return None
        if self._json is None:
            try:
                self._json = json.loads(self.body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"invalid JSON body: {exc}") from None
        return self._json


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
) -> Optional[HTTPRequest]:
    """Parse one request off the stream; None on clean EOF between requests."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise ProtocolError("connection closed mid request line") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("request line too long") from None
    if len(line) > MAX_REQUEST_LINE:
        raise ProtocolError("request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported HTTP version {version!r}")

    headers: Dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ProtocolError("connection closed mid headers") from None
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise ProtocolError("request headers too large")
        text = line.decode("latin-1").rstrip("\r\n")
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {text!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise ProtocolError(
                f"bad Content-Length: {length!r}"
            ) from None
        if size < 0 or size > max_body:
            raise ProtocolError(f"body too large ({size} bytes)")
        if size:
            try:
                body = await reader.readexactly(size)
            except asyncio.IncompleteReadError:
                raise ProtocolError("connection closed mid body") from None
    elif headers.get("transfer-encoding", "").lower() == "chunked":
        raise ProtocolError("chunked request bodies are not supported")

    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(
            split.query, keep_blank_values=True
        ).items()
    }
    connection = headers.get("connection", "").lower()
    keep_alive = "close" not in connection
    return HTTPRequest(
        method=method.upper(),
        target=target,
        path=split.path,
        query=query,
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize one HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_body(payload: object) -> bytes:
    """Encode one JSON payload for the wire.

    ``json.dumps`` renders floats with ``repr`` (shortest round-trip),
    so float64 scores survive the wire bit-exactly.
    """
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: object,
    keep_alive: bool = True,
) -> None:
    """Write one JSON response and flush."""
    writer.write(
        render_response(status, json_body(payload), keep_alive=keep_alive)
    )
    await writer.drain()


# ------------------------------------------------------------------ #
# Client helpers (tests)
# ------------------------------------------------------------------ #


class HTTPClient:
    """A keep-alive HTTP/1.1 JSON client over one asyncio connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "HTTPClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "HTTPClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def request(
        self,
        method: str,
        path: str,
        payload: object = None,
        headers: Optional[Dict[str, str]] = None,
        raw: bool = False,
    ) -> Tuple[int, object]:
        """One round trip; returns ``(status, parsed-JSON-or-None)``.

        ``headers`` adds extra request headers (e.g. ``X-Trace-Id``);
        ``raw=True`` returns the body as decoded text instead of parsed
        JSON — the Prometheus scrape path, where the response is
        text-format 0.0.4, not JSON.
        """
        if self._writer is None:
            await self.connect()
        body = b"" if payload is None else json_body(payload)
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: keep-alive",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        return await self._read_response(raw=raw)

    async def _read_response(self, raw: bool = False) -> Tuple[int, object]:
        reader = self._reader
        try:
            status_line = await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError:
            raise ProtocolError("server closed mid response") from None
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ProtocolError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readuntil(b"\r\n")
            text = line.decode("latin-1").rstrip("\r\n")
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        if "close" in headers.get("connection", "").lower():
            await self.close()
        if raw:
            return status, body.decode("utf-8")
        if not body:
            return status, None
        try:
            return status, json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"invalid JSON response: {exc}") from None
