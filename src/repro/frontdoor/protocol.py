"""Dependency-free HTTP/1.1 and WebSocket (RFC 6455) wire plumbing.

The front door speaks two protocols over one listening socket, both
implemented here directly on asyncio stream pairs — no third-party
framework, because queries and top-k pushes are small JSON messages and
the interesting engineering (admission batching, snapshot pinning,
delta subscriptions) lives above the wire anyway.

The module carries **both sides** of each protocol: the server-side
parser/encoder used by :class:`~repro.frontdoor.server.FrontDoor`, and
minimal client helpers (:class:`HTTPClient`, :func:`ws_connect`) used
by the test suite, so the repo can exercise its own wire format end to
end without external tooling.

Malformed input raises :class:`~repro.exceptions.ProtocolError`
(HTTP 400 / WebSocket protocol-error close); size limits on request
lines, headers, bodies, and frames keep a misbehaving client from
ballooning server memory.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exceptions import ProtocolError

#: RFC 6455 handshake GUID (fixed by the spec).
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: WebSocket opcodes this implementation handles.
OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 65536
MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_FRAME_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    426: "Upgrade Required",
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

    @property
    def wants_websocket(self) -> bool:
        """Whether this request asks for a WebSocket upgrade."""
        return (
            "upgrade" in self.headers.get("connection", "").lower()
            and self.headers.get("upgrade", "").lower() == "websocket"
        )


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
# WebSocket framing (RFC 6455)
# ------------------------------------------------------------------ #


def websocket_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for one handshake key."""
    digest = hashlib.sha1((key + WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def handshake_response(key: str) -> bytes:
    """The 101 Switching Protocols response completing the upgrade."""
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n"
        "\r\n"
    ).encode("latin-1")


def encode_frame(opcode: int, payload: bytes, mask: bool = False) -> bytes:
    """Serialize one unfragmented frame (clients must set ``mask``)."""
    header = bytearray([0x80 | (opcode & 0x0F)])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        header.append(mask_bit | length)
    elif length < 65536:
        header.append(mask_bit | 126)
        header += struct.pack("!H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack("!Q", length)
    if mask:
        key = os.urandom(4)
        header += key
        payload = bytes(
            byte ^ key[i % 4] for i, byte in enumerate(payload)
        )
    return bytes(header) + payload


async def read_frame(
    reader: asyncio.StreamReader,
    max_size: int = MAX_FRAME_BYTES,
) -> Tuple[int, bytes]:
    """Read one frame; returns ``(opcode, payload)``.

    Fragmented messages are rejected (every message the front door
    exchanges fits one frame by design); control frames pass through
    for the caller to answer.  Raises :class:`ProtocolError` on framing
    violations and :class:`asyncio.IncompleteReadError` on EOF.
    """
    first = await reader.readexactly(2)
    fin = bool(first[0] & 0x80)
    if first[0] & 0x70:
        raise ProtocolError("websocket reserved bits set")
    opcode = first[0] & 0x0F
    if not fin:
        raise ProtocolError("fragmented websocket messages not supported")
    masked = bool(first[1] & 0x80)
    length = first[1] & 0x7F
    if length == 126:
        length = struct.unpack("!H", await reader.readexactly(2))[0]
    elif length == 127:
        length = struct.unpack("!Q", await reader.readexactly(8))[0]
    if length > max_size:
        raise ProtocolError(f"websocket frame too large ({length} bytes)")
    key = await reader.readexactly(4) if masked else None
    payload = await reader.readexactly(length) if length else b""
    if key is not None:
        payload = bytes(
            byte ^ key[i % 4] for i, byte in enumerate(payload)
        )
    return opcode, payload


async def send_ws_json(
    writer: asyncio.StreamWriter,
    payload: object,
    mask: bool = False,
) -> None:
    """Send one JSON text frame."""
    writer.write(encode_frame(OP_TEXT, json_body(payload), mask=mask))
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


async def ws_connect(
    host: str,
    port: int,
    path: str,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a client WebSocket: TCP connect + RFC 6455 handshake.

    A refused or mismatched handshake (or any other failure after the
    connect) closes the connection before the error propagates.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await _ws_handshake(reader, writer, host, port, path)
    except BaseException:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        raise
    return reader, writer


async def _ws_handshake(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    host: str,
    port: int,
    path: str,
) -> None:
    key = base64.b64encode(os.urandom(16)).decode("latin-1")
    writer.write(
        (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    status_line = await reader.readuntil(b"\r\n")
    if b" 101 " not in status_line:
        raise ProtocolError(
            f"websocket handshake refused: {status_line!r}"
        )
    accept = None
    while True:
        line = await reader.readuntil(b"\r\n")
        text = line.decode("latin-1").rstrip("\r\n")
        if not text:
            break
        name, _, value = text.partition(":")
        if name.strip().lower() == "sec-websocket-accept":
            accept = value.strip()
    if accept != websocket_accept(key):
        raise ProtocolError("websocket handshake key mismatch")


async def ws_recv_json(reader: asyncio.StreamReader) -> Optional[object]:
    """Receive the next JSON text frame; None on a close frame.

    Ping frames are skipped (the front door never pings, but a proxy
    might); any other opcode is a protocol violation.
    """
    while True:
        opcode, payload = await read_frame(reader)
        if opcode == OP_TEXT:
            try:
                return json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(
                    f"invalid JSON websocket frame: {exc}"
                ) from None
        if opcode == OP_CLOSE:
            return None
        if opcode in (OP_PING, OP_PONG):
            continue
        raise ProtocolError(f"unexpected websocket opcode {opcode:#x}")
