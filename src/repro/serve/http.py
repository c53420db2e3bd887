"""A minimal HTTP/1.1 layer over asyncio streams (stdlib only).

The project has zero runtime dependencies, so the service speaks just
enough HTTP itself: request line + headers + ``Content-Length`` body in,
JSON responses with keep-alive out.  Deliberately *not* supported (each
answered with the right status rather than misparsed): any
``Transfer-Encoding`` — chunked or otherwise (501), bodies over the
configured cap (413), header blocks over 32 KiB (431), and non-1.x
protocol versions (505).  Framing fails closed: a ``Content-Length``
that is not ASCII digits alone, or one given twice, is a 400.

Everything here is transport; routing and semantics live in
:mod:`repro.serve.service`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qs, urlsplit

#: Request line + headers must fit in this many bytes.
MAX_HEADER_BYTES = 32 * 1024

#: Default cap on request bodies (the service may lower it).
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class HttpError(Exception):
    """A request that cannot proceed; carries the response status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _not_json(token: str):
    raise HttpError(400, f"invalid JSON body: {token} is not JSON")


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """RFC 9112 §9.3: ``close`` ends HTTP/1.1, ``keep-alive`` keeps 1.0."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self):
        """The body decoded as JSON (400 on garbage, and on the
        ``NaN`` / ``Infinity`` / ``-Infinity`` tokens, which are not
        JSON)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body, parse_constant=_not_json)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"invalid JSON body: {error}") from None


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
) -> HttpRequest | None:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(431, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(505, f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line {line!r}")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            raise HttpError(400, "repeated Content-Length")
        headers[name] = value.strip()
    if "transfer-encoding" in headers:
        # Only a Content-Length frames a body here; reading a coded body
        # as identity would misparse it.
        raise HttpError(501, "transfer-coded request bodies are not "
                             "supported")
    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        # RFC 9110 §8.6: 1*DIGIT — not int()'s signs, underscores or
        # non-ASCII digits.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise HttpError(400, f"bad Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > max_body:
            raise HttpError(
                413, f"body of {length} bytes exceeds the {max_body} cap"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body") from None
    return HttpRequest(
        method=method.upper(), path=split.path or "/",
        query=query, headers=headers, body=body, version=version,
    )


class Encoded(dict):
    """A JSON object payload that carries its encoding, ``body``."""

    def __init__(self, payload: dict, body: bytes):
        super().__init__(payload)
        self.body = body


def encode(payload) -> bytes:
    """The JSON bytes of a response payload."""
    if isinstance(payload, Encoded):
        return payload.body
    return json.dumps(payload, default=str).encode("utf-8")


def json_response(status: int, payload, keep_alive: bool = True) -> bytes:
    """Serialize one JSON response, ready to write to the transport."""
    body = encode(payload)
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body
