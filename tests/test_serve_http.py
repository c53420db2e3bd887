"""Unit tests for the stdlib HTTP/1.1 layer under the query service.

These feed byte streams straight into :func:`repro.serve.http.
read_request` through an in-memory ``StreamReader`` — no sockets — so
every malformed-input branch is pinned deterministically: truncation,
oversized heads and bodies, bad or repeated Content-Length, refusal of
any transfer coding, and protocol version checks all map to their
specific status codes instead of misparses.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.http import (
    MAX_HEADER_BYTES,
    HttpError,
    HttpRequest,
    json_response,
    read_request,
)


def parse(raw: bytes, max_body: int | None = None):
    """Run read_request over an in-memory stream fed with ``raw``."""

    async def go():
        reader = asyncio.StreamReader(limit=2 * 64 * 1024)
        reader.feed_data(raw)
        reader.feed_eof()
        if max_body is None:
            return await read_request(reader)
        return await read_request(reader, max_body=max_body)

    return asyncio.run(go())


def request_bytes(method="POST", target="/query", version="HTTP/1.1",
                  headers=(), body=b""):
    lines = [f"{method} {target} {version}"]
    lines += [f"{name}: {value}" for name, value in headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode() + body


class TestReadRequest:
    def test_simple_get(self):
        request = parse(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/healthz"
        assert request.body == b""

    def test_clean_close_returns_none(self):
        assert parse(b"") is None

    def test_body_read_exactly(self):
        body = json.dumps({"sql": "SELECT 1"}).encode()
        request = parse(request_bytes(body=body))
        assert request.body == body
        assert request.json() == {"sql": "SELECT 1"}

    def test_query_string_split_from_path(self):
        request = parse(b"GET /metrics?pretty=1&tenant=a HTTP/1.1\r\n\r\n")
        assert request.path == "/metrics"
        assert request.query == {"pretty": "1", "tenant": "a"}

    def test_headers_lowercased_and_trimmed(self):
        request = parse(request_bytes(
            headers=[("X-Repro-Deadline-MS", " 250 ")]))
        assert request.headers["x-repro-deadline-ms"] == "250"

    def test_truncated_head_is_400(self):
        with pytest.raises(HttpError) as error:
            parse(b"POST /query HTTP/1.1\r\nContent-")
        assert error.value.status == 400

    def test_truncated_body_is_400(self):
        raw = request_bytes(body=b"{}")[:-1]  # one body byte missing
        with pytest.raises(HttpError) as error:
            parse(raw)
        assert error.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as error:
            parse(b"BROKEN\r\n\r\n")
        assert error.value.status == 400

    def test_malformed_header_line_is_400(self):
        with pytest.raises(HttpError) as error:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert error.value.status == 400

    def test_http2_preface_is_505(self):
        with pytest.raises(HttpError) as error:
            parse(b"PRI * HTTP/2.0\r\n\r\n")
        assert error.value.status == 505

    def test_chunked_body_is_501(self):
        with pytest.raises(HttpError) as error:
            parse(request_bytes(headers=[("Transfer-Encoding", "chunked")]))
        assert error.value.status == 501

    @pytest.mark.parametrize("coding", ["gzip", "identity"])
    def test_any_transfer_coding_is_501(self, coding):
        # Not only chunked, and even beside a Content-Length that would
        # frame the body.
        with pytest.raises(HttpError) as error:
            parse(request_bytes(headers=[("Transfer-Encoding", coding)],
                                body=b"abc"))
        assert error.value.status == 501

    def test_oversized_head_is_431(self):
        filler = "x" * (MAX_HEADER_BYTES + 10)
        with pytest.raises(HttpError) as error:
            parse(request_bytes(headers=[("X-Filler", filler)]))
        assert error.value.status == 431

    def test_bad_content_length_is_400(self):
        for bad in ("nope", "-3"):
            with pytest.raises(HttpError) as error:
                parse(request_bytes(headers=[("Content-Length", bad)]))
            assert error.value.status == 400

    @pytest.mark.parametrize("bad", ["1_0", "+10", "-0"])
    def test_content_length_is_ascii_digits_only(self, bad):
        # int() takes each of them; RFC 9110 §8.6 takes none.
        raw = request_bytes(headers=[("Content-Length", bad)]) \
            + b"0123456789"
        with pytest.raises(HttpError) as error:
            parse(raw)
        assert error.value.status == 400

    @pytest.mark.parametrize("lengths", [("3", "10"), ("10", "10")])
    def test_repeated_content_length_is_400(self, lengths):
        raw = request_bytes(headers=[("Content-Length", length)
                                     for length in lengths]) + b"0123456789"
        with pytest.raises(HttpError) as error:
            parse(raw)
        assert error.value.status == 400

    def test_body_over_cap_is_413(self):
        raw = request_bytes(body=b"x" * 64)
        with pytest.raises(HttpError) as error:
            parse(raw, max_body=16)
        assert error.value.status == 413


class TestHttpRequest:
    def test_keep_alive_default(self):
        assert HttpRequest("GET", "/").keep_alive

    def test_connection_close_honoured(self):
        request = HttpRequest("GET", "/", headers={"connection": "Close"})
        assert not request.keep_alive

    def test_empty_body_json_is_empty_object(self):
        assert HttpRequest("POST", "/").json() == {}

    def test_garbage_json_is_400(self):
        request = HttpRequest("POST", "/", body=b"{nope")
        with pytest.raises(HttpError) as error:
            request.json()
        assert error.value.status == 400


class TestJsonResponse:
    def test_roundtrip(self):
        raw = json_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert json.loads(body) == {"ok": True}
        assert f"Content-Length: {len(body)}".encode() in head

    def test_connection_header_tracks_keep_alive(self):
        assert b"Connection: keep-alive" in json_response(200, {})
        assert b"Connection: close" in json_response(200, {},
                                                     keep_alive=False)

    def test_unknown_status_still_serializes(self):
        assert json_response(418, {}).startswith(b"HTTP/1.1 418 ")
