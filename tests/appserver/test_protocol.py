"""Frame codec round-trips and protocol-violation handling."""

import socket
import struct
import threading

import pytest

from repro.appserver import protocol
from repro.cgi.environ import CgiEnvironment
from repro.cgi.request import CgiRequest, CgiResponse
from repro.errors import CgiProtocolError


def socket_pair():
    return socket.socketpair()


class TestFrames:
    def test_round_trip(self):
        a, b = socket_pair()
        try:
            protocol.send_frame(a, protocol.FRAME_HELLO, b"payload")
            frame = protocol.FrameReader(b).read()
            assert frame == (protocol.FRAME_HELLO, b"payload")
        finally:
            a.close()
            b.close()

    def test_empty_payload(self):
        a, b = socket_pair()
        try:
            protocol.send_frame(a, protocol.FRAME_SHUTDOWN)
            assert frame_type(b) == protocol.FRAME_SHUTDOWN
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket_pair()
        a.close()
        try:
            assert protocol.FrameReader(b).read() is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket_pair()
        try:
            # A header promising 100 bytes, then the peer dies.
            a.sendall(b"\x02\x00\x00\x00\x64partial")
            a.close()
            with pytest.raises(CgiProtocolError, match="mid-frame"):
                protocol.FrameReader(b).read()
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket_pair()
        try:
            big = protocol.MAX_FRAME_SIZE + 1
            a.sendall(b"\x02" + big.to_bytes(4, "big"))
            with pytest.raises(CgiProtocolError, match="exceeds"):
                protocol.FrameReader(b).read()
        finally:
            a.close()
            b.close()

    def test_large_payload_crosses_recv_chunks(self):
        a, b = socket_pair()
        payload = b"x" * 300_000
        try:
            writer = threading.Thread(
                target=protocol.send_frame,
                args=(a, protocol.FRAME_RESPONSE, payload))
            writer.start()
            frame = protocol.FrameReader(b).read()
            writer.join()
            assert frame == (protocol.FRAME_RESPONSE, payload)
        finally:
            a.close()
            b.close()

    def test_bytes_past_a_frame_carry_to_the_next_read(self):
        a, b = socket_pair()
        try:
            a.sendall(struct.pack(">BI", protocol.FRAME_REQUEST, 3) + b"abc"
                      + struct.pack(">BI", protocol.FRAME_SHUTDOWN, 0)
                      + struct.pack(">BI", protocol.FRAME_HELLO, 2) + b"x")
            reader = protocol.FrameReader(b)
            assert reader.read() == (protocol.FRAME_REQUEST, b"abc")
            assert reader.read() == (protocol.FRAME_SHUTDOWN, b"")
            a.sendall(b"y")  # the third frame's tail, in a later send
            assert reader.read() == (protocol.FRAME_HELLO, b"xy")
            a.close()
            assert reader.read() is None
        finally:
            b.close()

    def test_a_small_frame_takes_one_recv(self):
        a, b = socket_pair()
        calls = []

        class Counting:
            def recv(self, size):
                calls.append(size)
                return b.recv(size)

        try:
            protocol.send_frame(a, protocol.FRAME_RESPONSE, b"p" * 2000)
            frame = protocol.FrameReader(Counting()).read()
            assert frame == (protocol.FRAME_RESPONSE, b"p" * 2000)
            assert len(calls) == 1
        finally:
            a.close()
            b.close()

    def test_parts_go_out_uncopied_and_survive_partial_sends(self):
        """A response frame sent as its parts is byte for byte the
        frame of its joined payload, however little of it each
        ``sendmsg`` takes — here 7 bytes a call, cutting the head, the
        header and every part, and an empty part on the way."""
        body = [b"<P>head</P>", b"", b"row " * 20, b"<P>tail</P>"]
        response = CgiResponse(headers=[("Content-Type", "text/html")],
                               parts=body)
        payload = protocol.encode_response(response, trace=[["w", -1]])
        sent, seen = [], []

        class Trickle:
            def sendmsg(self, buffers):
                seen.extend(b for b in buffers if type(b) is bytes)
                data = b"".join(bytes(b) for b in buffers)[:7]
                sent.append(data)
                return len(data)

        protocol.send_frame(Trickle(), protocol.FRAME_RESPONSE,
                            *protocol.response_parts(response,
                                                     [["w", -1]]))
        head = struct.pack(">BI", protocol.FRAME_RESPONSE, len(payload))
        assert b"".join(sent) == head + payload
        assert any(part is body[2] for part in seen)  # by reference

    def test_a_frame_in_many_parts_is_one_frame(self):
        a, b = socket_pair()
        parts = [bytes([i % 256]) * 3 for i in range(200)]
        try:
            protocol.send_frame(a, protocol.FRAME_RESPONSE, *parts)
            assert protocol.FrameReader(b).read() == (
                protocol.FRAME_RESPONSE, b"".join(parts))
        finally:
            a.close()
            b.close()


def frame_type(sock):
    frame = protocol.FrameReader(sock).read()
    assert frame is not None
    return frame[0]


class TestRequestCodec:
    def test_round_trip_preserves_environment_and_body(self):
        request = CgiRequest(
            CgiEnvironment(
                request_method="POST",
                script_name="/cgi-bin/db2www",
                path_info="/urlquery.d2w/report",
                query_string="a=1&b=2",
                content_type="application/x-www-form-urlencoded",
                content_length=9,
                remote_addr="10.0.0.7",
                http_headers={"User-Agent": "test/1.0"}),
            stdin=b"SEARCH=ib")
        decoded = protocol.decode_request(protocol.encode_request(request))
        assert decoded.environ.request_method == "POST"
        assert decoded.environ.path_info == "/urlquery.d2w/report"
        assert decoded.environ.query_string == "a=1&b=2"
        assert decoded.environ.remote_addr == "10.0.0.7"
        assert decoded.environ.http_headers["User-Agent"] == "test/1.0"
        assert decoded.stdin == b"SEARCH=ib"

    def test_identity_and_tenant_ride_the_frame(self):
        # The edge authenticates; the worker process must serve with
        # the same identity and tenant.
        request = CgiRequest(CgiEnvironment(
            script_name="/t/alpha",
            path_info="/items.d2w/report",
            remote_user="alice",
            tenant="alpha"))
        decoded = protocol.decode_request(protocol.encode_request(request))
        assert decoded.environ.remote_user == "alice"
        assert decoded.environ.tenant == "alpha"
        assert decoded.environ.to_dict()["REMOTE_USER"] == "alice"
        assert decoded.environ.to_dict()["REPRO_TENANT"] == "alpha"

    def test_body_bytes_are_not_json_escaped(self):
        body = bytes(range(256))
        request = CgiRequest(CgiEnvironment(), stdin=body)
        payload = protocol.encode_request(request)
        assert payload.endswith(body)
        assert protocol.decode_request(payload).stdin == body


class TestResponseCodec:
    def test_round_trip(self):
        response = CgiResponse(
            status=503, reason="Service Unavailable",
            headers=[("Content-Type", "text/html"),
                     ("Retry-After", "2")],
            body=b"<H1>down</H1>")
        decoded = protocol.decode_response(
            protocol.encode_response(response))
        assert decoded.status == 503
        assert decoded.reason == "Service Unavailable"
        assert decoded.header("Retry-After") == "2"
        assert decoded.body == b"<H1>down</H1>"

    def test_streaming_response_is_drained(self):
        response = CgiResponse(body=b"head,",
                               body_iter=iter([b"chunk1,", b"chunk2"]))
        decoded = protocol.decode_response(
            protocol.encode_response(response))
        assert decoded.body == b"head,chunk1,chunk2"
        assert not decoded.streaming

    def test_malformed_header_raises(self):
        with pytest.raises(CgiProtocolError):
            protocol.decode_response(b"\x00\x00\x00\x05notjs")
        with pytest.raises(CgiProtocolError):
            protocol.decode_response(b"\x00")


class TestControlCodec:
    def test_round_trip(self):
        fields = {"worker_id": 3, "pid": 1234, "served": 17}
        assert protocol.decode_control(
            protocol.encode_control(fields)) == fields

    def test_empty_is_empty_dict(self):
        assert protocol.decode_control(b"") == {}

    def test_non_object_rejected(self):
        with pytest.raises(CgiProtocolError):
            protocol.decode_control(b"[1, 2]")
