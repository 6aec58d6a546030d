"""The dispatcher↔worker frame protocol, over the pool's Unix socket.

FastCGI-flavoured but deliberately tiny: every message on the socket is
one frame —

===========  =========================================================
``1 byte``    frame type (the ``FRAME_*`` constants)
``4 bytes``   payload length, unsigned big-endian
``N bytes``   payload
===========  =========================================================

Control frames (``HELLO``/``SHUTDOWN``) carry a small JSON object or
nothing.  ``REQUEST``/``RESPONSE`` payloads are a JSON header
length-prefixed the same way, followed by the raw body bytes — the
body is never JSON-escaped, and a worker hands a page's byte parts to
the socket as they are (:func:`send_frame`), so a megabyte page costs
no encode and no copy.  Both headers are positional JSON lists:

``REQUEST``
    The :class:`~repro.cgi.environ.CgiEnvironment` fields in declaration
    order: ``[method, script_name, path_info, query_string,
    content_type, content_length, server_name, server_port,
    remote_addr, remote_user, tenant, http_headers, trace_id]``.
    ``http_headers`` is the environment's own dict, sent verbatim: its
    names were canonicalised where the environment was built
    (:func:`repro.cgi.environ.cgi_headers`).  The trace id, the
    authenticated ``REMOTE_USER`` and the tenant all ride here, so a
    worker serves a request with the identity the edge authenticated.
``RESPONSE``
    ``[status, reason, [[name, value], ...], spans]``.  ``spans`` is
    ``null`` or the worker's span tree as flat rows ``[name,
    parent_row, offset_us, duration_us, attrs]``, depth-first from the
    root (row 0, parent ``-1``), offsets from the root's start
    (:meth:`repro.obs.trace.Span.export`).  No trace or span id
    crosses: the dispatcher grafts the rows under its live span and
    they join that span's trace (:meth:`repro.obs.trace.Tracer.graft`).

The decoders check each header's arity and every field's type (JSON
``true`` is not an int) and raise :class:`~repro.errors.CgiProtocolError`
on anything else.  Nothing is negotiated: the dispatcher and the
workers it spawns run the same version of this module.

Frames are read through one :class:`FrameReader` per socket, which
takes a frame in a single ``recv`` when it fits and carries any bytes
past the frame to the next read.  Nothing here depends on the socket
family: the tier boundary is this protocol, not the transport under it.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
from itertools import chain
from operator import attrgetter
from typing import Optional

from repro.cgi.environ import CgiEnvironment
from repro.cgi.request import CgiRequest, CgiResponse
from repro.errors import CgiProtocolError

FRAME_HELLO = 0x01      # worker → dispatcher, on connect
FRAME_REQUEST = 0x02    # dispatcher → worker
FRAME_RESPONSE = 0x03   # worker → dispatcher
FRAME_SHUTDOWN = 0x06   # dispatcher → worker, drain and exit

_FRAME_HEAD = struct.Struct(">BI")
_HEAD_SIZE = _FRAME_HEAD.size
_JSON_LEN = struct.Struct(">I")

#: A frame larger than this is a protocol violation, not a big page.
MAX_FRAME_SIZE = 64 * 1024 * 1024

#: Bytes asked of one ``recv``: a frame up to this size takes one read.
_READ_SIZE = 65536

_encode_json = json.JSONEncoder(separators=(",", ":")).encode
_decode_json = json.JSONDecoder().decode

_ENV_NAMES = [field.name for field in dataclasses.fields(CgiEnvironment)]
#: The request header, read off an environment in one call ...
_env_values = attrgetter(*_ENV_NAMES)
#: ... and the type each position must decode to: its default's type
#: (``http_headers``, the one field built by a factory, is a dict).  A
#: list, compared with a list: ``tuple(map(...))`` resizes as it fills,
#: and every resized tuple is parked on the interpreter's tuple free
#: list when freed — ~280 KB more resident per process once it fills.
_ENV_TYPES = [
    dict if field.default is dataclasses.MISSING else type(field.default)
    for field in dataclasses.fields(CgiEnvironment)]
_HEADERS_AT = _ENV_NAMES.index("http_headers")
_JUST_STR = frozenset({str})
_JUST_LIST = frozenset({list})
_JUST_PAIRS = frozenset({2})


#: Buffers handed to one ``sendmsg`` at most (Linux allows 1024); a
#: payload in more parts than this is joined first.
_MAX_BUFFERS = 64


def send_frame(sock: socket.socket, frame_type: int,
               *payload: bytes) -> None:
    """Send one frame whose payload is the ``payload`` parts in order.

    The parts go out as they are, behind the frame head, in one
    ``sendmsg`` — a page's cached row bytes are not copied into a frame
    first — and in more only when the kernel takes part of it.
    """
    buffers = [_FRAME_HEAD.pack(frame_type, sum(map(len, payload))),
               *payload]
    if len(buffers) > _MAX_BUFFERS:
        buffers[1:] = [b"".join(payload)]
    while True:
        sent = sock.sendmsg(buffers)
        while buffers and sent >= len(buffers[0]):
            sent -= len(buffers.pop(0))
        if not buffers:
            return
        if sent:
            buffers[0] = memoryview(buffers[0])[sent:]


class FrameReader:
    """Reads the frames arriving on one socket.

    A frame that fits in one ``recv`` takes one.  Bytes past the end of
    a frame are kept for the next :meth:`read`, never dropped: nothing
    stops a peer from writing two frames in one ``send``.  Use one
    reader per socket for the socket's whole life.
    """

    __slots__ = ("sock", "_buffer")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = b""

    def read(self) -> Optional[tuple[int, bytes]]:
        """The next frame; ``None`` on clean EOF at a frame boundary.

        EOF in the *middle* of a frame means the peer died mid-message
        and raises :class:`CgiProtocolError` — the dispatcher treats
        that as a worker crash.
        """
        buffer = self._buffer
        while len(buffer) < _HEAD_SIZE:
            chunk = self.sock.recv(_READ_SIZE)
            if not chunk:
                if buffer:
                    raise CgiProtocolError(
                        "app-server connection closed mid-frame")
                return None
            buffer += chunk
        frame_type, length = _FRAME_HEAD.unpack_from(buffer)
        if length > MAX_FRAME_SIZE:
            raise CgiProtocolError(
                f"app-server frame of {length} bytes exceeds the "
                f"{MAX_FRAME_SIZE}-byte limit")
        end = _HEAD_SIZE + length
        if len(buffer) >= end:
            self._buffer = buffer[end:]
            return frame_type, buffer[_HEAD_SIZE:end]
        # Larger than what has arrived: read exactly the rest, so
        # nothing past this frame is taken.
        parts = [buffer[_HEAD_SIZE:]]
        remaining = end - len(buffer)
        while remaining:
            chunk = self.sock.recv(min(remaining, _READ_SIZE))
            if not chunk:
                raise CgiProtocolError(
                    "app-server connection closed mid-frame")
            parts.append(chunk)
            remaining -= len(chunk)
        self._buffer = b""
        return frame_type, b"".join(parts)


# -- payload codecs --------------------------------------------------------

def _pack(header, body: bytes) -> bytes:
    encoded = _encode_json(header).encode("utf-8")
    return _JSON_LEN.pack(len(encoded)) + encoded + body


def _unpack(payload: bytes, arity: int, what: str) -> tuple[list, bytes]:
    """The positional header (a list of ``arity`` items) and the body."""
    if len(payload) < _JSON_LEN.size:
        raise CgiProtocolError("app-server payload too short for header")
    (length,) = _JSON_LEN.unpack_from(payload)
    start = _JSON_LEN.size
    if len(payload) < start + length:
        raise CgiProtocolError("app-server payload header truncated")
    try:
        header = _decode_json(payload[start:start + length].decode("utf-8"))
    except ValueError as exc:
        raise CgiProtocolError(
            f"malformed app-server header: {exc}") from exc
    if type(header) is not list or len(header) != arity:
        raise CgiProtocolError(
            f"app-server {what} header is not a list of {arity} fields")
    return header, payload[start + length:]


def encode_request(request: CgiRequest) -> bytes:
    return _pack(_env_values(request.environ), request.stdin)


def decode_request(payload: bytes) -> CgiRequest:
    header, body = _unpack(payload, len(_ENV_TYPES), "request")
    if list(map(type, header)) != _ENV_TYPES \
            or not set(map(type, header[_HEADERS_AT].values())) <= _JUST_STR:
        raise CgiProtocolError(
            "malformed app-server request header: a field has the "
            "wrong type")
    return CgiRequest(environ=CgiEnvironment(*header), stdin=body)


def response_parts(response: CgiResponse,
                   trace: Optional[list] = None) -> list[bytes]:
    """A RESPONSE payload as parts: the header, then the body's own
    parts, uncopied (what :func:`send_frame` takes; joined, they are
    :func:`encode_response`)."""
    # Workers answer with complete pages; a streaming body is drained
    # here (the dispatcher side of the socket re-buffers anyway).
    response.drain()
    return [_pack((response.status, response.reason, response.headers,
                   trace or None), b""), *response.parts]


def encode_response(response: CgiResponse,
                    trace: Optional[list] = None) -> bytes:
    return b"".join(response_parts(response, trace))


def decode_response(payload: bytes) -> CgiResponse:
    (status, reason, headers, trace), body = _unpack(payload, 4, "response")
    if type(status) is not int or type(reason) is not str \
            or type(headers) is not list \
            or not set(map(type, headers)) <= _JUST_LIST \
            or not set(map(len, headers)) <= _JUST_PAIRS \
            or not set(map(type, chain.from_iterable(headers))) <= _JUST_STR \
            or (trace is not None and type(trace) is not list):
        raise CgiProtocolError(
            "malformed app-server response header: a field has the "
            "wrong type")
    return CgiResponse(status=status, reason=reason,
                       headers=list(map(tuple, headers)), body=body,
                       trace=trace)


# -- control frames --------------------------------------------------------

def encode_control(fields: dict) -> bytes:
    return _encode_json(fields).encode("utf-8")


def decode_control(payload: bytes) -> dict:
    if not payload:
        return {}
    try:
        fields = json.loads(payload)
    except ValueError as exc:
        raise CgiProtocolError(
            f"malformed app-server control frame: {exc}") from exc
    if not isinstance(fields, dict):
        raise CgiProtocolError("app-server control frame is not an object")
    return fields
