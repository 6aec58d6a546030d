"""The dispatcher↔worker frame protocol, over Unix *or* TCP sockets.

FastCGI-flavoured but deliberately tiny: every message on the socket is
one frame —

===========  =========================================================
``1 byte``    frame type (the ``FRAME_*`` constants)
``4 bytes``   payload length, unsigned big-endian
``N bytes``   payload
===========  =========================================================

Control frames (``HELLO``/``PING``/``PONG``/``SHUTDOWN``/``ERROR``)
carry a small JSON object or nothing.  ``REQUEST``/``RESPONSE``
payloads are a JSON header (CGI environment, or status line and
headers) length-prefixed the same way, followed by the raw body bytes —
the body is never JSON-escaped, so a megabyte page costs a memcpy, not
an encode.

The frame format is transport-agnostic: the same codecs run over the
dispatcher's local ``AF_UNIX`` rendezvous socket and over TCP between
hosts (``repro serve --listen`` pool daemons and ``--connect``
dispatchers — see :mod:`repro.appserver.remote`).  Endpoint strings
pick the transport: ``host:port`` means TCP, anything else is a Unix
socket path (:func:`parse_endpoint`).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

from repro.cgi.environ import CgiEnvironment
from repro.cgi.request import CgiRequest, CgiResponse
from repro.errors import CgiProtocolError, PoolExhaustedError
from repro.overload.retryafter import clamp_retry_hint

FRAME_HELLO = 0x01      # worker → dispatcher, on connect
FRAME_REQUEST = 0x02    # dispatcher → worker
FRAME_RESPONSE = 0x03   # worker → dispatcher
FRAME_PING = 0x04       # dispatcher → worker, health check
FRAME_PONG = 0x05       # worker → dispatcher, carries counters
FRAME_SHUTDOWN = 0x06   # dispatcher → worker, drain and exit
FRAME_ERROR = 0x07      # pool daemon → remote dispatcher: the request
                        # failed pool-side (worker died on a
                        # non-replayable request, pool exhausted); the
                        # channel itself stays healthy

_FRAME_HEAD = struct.Struct(">BI")
_JSON_LEN = struct.Struct(">I")

#: A frame larger than this is a protocol violation, not a big page.
MAX_FRAME_SIZE = 64 * 1024 * 1024


def send_frame(sock: socket.socket, frame_type: int,
               payload: bytes = b"") -> None:
    sock.sendall(_FRAME_HEAD.pack(frame_type, len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[tuple[int, bytes]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF in the *middle* of a frame means the peer died mid-message and
    raises :class:`CgiProtocolError` — the dispatcher treats that as a
    worker crash.
    """
    head = _recv_exact(sock, _FRAME_HEAD.size, eof_ok=True)
    if head is None:
        return None
    frame_type, length = _FRAME_HEAD.unpack(head)
    if length > MAX_FRAME_SIZE:
        raise CgiProtocolError(
            f"app-server frame of {length} bytes exceeds the "
            f"{MAX_FRAME_SIZE}-byte limit")
    payload = _recv_exact(sock, length) if length else b""
    return frame_type, payload


def _recv_exact(sock: socket.socket, count: int, *,
                eof_ok: bool = False) -> Optional[bytes]:
    parts = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise CgiProtocolError(
                "app-server connection closed mid-frame")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


# -- payload codecs --------------------------------------------------------

def _pack_json(header: dict, body: bytes) -> bytes:
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _JSON_LEN.pack(len(encoded)) + encoded + body


def _unpack_json(payload: bytes) -> tuple[dict, bytes]:
    if len(payload) < _JSON_LEN.size:
        raise CgiProtocolError("app-server payload too short for header")
    (length,) = _JSON_LEN.unpack_from(payload)
    start = _JSON_LEN.size
    if len(payload) < start + length:
        raise CgiProtocolError("app-server payload header truncated")
    try:
        header = json.loads(payload[start:start + length])
    except ValueError as exc:
        raise CgiProtocolError(
            f"malformed app-server header: {exc}") from exc
    if not isinstance(header, dict):
        raise CgiProtocolError("app-server header is not an object")
    return header, payload[start + length:]


def encode_request(request: CgiRequest) -> bytes:
    # The environment dict is the complete request context: the trace
    # id, the authenticated REMOTE_USER and the tenant id (REPRO_TENANT)
    # all ride it, so a worker process serves a multi-tenant request
    # with the same identity the edge authenticated.
    return _pack_json({"environ": request.environ.to_dict()},
                      request.stdin)


def decode_request(payload: bytes) -> CgiRequest:
    header, body = _unpack_json(payload)
    try:
        environ = CgiEnvironment.from_dict(dict(header.get("environ", {})))
    except (TypeError, ValueError) as exc:
        # not an object, or a CONTENT_LENGTH / SERVER_PORT no int reads
        raise CgiProtocolError(
            f"malformed app-server request header: {exc}") from exc
    return CgiRequest(environ=environ, stdin=body)


def encode_response(response: CgiResponse,
                    trace: Optional[dict] = None) -> bytes:
    # Workers answer with complete pages; a streaming body is drained
    # here (the dispatcher side of the socket re-buffers anyway).
    response.drain()
    header = {
        "status": response.status,
        "reason": response.reason,
        "headers": [[key, value] for key, value in response.headers],
    }
    if trace:
        # The worker's exported span tree (Span.to_dict), grafted into
        # the dispatcher's live request trace on the other side.
        header["trace"] = trace
    return _pack_json(header, response.body)


def decode_response(payload: bytes) -> CgiResponse:
    header, body = _unpack_json(payload)
    try:
        status = int(header["status"])
        reason = str(header.get("reason", "OK"))
        headers = [(str(k), str(v)) for k, v in header.get("headers", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise CgiProtocolError(
            f"malformed app-server response header: {exc}") from exc
    trace = header.get("trace")
    return CgiResponse(status=status, reason=reason, headers=headers,
                       body=body,
                       trace=trace if isinstance(trace, dict) else None)


# -- transport endpoints ---------------------------------------------------

def parse_endpoint(spec: str) -> tuple[str, object]:
    """Classify an endpoint string: ``("tcp", (host, port))`` when it
    looks like ``host:port`` (the port numeric), else ``("unix", path)``.

    A Unix socket path can contain colons, but never ends in ``:<int>``
    the way a TCP authority does, so the two spellings cannot collide in
    practice; TCP specs may also be written ``tcp:host:port`` to be
    explicit.
    """
    text = spec
    if text.startswith("tcp:"):
        text = text[len("tcp:"):]
        host, sep, port = text.rpartition(":")
        if not sep:
            raise ValueError(f"bad TCP endpoint {spec!r}: expected "
                             f"host:port")
        return "tcp", (host or "127.0.0.1", int(port))
    host, sep, port = text.rpartition(":")
    if sep and port.isdigit():
        return "tcp", (host or "127.0.0.1", int(port))
    return "unix", text


def connect_endpoint(spec: str, *,
                     timeout: Optional[float] = None) -> socket.socket:
    """Connect a stream socket to a Unix-path or ``host:port`` endpoint.

    TCP connections get ``TCP_NODELAY``: frames are written whole and
    waited on synchronously, so Nagle coalescing only adds latency.
    """
    kind, address = parse_endpoint(spec)
    if kind == "tcp":
        sock = socket.create_connection(address, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(address)
    except OSError:
        sock.close()
        raise
    return sock


def format_endpoint(kind: str, address) -> str:
    """The canonical spec string for a bound endpoint."""
    if kind == "tcp":
        host, port = address[0], address[1]
        return f"{host}:{port}"
    return str(address)


# -- control frames --------------------------------------------------------

def encode_error(message: str, *, kind: str = "protocol",
                 retry_after: float | None = None) -> bytes:
    """An ``ERROR`` frame payload (pool-side failure classification).

    ``retry_after`` rides along for ``exhausted`` errors so the
    dispatcher side can rebuild the pool's honest retry hint instead of
    inventing its own (shared semantics: repro.overload.retryafter).
    """
    fields: dict = {"error": str(message), "kind": kind}
    if retry_after is not None:
        fields["retry_after"] = float(retry_after)
    return encode_control(fields)


def pool_error(payload: bytes) -> Exception:
    """Rebuild the pool-side exception an ``ERROR`` frame carries."""
    fields = decode_control(payload)
    message = str(fields.get("error", "unknown pool-side failure"))
    if fields.get("kind") == "exhausted":
        hint = fields.get("retry_after")
        return PoolExhaustedError(
            message, retry_after=clamp_retry_hint(
                float(hint) if hint is not None else None))
    return CgiProtocolError(message)


def encode_control(fields: dict) -> bytes:
    return json.dumps(fields, separators=(",", ":")).encode("utf-8")


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
