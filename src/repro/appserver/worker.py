"""The app-server worker process: ``python -m repro.appserver.worker``.

One worker is one long-lived process that builds the DB2WWW program
*once* — parsed :class:`~repro.core.macrofile.MacroLibrary`, engine with
pooled connections and a query-result cache — then serves request frames
off its dispatcher socket until told to shut down.  That amortisation is
the whole point of the application-server model (Section 2.3's per-exec
cost paid once per worker lifetime instead of once per request).

Configuration rides the same environment variables as the stand-alone
CGI executable (:mod:`repro.cgi.db2www_main`), plus:

``REPRO_APPSERVER_SOCKET``
    The path of the dispatcher's Unix rendezvous socket.  Required.
``REPRO_APPSERVER_WORKER_ID``
    Slot number announced in the ``HELLO`` frame.
``REPRO_WORKER_FAULTS``
    A :mod:`repro.resilience.faults` spec; when a fault fires on a
    request the worker dies with ``os._exit`` *mid-request* — the
    chaos hook the dispatcher's crash-replacement test drives.
"""

from __future__ import annotations

import os
import socket
import sys

from repro.appserver import protocol
from repro.cgi.db2www_main import build_program
from repro.cgi.gateway import CgiGateway
from repro.errors import SQLError
from repro.obs.trace import TRACER
from repro.resilience.faults import FaultInjector

_PROGRAM_NAME = "db2www"


def worker_main(env: dict[str, str] | None = None) -> int:
    env = dict(os.environ) if env is None else env
    socket_path = env.get("REPRO_APPSERVER_SOCKET")
    if not socket_path:
        raise RuntimeError("REPRO_APPSERVER_SOCKET is not configured")
    worker_id = int(env.get("REPRO_APPSERVER_WORKER_ID", "0") or 0)

    # Warm state: everything request-independent is built exactly once.
    program = build_program(env)
    gateway = CgiGateway()
    gateway.install(_PROGRAM_NAME, program)

    injector = None
    faults = env.get("REPRO_WORKER_FAULTS")
    if faults:
        injector = FaultInjector.parse(faults)

    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.connect(socket_path)
        protocol.send_frame(
            sock, protocol.FRAME_HELLO,
            protocol.encode_control({"worker_id": worker_id,
                                     "pid": os.getpid()}))
        return _serve(sock, gateway, injector, worker_id)
    finally:
        sock.close()


def _serve(sock: socket.socket, gateway: CgiGateway,
           injector: FaultInjector | None, worker_id: int) -> int:
    reader = protocol.FrameReader(sock)
    while True:
        frame = reader.read()
        if frame is None:
            return 0  # dispatcher went away; nothing left to serve
        frame_type, payload = frame
        if frame_type == protocol.FRAME_SHUTDOWN:
            return 0
        if frame_type != protocol.FRAME_REQUEST:
            return 1  # protocol violation; die and be replaced
        if injector is not None:
            try:
                injector.before_query("appserver-request")
            except SQLError:
                # Simulated worker crash *mid-request*: the dispatcher
                # has sent the frame and is waiting on the response.
                os._exit(1)
        request = protocol.decode_request(payload)
        # The request frame carries the dispatcher's trace id; the
        # worker's spans run under it and ship home in the response
        # frame as flat rows, which the dispatcher grafts into the live
        # request trace.
        act = TRACER.begin("worker", trace_id=request.trace_id or None,
                           attrs={"worker_id": worker_id,
                                  "pid": os.getpid()})
        # dispatch() maps every failure to a 5xx response, so a macro
        # bug costs one error page, never the worker.
        response = gateway.dispatch(_PROGRAM_NAME, request)
        trace = None
        if act is not None:
            # Drain before closing the span: streamed pages fill in
            # their sql.execute row counts as the cursor empties.
            response.drain()
            act.span.set("status", response.status)
            act.finish()
            trace = act.span.export()
        protocol.send_frame(sock, protocol.FRAME_RESPONSE,
                            *protocol.response_parts(response, trace))


if __name__ == "__main__":  # pragma: no cover - spawned by dispatcher
    sys.exit(worker_main())
