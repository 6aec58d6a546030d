"""The app-server dispatcher: a pre-forked pool of worker processes.

:class:`AppServerDispatcher` leases an idle worker (a process of
:mod:`repro.appserver.worker` that connected back over a Unix
rendezvous socket) from a queue, runs one ``REQUEST``→``RESPONSE``
exchange on it, replaces a worker whose frame stream broke and replays
the request once when its method allows, and hands the worker back.
Both the wait for a worker and the wait for its answer are capped by
the request's deadline.

It implements the :class:`repro.cgi.gateway.CgiProgram` protocol, so
the whole web stack mounts it exactly like the in-process program or
the process-per-request :class:`~repro.cgi.process.SubprocessCgiRunner`
— the execution models of the gateway-comparison bench differ only in
what sits behind ``gateway.install``.

Worker lifecycle:

* **spawn** — workers are pre-forked at construction; each connects
  back over the Unix socket and announces itself with a ``HELLO``.
* **recycle** — after ``recycle_after`` requests a worker is drained
  and replaced, the classic leak hygiene of pre-fork servers.  The
  replacement runs on its own thread after the response has been
  handed back, one worker at a time; the first incarnation of slot
  ``i`` lives ``i/pool_size`` of a period less, so round-robin traffic
  does not bring every worker to the threshold together.
* **crash** — a worker dying mid-request is detected by the broken
  frame stream, killed, reaped and replaced before anything else
  happens; then the request is retried once on a fresh worker when its
  method is GET or HEAD.  Other in-flight requests ride their own
  workers and never notice.
* **deadline** — a worker still silent when the request's deadline
  runs out is killed and replaced the same way (it could still
  commit), and the request fails with
  :class:`~repro.errors.DeadlineExceededError` instead of a replay.
* **drain** — :meth:`shutdown` stops handing out workers, tells each
  one to finish and exit, and reaps stragglers.

Concurrency is worker-granular: a checked-out worker is exclusively
owned by one request thread (a :class:`queue.Queue` of idle workers is
the scheduler), so no frame interleaving can occur.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Optional

import repro
from repro.appserver import protocol
from repro.cgi.request import CgiRequest, CgiResponse
from repro.errors import (
    CgiProtocolError,
    DeadlineExceededError,
    PoolExhaustedError,
)
from repro.obs.trace import TRACER

#: Request methods replayed on a fresh worker after a broken exchange.
#: The rule keys on the method alone — every macro is reachable by
#: GET, so it does not by itself prevent a doubled write (ROADMAP 2).
_REPLAYABLE = frozenset({"GET", "HEAD"})

#: What the pool counts per worker slot (and sums pool-wide).
#: ``crashes`` is every unplanned replacement: a broken frame stream
#: or a worker killed at its request's deadline.
_SLOT_COUNTERS = ("requests", "recycles", "crashes")

#: The shortest socket wait a deadline-capped exchange sets (a timeout
#: of 0 would make the socket non-blocking instead).
_MIN_WAIT = 1e-3


class _StreamBroken(Exception):
    """The frame stream to a worker failed mid-exchange."""


class _Worker:
    """One live worker process, its dispatcher-side connection and the
    reader of that connection's frames."""

    __slots__ = ("slot", "proc", "conn", "reader", "served", "lifetime")

    def __init__(self, slot: int, proc: subprocess.Popen,
                 conn: socket.socket, lifetime: int):
        self.slot = slot
        self.proc = proc
        self.conn = conn
        self.reader = protocol.FrameReader(conn)
        self.served = 0  # requests served by this incarnation
        self.lifetime = lifetime  # ... and how many it may serve


class AppServerDispatcher:
    """Dispatches CGI requests to a pool of persistent worker processes.

    ``worker_env`` carries the application configuration the workers
    read (``Settings.to_env()``, see :mod:`repro.settings`); no other
    ``REPRO_*`` variable reaches them.  Everything else is pool tuning.
    """

    def __init__(self, worker_env: dict[str, str], *,
                 workers: int = 4,
                 recycle_after: int = 500,
                 request_timeout: float = 30.0,
                 spawn_timeout: float = 20.0,
                 argv: Optional[list[str]] = None):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if recycle_after < 1:
            raise ValueError("recycle_after must be at least 1")
        self.worker_env = dict(worker_env)
        self.pool_size = workers
        self.recycle_after = recycle_after
        self.request_timeout = request_timeout
        self.spawn_timeout = spawn_timeout
        self.argv = argv or [sys.executable, "-m",
                             "repro.appserver.worker"]
        self._idle: "queue.Queue[_Worker]" = queue.Queue()
        self._lock = threading.Lock()       # registry + counters
        self._closed = False
        self._live: dict[int, _Worker] = {}
        self._replays = 0
        self._busy_timeouts = 0
        self._dir = tempfile.mkdtemp(prefix="repro-appserver-")
        self.socket_path = os.path.join(self._dir, "dispatch.sock")
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.socket_path)
        self._listener.listen(workers * 2)
        #: serialises Popen+accept+HELLO so concurrent crash
        #: replacements cannot cross-pair connections
        self._spawn_lock = threading.Lock()
        #: the thread running a planned replacement, if one is in flight
        self._recycler: Optional[threading.Thread] = None
        #: slot -> its counters, summed over the slot's incarnations
        self._slots = {slot: dict.fromkeys(_SLOT_COUNTERS, 0)
                       for slot in range(workers)}
        try:
            for slot in range(workers):
                # Stagger the first planned recycles across one period.
                self._idle.put(self._spawn(
                    slot, recycle_after - slot * recycle_after // workers))
        except BaseException:
            self.shutdown()
            raise

    # -- CgiProgram --------------------------------------------------------

    def run(self, request: CgiRequest) -> CgiResponse:
        """Lease → exchange → (replace, replay once) → hand back."""
        deadline = request.deadline
        worker = self._checkout(deadline)
        try:
            response = self._exchange(worker, request, deadline)
        except _StreamBroken as exc:
            # The frame stream broke: the worker crashed or hung past
            # the timeout.  It is dead and reaped before anything is
            # replayed; other in-flight requests own other workers and
            # are unaffected.
            self._replace(worker)
            if request.environ.request_method.upper() not in _REPLAYABLE:
                raise CgiProtocolError(
                    f"app-server worker died mid-request: {exc}") from exc
            with self._lock:
                self._replays += 1
            worker = self._checkout(deadline)
            try:
                response = self._exchange(worker, request, deadline)
            except _StreamBroken as again:
                self._replace(worker)
                raise CgiProtocolError(
                    "app-server worker died on the replay as well: "
                    f"{again}") from again
        self._checkin(worker)
        return response

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Pool-wide counters; per-slot ones are :meth:`labeled_stats`."""
        with self._lock:
            stats = {"workers": len(self._live)}
            for name in _SLOT_COUNTERS:
                stats[name] = sum(counts[name]
                                  for counts in self._slots.values())
            stats["crash_retries"] = self._replays
            stats["busy_timeouts"] = self._busy_timeouts
        return stats

    def labeled_stats(self) -> dict[str, dict[str, int]]:
        """The ``appserver`` metrics source (``label="worker"``):
        :meth:`stats` under the empty label, each slot's counters under
        the slot number."""
        with self._lock:
            slots = {str(slot): dict(counts)
                     for slot, counts in self._slots.items()}
        return {"": self.stats(), **slots}

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, *, drain_timeout: float = 5.0) -> None:
        """Drain the pool: no new checkouts, workers finish and exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            recycler = self._recycler
        if recycler is not None:
            # A planned replacement in flight settles first (it skips
            # or completes its respawn), so the count below is exact.
            recycler.join()
        with self._lock:
            remaining = len(self._live)
        # Idle workers (and busy ones as they come back) get a graceful
        # SHUTDOWN; anything that does not return in time is reaped.
        collected = 0
        while collected < remaining:
            try:
                worker = self._idle.get(timeout=drain_timeout)
            except queue.Empty:
                break
            self._retire(worker)
            collected += 1
        with self._lock:
            stragglers = list(self._live.values())
            self._live.clear()
        for worker in stragglers:
            self._kill(worker)
        self._listener.close()
        for remove, path in ((os.unlink, self.socket_path),
                             (os.rmdir, self._dir)):
            try:
                remove(path)
            except OSError:
                pass

    # -- internals ---------------------------------------------------------

    def _checkout(self, deadline=None) -> _Worker:
        if self._closed:
            raise CgiProtocolError("app-server dispatcher is shut down")
        # The wait for a worker is bounded by the request's remaining
        # deadline budget: a request with 50 ms left must not sit 30 s
        # in the checkout queue doing dead work.
        timeout = self.request_timeout
        if deadline is not None:
            if deadline.expired:
                raise DeadlineExceededError(
                    "request deadline expired before a worker was free")
            timeout = min(timeout, deadline.remaining())
        try:
            return self._idle.get(timeout=timeout)
        except queue.Empty:
            with self._lock:
                self._busy_timeouts += 1
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "request deadline expired waiting for an "
                    "app-server worker") from None
            raise PoolExhaustedError(
                f"all {len(self._live)} app-server workers "
                f"stayed busy for {timeout:.3g}s") from None

    def _exchange(self, worker: _Worker, request: CgiRequest,
                  deadline) -> CgiResponse:
        """One REQUEST→RESPONSE round trip on a checked-out worker.

        Transport trouble raises :class:`_StreamBroken` (replace the
        worker, maybe replay); so does any frame but a ``RESPONSE``.
        Running out of deadline replaces the worker and raises
        :class:`DeadlineExceededError`.
        """
        with TRACER.span("appserver.dispatch") as span:
            span.set("slot", worker.slot)
            try:
                if deadline is not None:
                    worker.conn.settimeout(max(
                        deadline.cap(self.request_timeout), _MIN_WAIT))
                protocol.send_frame(worker.conn, protocol.FRAME_REQUEST,
                                    protocol.encode_request(request))
                frame = worker.reader.read()
            except (OSError, CgiProtocolError) as exc:
                if deadline is not None and deadline.expired:
                    # The worker may still be running the request, and
                    # may still commit: it dies before the error leaves.
                    self._replace(worker)
                    raise DeadlineExceededError(
                        "request deadline expired waiting for app-server "
                        f"worker {worker.slot}") from exc
                raise _StreamBroken(str(exc)) from exc
            if frame is None:
                raise _StreamBroken(
                    "connection closed instead of responding")
            frame_type, payload = frame
            if frame_type != protocol.FRAME_RESPONSE:
                raise _StreamBroken(
                    f"expected a RESPONSE frame, got type {frame_type}")
            try:
                response = protocol.decode_response(payload)
                if response.trace is not None:
                    # Stitch the worker-side span rows into this
                    # request's trace, under this dispatch span.
                    TRACER.graft(response.trace)
            except CgiProtocolError as exc:
                raise _StreamBroken(str(exc)) from exc
            if deadline is not None:
                worker.conn.settimeout(self.request_timeout)
            return response

    def _spawn(self, slot: int, lifetime: int) -> _Worker:
        # ``worker_env`` alone configures a worker: an ambient REPRO_*
        # variable would reach it and not the in-process engine.
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(self.worker_env)
        env["REPRO_APPSERVER_SOCKET"] = self.socket_path
        env["REPRO_APPSERVER_WORKER_ID"] = str(slot)
        # Workers must import this package regardless of how the
        # dispatcher process found it.
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (src_dir + os.pathsep + existing
                                 if existing else src_dir)
        with self._spawn_lock:
            proc = subprocess.Popen(
                self.argv, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            conn = None
            try:
                self._listener.settimeout(self.spawn_timeout)
                try:
                    conn, _ = self._listener.accept()
                except OSError as exc:
                    raise CgiProtocolError(
                        f"app-server worker {slot} never connected "
                        f"(within {self.spawn_timeout:.3g}s)") from exc
                conn.settimeout(self.request_timeout)
                worker = _Worker(slot, proc, conn, lifetime)
                frame = worker.reader.read()
                if frame is None or frame[0] != protocol.FRAME_HELLO:
                    raise CgiProtocolError(
                        f"app-server worker {slot} sent no HELLO")
                announced = protocol.decode_control(frame[1]).get(
                    "worker_id")
                if announced != slot:
                    raise CgiProtocolError(
                        f"app-server worker announced slot "
                        f"{announced!r}, expected {slot}")
            except BaseException:
                if conn is not None:
                    conn.close()
                proc.kill()
                proc.wait()
                raise
        with self._lock:
            self._live[slot] = worker
        return worker

    def _checkin(self, worker: _Worker) -> None:
        worker.served += 1
        with self._lock:
            self._slots[worker.slot]["requests"] += 1
            # At most one planned replacement at a time: a worker that
            # comes due while another is being replaced keeps serving
            # and is recycled at a later check-in.
            recycle = (worker.served >= worker.lifetime
                       and not self._closed and self._recycler is None)
            if recycle:
                self._recycler = threading.Thread(
                    target=self._recycle, args=(worker,),
                    name=f"repro-recycle-{worker.slot}", daemon=True)
                self._recycler.start()
        if not recycle:
            self._idle.put(worker)

    def _recycle(self, worker: _Worker) -> None:
        """Planned replacement after ``recycle_after`` requests; runs
        on its own thread, off the request path."""
        slot = worker.slot
        try:
            self._retire(worker)
            with self._lock:
                self._slots[slot]["recycles"] += 1
            self._respawn(slot)
        finally:
            with self._lock:
                self._recycler = None

    def _replace(self, worker: _Worker) -> None:
        """An unplanned replacement: kill and reap, count, respawn."""
        slot = worker.slot
        self._kill(worker)
        with self._lock:
            self._slots[slot]["crashes"] += 1
            self._live.pop(slot, None)
        self._respawn(slot)

    def _respawn(self, slot: int) -> None:
        if self._closed:
            return
        try:
            self._idle.put(self._spawn(slot, self.recycle_after))
        except CgiProtocolError:
            # The replacement itself failed to come up; the pool runs
            # one short, and the shortfall is visible in `workers`.
            pass

    def _retire(self, worker: _Worker) -> None:
        """Graceful exit: SHUTDOWN frame, a moment to finish, reap."""
        with self._lock:
            self._live.pop(worker.slot, None)
        try:
            protocol.send_frame(worker.conn, protocol.FRAME_SHUTDOWN)
        except OSError:
            pass
        self._kill(worker, grace=2.0)

    def _kill(self, worker: _Worker, *, grace: float = 0.0) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        try:
            worker.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            worker.proc.kill()
            worker.proc.wait()
