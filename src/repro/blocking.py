"""The steps that would block a thread, and the one signal they raise.

The HTTP edge tries every GET or HEAD of a ``loop_safe`` ``/cgi-bin/``
program on its event-loop thread (:mod:`repro.http.async_server`).  The
request runs there until a step would really block; that step raises
:class:`WouldBlock` before it blocks, and the edge replays the request
on a thread from the start.  Only reads ran, so the replay is safe.  The
steps, each checked where it happens:

* a connection that is not at hand: a lease with no idle pooled
  connection, or behind a breaker that is not closed (:mod:`repro.sql.pool`,
  ``DatabaseRegistry.connect``), a sharded session
  (:mod:`repro.core.engine`);
* in :class:`~repro.sql.gateway.MacroSqlSession`: a statement that is
  not a cacheable read, or any statement in single-transaction mode; a
  statement that fails — among them one past
  :data:`~repro.sql.connection.PROGRESS_STEPS` SQLite VM steps (its
  progress handler stops it) and one that finds the database busy
  (SQLite's busy handler is off on the loop); a result that would
  spill, once its cursor and bracket are closed;
* a macro-file stat once the stat TTL has run out
  (:mod:`repro.core.macrofile`), and an ``%EXEC`` run
  (:mod:`repro.core.substitution`);
* any sleep: a retry's backoff (:mod:`repro.resilience.retry`, the
  session) or a fault injector's stall (:mod:`repro.resilience.faults`).

On the loop ``BLOCKING.attempt`` is a list of what the run defers — the
query cache's counts and the results it stores — run in order only if
the attempt returns, so an abandoned one leaves nothing behind.  On
every other thread it is ``None``: each check is one attribute read.
"""

from __future__ import annotations

import threading

__all__ = ["BLOCKING", "WouldBlock"]


class WouldBlock(BaseException):
    """The edge's loop attempt reached a step that would block.

    A ``BaseException``: the ``except Exception`` handlers between the
    step and the edge (the gateway's 500 page, a runner's error code)
    must let it through untouched.
    """


class _Blocking(threading.local):
    #: on the edge's loop attempt, the actions it defers; else None
    attempt = None


BLOCKING = _Blocking()
