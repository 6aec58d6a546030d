"""The steps that would block a thread, and the one signal they raise.

The HTTP edge answers a ``/cgi-bin/`` page on its event-loop thread when
the page cannot block: every statement a query-cache hit, every macro
file inside its stat TTL (:mod:`repro.http.async_server`).  It cannot
know that in advance, so it *tries*, and each step that would block
checks first, before it runs:

* a connection lease or connect (``_MacroRun._connect`` in
  :mod:`repro.core.engine`), and opening a sharded session;
* a query-cache miss or stale entry (:mod:`repro.sql.querycache`),
  before it is counted or dropped;
* a macro-file stat or read once the stat TTL has run out
  (:mod:`repro.core.macrofile`);
* an ``%EXEC`` run (:mod:`repro.core.substitution`).

The check is ``if BLOCKING.attempt is not None:`` — on every thread
the edge is not watching, one attribute read.  On the loop thread an
attempt's ``block(step)`` raises :class:`WouldBlock` and the edge hands
the request to a thread, where it runs from the start as it always
did; on a thread the edge is recording it notes the step instead.  A
query-cache hit appends its cache to ``attempt.hits``, a reused page
one entry for all its hits (counted only when the run completes, so an
abandoned attempt leaves no count), and a store adds one to
``attempt.stores``.
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
    #: the edge's attempt watching this thread's blocking steps, if any
    attempt = None


BLOCKING = _Blocking()
