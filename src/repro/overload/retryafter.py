"""One shared definition of ``Retry-After`` for every 503 we send.

Before this module, each call site invented its own semantics: the
HTTP edge hard-coded ``Retry-After: 1``, the circuit breaker shipped a
raw (possibly negative) float on
:class:`~repro.errors.CircuitOpenError`, and the CGI gateway ceil'd
whatever arrived.  A client that honours the header deserves one
answer, so the rules live here:

* **Carriers** (exception attributes, frame fields) hold a *seconds
  hint* as a non-negative finite float — :func:`clamp_retry_hint`.
* **Headers** hold an integral number of seconds, at least 1 (RFC 7231
  allows 0 but real clients treat it as "hammer immediately"), capped
  so a transient stall never tells a client to go away for an hour —
  :func:`retry_after_seconds` / :func:`retry_after_header`.
* **Honesty**: when queue state is known, the hint is *computed* from
  it — :func:`queue_retry_hint` estimates when the current backlog
  will have drained at the observed service rate, which is when a
  retry has a real chance of being admitted.
"""

from __future__ import annotations

import math
from typing import Optional

#: Never tell a client to wait longer than this (seconds); a 503 is a
#: transient condition and the estimate degrades fast anyway.
MAX_RETRY_AFTER = 60.0


def clamp_retry_hint(seconds: Optional[float],
                     default: float = 1.0) -> float:
    """A seconds hint made safe to carry on an error object.

    Negative, NaN and infinite values (a breaker whose reset window
    just elapsed computes ``reset_timeout - elapsed`` slightly below
    zero) collapse to 0.0; ``None`` means "no idea" and yields
    ``default``.
    """
    if seconds is None:
        return default
    if not math.isfinite(seconds) or seconds < 0.0:
        return 0.0
    return float(seconds)


def retry_after_seconds(hint: Optional[float], *,
                        minimum: int = 1,
                        maximum: float = MAX_RETRY_AFTER) -> int:
    """The integral header value for a seconds hint.

    Rounds up (a client told "1" must not retry after 0.4s when the
    estimate was 0.5s), floors at ``minimum`` and caps at ``maximum``.
    """
    if hint is None or not math.isfinite(hint):
        return minimum
    return int(max(minimum, min(math.ceil(hint), math.ceil(maximum))))


def retry_after_header(hint: Optional[float], *,
                       minimum: int = 1,
                       maximum: float = MAX_RETRY_AFTER) -> str:
    """``Retry-After`` header value (delta-seconds form) for a hint."""
    return str(retry_after_seconds(hint, minimum=minimum,
                                   maximum=maximum))


def queue_retry_hint(queue_depth: int,
                     service_rate: float) -> Optional[float]:
    """Seconds until a retry is likely to be admitted.

    The backlog of ``queue_depth`` waiters drains at ``service_rate``
    completions per second; a client retrying after that window joins a
    (mostly) empty queue.  ``None`` when the rate is unknown or zero —
    the caller falls back to the 1-second default.
    """
    if service_rate <= 0.0 or not math.isfinite(service_rate):
        return None
    return (queue_depth + 1) / service_rate
