"""Access logging in the NCSA Common Log Format.

Every 1996 server wrote one of these; analysis tooling of the era (and
of today) understands it:

``host ident authuser [date] "request line" status bytes``

:class:`AccessLog` collects entries in memory and/or appends them to a
file; the router calls :meth:`record` per request when a log is
attached.  The format function and parser are exposed separately so the
workload harness can post-process logs.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.http.message import HttpRequest, HttpResponse

_CLF_RE = re.compile(
    r'^(?P<host>\S+) (?P<ident>\S+) (?P<user>\S+) '
    r'\[(?P<when>[^\]]+)\] "(?P<request>[^"]*)" '
    r'(?P<status>\d{3}) (?P<size>\d+|-)$')

#: strftime format of the CLF timestamp field.
CLF_TIME_FORMAT = "%d/%b/%Y:%H:%M:%S %z"


@dataclass(frozen=True)
class LogEntry:
    """One access-log line, parsed."""

    host: str
    request_line: str
    status: int
    size: int
    when: str
    ident: str = "-"
    user: str = "-"

    @property
    def method(self) -> str:
        return self.request_line.split(" ")[0] if self.request_line \
            else ""

    @property
    def path(self) -> str:
        parts = self.request_line.split(" ")
        return parts[1] if len(parts) > 1 else ""

    def format(self) -> str:
        size = str(self.size) if self.size >= 0 else "-"
        return (f'{self.host} {self.ident} {self.user} [{self.when}] '
                f'"{self.request_line}" {self.status} {size}')


def parse_line(line: str) -> Optional[LogEntry]:
    """Parse one CLF line; ``None`` when it is not CLF."""
    match = _CLF_RE.match(line.strip())
    if match is None:
        return None
    size_text = match.group("size")
    return LogEntry(
        host=match.group("host"),
        ident=match.group("ident"),
        user=match.group("user"),
        when=match.group("when"),
        request_line=match.group("request"),
        status=int(match.group("status")),
        size=-1 if size_text == "-" else int(size_text),
    )


class AccessLog:
    """Collects access-log entries; optionally appends to a file.

    Thread-safe (the server handles connections on threads).  Keeps the
    most recent ``max_entries`` in memory for tests and the stats
    helper regardless of file output.
    """

    def __init__(self, path: Optional[str | Path] = None, *,
                 max_entries: int = 10_000, metrics=None):
        self.path = Path(path) if path is not None else None
        self.max_entries = max_entries
        #: optional repro.obs.metrics.MetricsRegistry whose samples the
        #: ``#stats`` trailer carries (see :meth:`append_stats_note`).
        self.metrics = metrics
        self._entries: list[LogEntry] = []
        self._lock = threading.Lock()

    def record(self, request: HttpRequest, response: HttpResponse, *,
               remote_addr: str = "-",
               now: Optional[float] = None,
               size: Optional[int] = None) -> LogEntry:
        """Record one served request.

        ``size`` is the number of body bytes actually emitted.  It must
        be passed for streamed responses — ``response.size`` counts only
        the buffered prefix while ``body_iter`` carries the page, so the
        default would log that alone.  The router's
        streaming wrapper counts chunks as the transport pulls them and
        records the entry at stream close with the true total.
        """
        when = time.strftime(
            CLF_TIME_FORMAT,
            time.localtime(now if now is not None else time.time()))
        entry = LogEntry(
            host=remote_addr or "-",
            when=when,
            request_line=(f"{request.method} {request.target} "
                          f"{request.version}"),
            status=response.status,
            size=size if size is not None else response.size,
        )
        with self._lock:
            self._entries.append(entry)
            if len(self._entries) > self.max_entries:
                del self._entries[:-self.max_entries]
            if self.path is not None:
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(entry.format() + "\n")
        return entry

    def append_stats_note(self) -> Optional[str]:
        """Append a ``#stats {json}`` trailer line to the log file.

        CLF has no place for server-side counters, so deployments write
        them as comment lines the CLF parser skips; ``repro stats``
        recognises and reports them.  With a metrics registry attached
        the trailer is the registry's
        :meth:`~repro.obs.metrics.MetricsRegistry.flat` view — every sample
        under the name the ``/metrics`` scrape gives it — otherwise the
        log's own :meth:`stats`.  Returns the line written, or ``None``
        when the log has no file.
        """
        if self.path is None:
            return None
        # outside the lock: stats() locks too
        stats = self.metrics.flat() if self.metrics is not None \
            else self.stats()
        line = "#stats " + json.dumps(stats, sort_keys=True)
        with self._lock:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return line

    # -- inspection ---------------------------------------------------------

    def entries(self) -> list[LogEntry]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """The webmaster's morning numbers: hits, errors, bytes."""
        with self._lock:
            entries = list(self._entries)
        return {
            "hits": len(entries),
            "errors": sum(1 for e in entries if e.status >= 400),
            "bytes": sum(max(e.size, 0) for e in entries),
        }
