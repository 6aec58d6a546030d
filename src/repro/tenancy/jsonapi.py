"""The content-negotiated JSON API — every macro report, as data.

"An extensible web interface for databases" (PAPERS.md) argues the web
layer should expose many schemas behind one generic interface; the last
step of that argument is that *presentation* is a property of the
request, not the macro.  A client sending ``Accept: application/json``
(or ``?format=json``) gets the same ``%SQL_REPORT`` row pipeline — same
SQL, same spill rule, same caching and quotas — rendered as a
JSON envelope instead of HTML, so every existing macro becomes an API
endpoint without being edited.

The envelope::

    {"tenant": "shop", "macro": "orders.d2w", "command": "report",
     "results": [
       {"columns": ["ID", "TOTAL"],
        "rows": [{"ID": 1, "TOTAL": 9.5}, ...],
        "row_count": 2}
     ]}

One ``results`` entry per executed SQL section, in macro order; a
non-query statement contributes ``{"statement": "ok", "rowcount": n}``.
A result past the spill budget streams straight off the live cursor,
exactly like the HTML path.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional

from repro.cgi.environ import CgiEnvironment
from repro.cgi.query_string import decode_pairs
from repro.core.report import ReportGenerator, RowRenderer
from repro.sql.cursor import value_to_text
from repro.sql.gateway import ExecutionResult

JSON_CONTENT_TYPE = "application/json"

#: The query variable that forces JSON without an Accept header
#: (handy for browsers and curl one-liners).
FORMAT_VARIABLE = "format"


def wants_json(environ: CgiEnvironment) -> bool:
    """True when this request negotiates the JSON rendering.

    Either the ``Accept`` header names ``application/json`` or the query
    string carries ``format=json``.  Absent both, the response is the
    existing HTML pipeline, byte for byte.
    """
    accept = environ.http_headers.get("Accept", "")
    if JSON_CONTENT_TYPE in accept.lower():
        return True
    for name, value in decode_pairs(environ.query_string):
        if name == FORMAT_VARIABLE and value.strip().lower() == "json":
            return True
    return False


def _json_value(value):
    """A cell as its natural JSON type; exotic types via value_to_text."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return value_to_text(value)


class JsonRowRenderer(RowRenderer):
    """Streams executed SQL sections as the JSON envelope above.

    Stateful per request: the first section opens the envelope, each
    section appends one ``results`` entry row by row, and
    :meth:`finish` closes it (opening it first when the macro ran no
    SQL, so the output is always a complete document).
    """

    content_type = JSON_CONTENT_TYPE
    suppress_free_text = True

    def __init__(self, *, tenant: str = "", macro: str = "",
                 command: str = ""):
        self.tenant = tenant
        self.macro = macro
        self.command = command
        self._opened = False
        self._sections = 0

    # ------------------------------------------------------------------

    def _open(self) -> str:
        self._opened = True
        meta = {key: value for key, value in (
            ("tenant", self.tenant), ("macro", self.macro),
            ("command", self.command)) if value}
        # json.dumps({...}) minus its closing brace, then the results
        # array the sections stream into.
        head = json.dumps(meta)[:-1].rstrip()
        if meta:
            head += ", "
        return head + '"results": ['

    def render_iter(self, section, result: ExecutionResult,
                    generator: ReportGenerator) -> Iterator[str]:
        if not self._opened:
            yield self._open()
        if self._sections:
            yield ", "
        self._sections += 1
        if not result.is_query:
            generator.store.set_system("ROW_NUM", "0")
            generator.store.set_system("ROWCOUNT", str(result.rowcount))
            yield json.dumps({"statement": "ok",
                              "rowcount": result.rowcount})
            return
        # Same implicit-variable bookkeeping as the HTML paths, so a
        # macro that branches on ROW_NUM/ROWCOUNT after a section sees
        # identical state under either rendering.
        generator._install_column_names(result)
        columns = list(result.columns)
        yield ('{"columns": ' + json.dumps(columns) + ', "rows": [')
        row_num = 0
        for row in result.iter_rows():
            row_num += 1
            record = {name: _json_value(value)
                      for name, value in zip(columns, row)}
            yield (", " if row_num > 1 else "") + json.dumps(record)
        generator.store.set_system("ROW_NUM", str(row_num))
        generator.store.set_system("ROWCOUNT", str(result.row_total))
        yield '], "row_count": ' + str(result.row_total) + "}"

    def finish(self) -> Iterator[str]:
        if not self._opened:
            yield self._open()
        yield "]}\n"


def negotiated_renderer(environ: CgiEnvironment
                        ) -> Optional[JsonRowRenderer]:
    """The renderer for this request, or ``None`` for plain HTML."""
    if not wants_json(environ):
        return None
    parts = [part for part in environ.path_info.split("/") if part]
    return JsonRowRenderer(
        tenant=environ.tenant,
        macro=parts[0] if parts else "",
        command=parts[1] if len(parts) > 1 else "")
