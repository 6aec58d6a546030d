"""Cursor: the result-set handle the report generator consumes.

Section 3.2.1's report machinery needs exactly this surface: column names
("The SQL query is initiated before the SQL report block is processed, and
the names of the columns are retrieved"), then row-at-a-time fetching so
the ``%ROW`` template is "printed out repeatedly as each row is fetched",
and a final count for ``ROW_NUM`` even when ``RPT_MAXROWS`` stopped the
printing early.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Iterator, Optional

from repro.errors import ConnectionClosedError


class Cursor:
    """Wraps a ``sqlite3`` cursor with name/row accessors."""

    def __init__(self, raw: sqlite3.Cursor, sql: str):
        self._raw = raw
        self.sql = sql
        self._closed = False

    # -- metadata ---------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        """Names of the result columns (empty for non-query statements)."""
        if self._raw.description is None:
            return []
        return [d[0] for d in self._raw.description]

    @property
    def has_result_set(self) -> bool:
        return self._raw.description is not None

    @property
    def rowcount(self) -> int:
        """Rows affected by a DML statement (-1 for queries, as in DB-API)."""
        return self._raw.rowcount

    @property
    def lastrowid(self) -> Optional[int]:
        return self._raw.lastrowid

    # -- fetching ---------------------------------------------------------

    def fetchone(self) -> Optional[tuple[Any, ...]]:
        self._check_open()
        try:
            row = self._raw.fetchone()
        except sqlite3.Error as exc:
            raise self._translated(exc) from exc
        if row is None:
            return None
        return tuple(row)

    def fetchall(self) -> list[tuple[Any, ...]]:
        self._check_open()
        try:
            return [tuple(row) for row in self._raw.fetchall()]
        except sqlite3.Error as exc:
            raise self._translated(exc) from exc

    def fetchmany(self, size: int) -> list[tuple[Any, ...]]:
        self._check_open()
        try:
            return [tuple(row) for row in self._raw.fetchmany(size)]
        except sqlite3.Error as exc:
            raise self._translated(exc) from exc

    def _translated(self, exc: sqlite3.Error) -> Exception:
        """A fetch's failure (the statement steps on as rows are read:
        an interrupt, a busy database, a runtime error) as the gateway's
        :class:`~repro.errors.SQLError`, as ``Connection.execute`` does
        for the first step."""
        from repro.sql.connection import translate_error  # import cycle
        return translate_error(exc, self.sql)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._raw.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError("cursor is closed")

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def value_to_text(value: Any) -> str:
    """Render one column value the way the 1996 gateway printed it.

    NULL prints as the empty string (so that undefined-is-null composes
    with the conditional-variable idioms); floats drop a trailing ``.0``
    when they are integral, matching the paper's integer-looking examples
    (``custid = 10100``).
    """
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    return str(value)
