"""The one strict reading of a decimal integer somebody typed.

``RPT_MAXROWS`` in a form field, ``?limit=`` on ``/statements``,
``REPRO_POOL_SIZE`` in a worker's environment: each is text from outside
the program that should mean a plain non-negative number or nothing.
(The edge's ``Content-Length`` check in :mod:`repro.http.message` is the
same rule without the whitespace allowance, which HTTP forbids.)
"""

from __future__ import annotations

import re
from typing import Optional

_DECIMAL_RE = re.compile(r"\s*([0-9]+)\s*", re.ASCII)


def parse_decimal(text: str) -> Optional[int]:
    """``text`` as a non-negative decimal integer, or ``None``.

    ASCII digits with optional surrounding whitespace and nothing else:
    ``int()`` alone would also take ``1_0``, ``+2`` and any Unicode
    decimal digit.  Digit runs beyond the interpreter's int conversion
    limit are ``None`` too, not an exception.
    """
    match = _DECIMAL_RE.fullmatch(text)
    if match is None:
        return None
    try:
        return int(match.group(1))
    except ValueError:
        return None
