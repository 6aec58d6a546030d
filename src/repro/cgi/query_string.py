"""The ``QUERY_STRING`` codec — form-urlencoding as of 1996.

Section 2.3: "all of the input sent by the Web client to the Web server
... is formatted to fit into a string and passed to a CGI application
using the QUERY_STRING environment variable."  The format is the
``application/x-www-form-urlencoded`` encoding of RFC 1738 / the HTML 2.0
forms specification:

* pairs are separated by ``&``, names from values by ``=``;
* spaces encode as ``+``;
* reserved and non-ASCII bytes encode as ``%XX`` (UTF-8 here; 1996
  practice was Latin-1, but the paper's Section 5 multi-byte discussion is
  best served by UTF-8 — see DESIGN.md);
* order is significant: repeated names are how multi-valued variables
  (the paper's ``DBFIELD``) travel, and
  :meth:`repro.core.variables.VariableStore.set_client_inputs` relies on
  arrival order.

The codec is deliberately order- and duplicate-preserving: pairs in, the
same pairs out.
"""

from __future__ import annotations

#: Characters that may appear raw in an encoded component (RFC 1738
#: "unreserved" minus ``+`` which means space here).
_SAFE = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
    "-_.*")

_HEX = "0123456789ABCDEF"


def encode_component(text: str) -> str:
    """Form-urlencode one name or value."""
    out: list[str] = []
    for byte in text.encode("utf-8"):
        ch = chr(byte)
        if ch in _SAFE:
            out.append(ch)
        elif ch == " ":
            out.append("+")
        else:
            out.append(f"%{_HEX[byte >> 4]}{_HEX[byte & 0xF]}")
    return "".join(out)


def decode_component(text: str) -> str:
    """Decode one form-urlencoded component.

    Lenient, as servers had to be: a ``%`` not followed by two hex digits
    is taken literally, and undecodable UTF-8 is replaced rather than
    rejected.
    """
    if "+" not in text and "%" not in text:
        return text  # nothing to decode: most names, many values
    out = bytearray()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "+":
            out.append(0x20)
            i += 1
        elif ch == "%" and i + 2 < n + 1 and _is_hex(text[i + 1:i + 3]):
            out.append(int(text[i + 1:i + 3], 16))
            i += 3
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    return out.decode("utf-8", "replace")


def _is_hex(pair: str) -> bool:
    return len(pair) == 2 and all(c in "0123456789abcdefABCDEF"
                                  for c in pair)


def encode_pairs(pairs: list[tuple[str, str]]) -> str:
    """Encode ``(name, value)`` pairs into a QUERY_STRING."""
    return "&".join(
        f"{encode_component(name)}={encode_component(value)}"
        for name, value in pairs)


def decode_pairs(query: str) -> list[tuple[str, str]]:
    """Decode a QUERY_STRING into ordered ``(name, value)`` pairs.

    A field without ``=`` decodes as ``(name, "")`` — consistent with the
    paper's rule that undefined and null-valued variables are identical.
    Empty fields (``a=1&&b=2``) are skipped.
    """
    pairs: list[tuple[str, str]] = []
    for field in query.split("&"):
        if not field:
            continue
        name, sep, value = field.partition("=")
        pairs.append((decode_component(name),
                      decode_component(value) if sep else ""))
    return pairs
