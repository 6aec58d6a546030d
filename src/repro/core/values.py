"""Value strings: the unit of text the substitution mechanism operates on.

Everywhere the macro language of the paper carries text — the right-hand
side of a ``%DEFINE`` assignment, the body of a SQL command, the HTML of an
input or report section, a ``%LIST`` separator — that text may embed
*variable references* of the form ``$(varname)`` and *escapes* of the form
``$$(varname)`` (Section 3.1.1).  This module parses such text once into a
:class:`ValueString`, a sequence of typed segments, so the evaluator in
:mod:`repro.core.substitution` never re-scans raw text.

Segment kinds
-------------

``Literal``
    Plain text copied verbatim to the output.
``Reference``
    ``$(name)`` — substituted with the variable's run-time value.
``Escape``
    ``$$(name)`` — the paper's escape: the leading ``$`` is stripped and the
    text ``$(name)`` appears literally in the output of *this* evaluation
    pass.  (Appendix A uses this to hide variables from the end user: the
    literal survives one CGI round trip and is re-parsed as a reference on
    the next.)

Anything else containing ``$`` — a lone dollar, ``$name`` without
parentheses, an unterminated ``$(`` — is treated as literal text.  The
paper never defines those forms, and 1996-era HTML/SQL text is full of
innocent dollar signs.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

#: Variable names: a letter or underscore followed by alphanumerics,
#: underscores, dots or dashes.  Dots and dashes are included because the
#: implicit report variables of Section 3.2.1 are spelled both
#: ``N_column-name`` and ``N.column-name`` in the paper, and SQL column
#: names may contain either character.
VARNAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")

_TOKEN_RE = re.compile(
    r"\$\$\((?P<escaped>[A-Za-z_][A-Za-z0-9_.\-]*)\)"
    r"|\$\((?P<ref>[A-Za-z_][A-Za-z0-9_.\-]*)\)"
)


@dataclass(frozen=True)
class Literal:
    """Plain text emitted verbatim."""

    text: str

    def unparse(self) -> str:
        return self.text


@dataclass(frozen=True)
class Reference:
    """A ``$(name)`` variable reference."""

    name: str

    def unparse(self) -> str:
        return f"$({self.name})"


@dataclass(frozen=True)
class Escape:
    """A ``$$(name)`` escape producing the literal text ``$(name)``."""

    name: str

    def unparse(self) -> str:
        return f"$$({self.name})"


Segment = Union[Literal, Reference, Escape]


class ValueString:
    """A parsed value string: an immutable sequence of segments.

    Instances are hashable and comparable, which the test-suite's
    property-based round-trip checks rely on.
    """

    __slots__ = ("segments", "_raw", "text")

    def __init__(self, segments: tuple[Segment, ...], raw: str):
        self.segments = segments
        self._raw = raw
        #: What this value evaluates to when it references no variable
        #: (an escape is fixed text), else ``None``.
        self.text: Optional[str] = None if any(
            type(segment) is Reference for segment in segments) else "".join(
            segment.text if type(segment) is Literal else f"$({segment.name})"
            for segment in segments)

    # -- construction -------------------------------------------------

    @classmethod
    @functools.lru_cache(maxsize=4096)
    def parse(cls, text: str) -> "ValueString":
        """Parse raw macro text into a value string.

        The scan is a single left-to-right pass; ``$$(name)`` is matched
        before ``$(name)`` so the escape always wins (the paper's "prefixed
        with another $" rule).  Immutable, so shared per distinct text.
        """
        segments: list[Segment] = []
        pos = 0
        for match in _TOKEN_RE.finditer(text):
            if match.start() > pos:
                segments.append(Literal(text[pos:match.start()]))
            escaped = match.group("escaped")
            if escaped is not None:
                segments.append(Escape(escaped))
            else:
                segments.append(Reference(match.group("ref")))
            pos = match.end()
        if pos < len(text):
            segments.append(Literal(text[pos:]))
        return cls(tuple(segments), text)

    @classmethod
    def literal(cls, text: str) -> "ValueString":
        """Build a value string that is pure literal text (no scanning)."""
        if text:
            return cls((Literal(text),), text)
        return cls((), text)

    # -- inspection ---------------------------------------------------

    @property
    def raw(self) -> str:
        """The original source text, exactly as written in the macro."""
        return self._raw

    def references(self) -> Iterator[str]:
        """Yield the names referenced (not escaped) in this value string."""
        for segment in self.segments:
            if isinstance(segment, Reference):
                yield segment.name

    def escapes(self) -> Iterator[str]:
        """Yield the names appearing in ``$$(name)`` escapes.

        An escape is a *deferred* reference — it becomes ``$(name)`` in
        the output and is typically dereferenced on the next request
        (the hidden-variable idiom) — so tooling that reasons about
        variable usage must see these names too.
        """
        for segment in self.segments:
            if isinstance(segment, Escape):
                yield segment.name

    def has_references(self) -> bool:
        return any(isinstance(s, Reference) for s in self.segments)

    def is_literal_only(self) -> bool:
        return all(isinstance(s, Literal) for s in self.segments)

    def unparse(self) -> str:
        """Reproduce source text equivalent to what was parsed."""
        return "".join(segment.unparse() for segment in self.segments)

    # -- dunder -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueString):
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ValueString({self._raw!r})"


#: The empty value string, shared since it is requested constantly.
EMPTY = ValueString.literal("")
