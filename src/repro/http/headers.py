"""HTTP header collection: ordered, case-insensitive, repeat-capable."""

from __future__ import annotations

from typing import Iterator, Optional


class Headers:
    """An ordered multimap of HTTP headers.

    Lookup is case-insensitive (RFC 1945 §4.2); insertion order and the
    original spelling are preserved for serialisation.  Each name is
    folded to lower case once, when it is stored (``folded``, parallel
    to the items), so a lookup folds only the name it is asked for.
    """

    def __init__(self, items: Optional[list[tuple[str, str]]] = None):
        self._items: list[tuple[str, str]] = list(items or [])
        #: ``_items``' names, lower-cased, in the same order
        self.folded: list[str] = [name.lower() for name, _ in self._items]

    # -- mutation --------------------------------------------------------

    def add(self, name: str, value: str) -> None:
        self._items.append((name, value))
        self.folded.append(name.lower())

    def set(self, name: str, value: str) -> None:
        """Replace all occurrences of ``name`` with a single value."""
        folded = name.lower()
        if folded in self.folded:
            self._drop(folded)
        self._items.append((name, value))
        self.folded.append(folded)

    def setdefault(self, name: str, value: str) -> None:
        if name not in self:
            self.add(name, value)

    def remove(self, name: str) -> None:
        self._drop(name.lower())

    def _drop(self, folded: str) -> None:
        kept = [(item, key) for item, key in zip(self._items, self.folded)
                if key != folded]
        self._items = [item for item, _ in kept]
        self.folded = [key for _, key in kept]

    # -- access ----------------------------------------------------------

    def get(self, name: str, default: str = "") -> str:
        folded = name.lower()
        if folded in self.folded:
            return self._items[self.folded.index(folded)][1]
        return default

    def get_all(self, name: str) -> list[str]:
        folded = name.lower()
        return [value for (_, value), key in zip(self._items, self.folded)
                if key == folded]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.folded

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> list[tuple[str, str]]:
        return list(self._items)

    # -- wire format -------------------------------------------------------

    def serialize(self) -> str:
        return "".join(f"{key}: {value}\r\n" for key, value in self._items)

    @classmethod
    def parse_lines(cls, lines: list[str]) -> "Headers":
        """Parse header lines (no terminating blank line expected).

        Continuation lines (leading whitespace) extend the previous header
        value, as HTTP/1.0 allowed.
        """
        headers = cls()
        for line in lines:
            if not line.strip():
                continue
            if line[0] in " \t" and headers._items:
                name, value = headers._items[-1]
                headers._items[-1] = (name, value + " " + line.strip())
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers.add(name.strip(), value.strip())
        return headers

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Headers({self._items!r})"
