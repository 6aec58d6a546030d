"""HTTP header collection: ordered, case-insensitive, repeat-capable."""

from __future__ import annotations

from typing import Iterator, Optional


class Headers:
    """An ordered multimap of HTTP headers.

    Lookup is case-insensitive (RFC 1945 §4.2); insertion order and the
    original spelling are preserved for serialisation.
    """

    def __init__(self, items: Optional[list[tuple[str, str]]] = None):
        self._items: list[tuple[str, str]] = list(items or [])

    # -- mutation --------------------------------------------------------

    def add(self, name: str, value: str) -> None:
        self._items.append((name, value))

    def set(self, name: str, value: str) -> None:
        """Replace all occurrences of ``name`` with a single value."""
        folded = name.lower()
        items = self._items
        for key, _ in items:
            if key.lower() == folded:
                self._items = items = [(k, v) for k, v in items
                                       if k.lower() != folded]
                break
        items.append((name, value))

    def setdefault(self, name: str, value: str) -> None:
        if name not in self:
            self.add(name, value)

    def remove(self, name: str) -> None:
        folded = name.lower()
        self._items = [(k, v) for k, v in self._items
                       if k.lower() != folded]

    # -- access ----------------------------------------------------------

    def get(self, name: str, default: str = "") -> str:
        folded = name.lower()
        for key, value in self._items:
            if key.lower() == folded:
                return value
        return default

    def get_all(self, name: str) -> list[str]:
        folded = name.lower()
        return [v for k, v in self._items if k.lower() == folded]

    def __contains__(self, name: str) -> bool:
        folded = name.lower()
        for key, _ in self._items:
            if key.lower() == folded:
                return True
        return False

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
