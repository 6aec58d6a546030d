"""Macro storage: loading, caching and naming of macro files.

"The application developer creates HTML forms and SQL commands, and stores
them in files (called macros) at the Web server" (Section 1).  The
:class:`MacroLibrary` is that store: macros are looked up by the
``{macro-file}`` component of a DB2WWW URL, read from a directory and/or
registered programmatically, parsed once and cached (with modification
-time invalidation for on-disk files, since 1996 developers edited macros
in place under a running server).
"""

from __future__ import annotations

import os
import re
import time
from pathlib import Path
from typing import Optional

from typing import Callable

from repro.core.ast import (
    HtmlInputSection,
    HtmlReportSection,
    IncludeSection,
    MacroFile,
    SqlSection,
)
from repro.core.parser import parse_macro
from repro.core.program import program_of
from repro.errors import DuplicateSectionError, MacroError
from repro.obs.trace import TRACER

#: Macro names must be simple file names — no path separators and no
#: parent references.  This is the gateway's path-traversal defence; the
#: 1996 CGI world was full of ``../../etc/passwd`` URLs.
_SAFE_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._\-]*$")

#: Conventional extension for DB2 WWW macro files (the paper's example
#: URLs use ``urlquery.d2w``).
MACRO_EXTENSION = ".d2w"


class MacroNameError(MacroError):
    """The requested macro name is unsafe or unknown."""


def validate_macro_name(name: str) -> str:
    """Validate a macro name from a URL; returns the name unchanged."""
    if not _SAFE_NAME_RE.match(name) or ".." in name:
        raise MacroNameError(f"illegal macro name {name!r}")
    return name


class MacroLibrary:
    """A collection of named macros, disk-backed and/or in-memory.

    In-memory registrations (``add_text``) shadow same-named disk files,
    which keeps tests hermetic while allowing a real macro directory in
    deployment.
    """

    def __init__(self, root: Optional[str | Path] = None, *,
                 stat_ttl: float = 0.0):
        self.root = Path(root) if root is not None else None
        #: Seconds during which a cached disk macro is served without
        #: re-``stat``-ing the file.  0 (the default) checks the mtime on
        #: every load — the faithful edit-in-place behaviour; a serving
        #: deployment sets a short TTL (e.g. 1s) so hot macros cost a
        #: dict lookup per request instead of filesystem calls.
        self.stat_ttl = stat_ttl
        self._memory: dict[str, MacroFile] = {}
        # name -> (mtime, last_stat_monotonic, parsed macro)
        self._disk_cache: dict[str, tuple[float, float, MacroFile]] = {}
        # name -> (raw, ((include, raw), ...), expanded macro) while current
        self._loaded: dict[str, tuple[MacroFile, tuple, MacroFile]] = {}

    # -- registration ------------------------------------------------------

    def add_text(self, name: str, text: str) -> MacroFile:
        """Register macro source under ``name`` (parsed immediately)."""
        validate_macro_name(name)
        macro = parse_macro(text, source=name)
        self._memory[name] = macro
        return macro

    def add_macro(self, name: str, macro: MacroFile) -> None:
        validate_macro_name(name)
        self._memory[name] = macro

    # -- lookup ---------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        try:
            validate_macro_name(name)
        except MacroNameError:
            return False
        if name in self._memory:
            return True
        return self._disk_path(name) is not None

    def names(self) -> list[str]:
        found = set(self._memory)
        if self.root is not None and self.root.is_dir():
            for path in self.root.iterdir():
                if path.is_file():
                    found.add(path.name)
        return sorted(found)

    def load(self, name: str, *, expand: bool = True) -> MacroFile:
        """Load a macro by name; raises :class:`MacroNameError` if absent.

        ``%INCLUDE`` sections are resolved (recursively, against this
        library) unless ``expand=False``; kept, compiled, until the file
        or one it includes changes.
        """
        macro = self._load_raw(name)
        if not expand:
            return macro
        loaded = self._loaded.get(name)
        if loaded is not None and loaded[0] is macro:
            for included, raw in loaded[1]:
                if self._load_raw(included) is not raw:
                    break
            else:
                return loaded[2]
        used: list[tuple[str, MacroFile]] = []

        def load_included(included: str) -> MacroFile:
            used.append((included, self._load_raw(included)))
            return used[-1][1]

        expanded = (expand_includes(macro, load_included)
                    if macro.includes() else macro)
        program_of(expanded)
        self._loaded[name] = (macro, tuple(used), expanded)
        return expanded

    def _load_raw(self, name: str) -> MacroFile:
        validate_macro_name(name)
        if name in self._memory:
            return self._memory[name]
        cached = self._disk_cache.get(name)
        now = time.monotonic()
        if (cached is not None and self.stat_ttl > 0
                and now - cached[1] < self.stat_ttl):
            return cached[2]
        path = self._disk_path(name)
        if path is None:
            raise MacroNameError(f"no such macro: {name!r}")
        mtime = os.stat(path).st_mtime
        if cached is not None and cached[0] == mtime:
            self._disk_cache[name] = (mtime, now, cached[2])
            return cached[2]
        with TRACER.span("parse") as span:
            span.set("macro", name)
            macro = parse_macro(path.read_text(encoding="utf-8"),
                                source=str(path))
        self._disk_cache[name] = (mtime, now, macro)
        return macro

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _disk_path(self, name: str) -> Optional[Path]:
        if self.root is None:
            return None
        candidate = self.root / name
        if candidate.is_file():
            return candidate
        # Allow the extension to be implied, as the DB2WWW URLs did.
        with_ext = self.root / (name + MACRO_EXTENSION)
        if with_ext.is_file():
            return with_ext
        return None


class IncludeCycleError(MacroError):
    """A chain of %INCLUDE directives loops back on itself."""

    def __init__(self, chain: list[str]):
        self.chain = list(chain)
        super().__init__("circular %INCLUDE: " + " -> ".join(self.chain))


def expand_includes(macro: MacroFile,
                    loader: Callable[[str], MacroFile],
                    *, _stack: Optional[list[str]] = None) -> MacroFile:
    """Resolve every ``%INCLUDE`` by splicing the included sections.

    ``loader`` maps an include name to its (unexpanded) macro.  The
    expansion is recursive with cycle detection, and the merged result is
    re-validated: the whole expanded macro must still have at most one
    ``%HTML_INPUT``/``%HTML_REPORT`` section, unique named SQL sections
    and at most one unnamed ``%EXEC_SQL``.
    """
    if _stack is not None:
        stack = list(_stack)
    elif macro.source is not None:
        stack = [macro.source]
    else:
        stack = []
    expanded = MacroFile(source=macro.source)
    for section in macro.sections:
        if not isinstance(section, IncludeSection):
            expanded.sections.append(section)
            continue
        if section.name in stack:
            raise IncludeCycleError(stack + [section.name])
        included = loader(section.name)
        inner = expand_includes(included, loader,
                                _stack=stack + [section.name])
        expanded.sections.extend(inner.sections)
    _validate_expanded(expanded)
    return expanded


def _validate_expanded(macro: MacroFile) -> None:
    """Cross-file constraints after include expansion."""
    if sum(isinstance(s, HtmlInputSection) for s in macro.sections) > 1:
        raise DuplicateSectionError(
            "expanded macro contains more than one %HTML_INPUT section",
            source=macro.source)
    reports = [s for s in macro.sections
               if isinstance(s, HtmlReportSection)]
    if len(reports) > 1:
        raise DuplicateSectionError(
            "expanded macro contains more than one %HTML_REPORT section",
            source=macro.source)
    names: set[str] = set()
    for section in macro.sections:
        if isinstance(section, SqlSection) and section.name is not None:
            if section.name in names:
                raise DuplicateSectionError(
                    f"expanded macro duplicates SQL section "
                    f"{section.name!r}", source=macro.source)
            names.add(section.name)
