"""The cross-language variable substitution mechanism (Sections 3 and 4.3).

This module is the paper's central contribution: the lazy, recursive
evaluator that turns unevaluated variable definitions plus client inputs
into strings — HTML fragments on the way out, SQL fragments on the way in.

Semantics implemented (with the paper's wording):

* **Lazy evaluation** — "Variables are dereferenced ... when they are
  referenced directly or indirectly in an HTML input or report section";
  nothing is evaluated at definition time.
* **Recursive dereferencing** — "When a variable is evaluated to get its
  value, any variables referenced in its value string are also recursively
  evaluated."
* **Undefined is null, not an error** — "an undefined variable is not an
  error, it merely evaluates to the null string."
* **Circular references are an error** — detected with an explicit
  evaluation stack, reported with the full cycle.
* **Escapes** — ``$$(x)`` evaluates to the literal text ``$(x)`` and is
  *not* re-evaluated in the same pass.
* **Conditional variables** — forms (a)/(c) test whether the test variable
  "exists and is not null" (and, per Section 2.2, defined-as-null equals
  undefined); forms (b)/(d) yield the value only "if this value string does
  not contain any undefined (or null) variables".
* **List variables** — elements are evaluated individually and joined with
  the (dynamically evaluated) separator, "intelligent enough to add
  delimiters only if the individual value strings are not null".
* **Executable variables** — referencing one runs its command, splices the
  command's output at the reference position, and records the error code in
  the variable (null on success) for later conditional tests.
"""

from __future__ import annotations

from typing import Optional

from repro.blocking import BLOCKING, WouldBlock
from repro.core.values import Escape, Literal, Reference, ValueString
from repro.core.variables import (
    ConditionalEntry,
    Entry,
    ExecEntry,
    ListEntry,
    SimpleEntry,
    VariableStore,
)
from repro.errors import CircularReferenceError, ExecVariableError

__all__ = ["Evaluator"]


class Evaluator:
    """Evaluates value strings and variable names against a store.

    ``exec_runner`` is an object with a ``run(command: str) -> tuple[str,
    str]`` method returning ``(output, error_code)`` — see
    :mod:`repro.core.execvars`.  When no runner is supplied, referencing an
    executable variable raises :class:`ExecVariableError`, which is the
    safe default for macros from untrusted sources.
    """

    def __init__(self, store: VariableStore, *, exec_runner=None):
        self.store = store
        self.exec_runner = exec_runner
        self._stack: list[str] = []
        self._active: set[str] = set()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def evaluate(self, value: ValueString) -> str:
        """Evaluate a value string to text (the null string for nothing)."""
        return self._eval_value(value, strict=False)[0]

    def evaluate_strict(self, value: ValueString) -> Optional[str]:
        """Evaluate for conditional forms (b)/(d).

        Returns ``None`` (null) when any reference in the value string —
        directly — evaluates to the null string; otherwise the evaluated
        text.  Escaped references do not count.
        """
        text, all_defined = self._eval_value(value, strict=True)
        if not all_defined:
            return None
        return text

    def evaluate_name(self, name: str) -> str:
        """Dereference one variable; undefined evaluates to the null string."""
        entry = self.store.lookup(name)
        if entry is None:
            return ""
        if isinstance(entry, str):  # system variable: already evaluated
            return entry
        return self._eval_entry(name, entry)

    def evaluate_test(self, name: str) -> bool:
        """The "exists and is not null" test of conditional forms (a)/(c).

        For executable variables the test consults the stored error code of
        the last run instead of re-executing the command (the paper pairs
        exec and conditional variables exactly for this error-message
        pattern; re-running the command to test its outcome would be
        nonsensical).
        """
        entry = self.store.lookup(name)
        if entry is None:
            return False
        if isinstance(entry, ExecEntry):
            return entry.last_error != ""
        return self.evaluate_name(name) != ""

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _eval_value(self, value: ValueString,
                    strict: bool) -> tuple[str, bool]:
        """Evaluate a value string.

        Returns ``(text, all_defined)`` where ``all_defined`` is False when
        ``strict`` and some reference evaluated to null.
        """
        segments = value.segments
        # Fast path for the overwhelmingly common shapes — a pure-literal
        # value string (most HTML/SQL text carries no references at all)
        # needs no list build or join, and has no references for strict
        # mode to find.
        if len(segments) == 1 and type(segments[0]) is Literal:
            return segments[0].text, True
        if not segments:
            return "", True
        out: list[str] = []
        all_defined = True
        for segment in segments:
            if isinstance(segment, Literal):
                out.append(segment.text)
            elif isinstance(segment, Escape):
                out.append(f"$({segment.name})")
            elif isinstance(segment, Reference):
                text = self.evaluate_name(segment.name)
                if strict and text == "":
                    all_defined = False
                out.append(text)
            else:  # pragma: no cover - exhaustive over the union
                raise TypeError(f"unknown segment {segment!r}")
        return "".join(out), all_defined

    def _eval_entry(self, name: str, entry: Entry) -> str:
        if name in self._active:
            raise CircularReferenceError(self._stack + [name])
        self._stack.append(name)
        self._active.add(name)
        try:
            if isinstance(entry, SimpleEntry):
                return self._eval_value(entry.value, strict=False)[0]
            if isinstance(entry, ConditionalEntry):
                return self._eval_conditional(entry)
            if isinstance(entry, ListEntry):
                return self._eval_list(entry)
            if isinstance(entry, ExecEntry):
                return self._eval_exec(name, entry)
            raise TypeError(
                f"unknown entry {entry!r}")  # pragma: no cover
        finally:
            self._stack.pop()
            self._active.discard(name)

    def _eval_conditional(self, entry: ConditionalEntry) -> str:
        if entry.test_name is not None:
            # Forms (a)/(c): test variable decides the branch.
            if self.evaluate_test(entry.test_name):
                return self._eval_value(entry.then_value, strict=False)[0]
            if entry.else_value is None:
                return ""
            return self._eval_value(entry.else_value, strict=False)[0]
        # Forms (b)/(d): null if the value string has undefined/null refs.
        result = self.evaluate_strict(entry.then_value)
        if result is None:
            return ""
        return result

    def _eval_list(self, entry: ListEntry) -> str:
        separator = self._eval_value(entry.separator, strict=False)[0]
        parts: list[str] = []
        for element in entry.elements:
            if isinstance(element, SimpleEntry):
                text = self._eval_value(element.value, strict=False)[0]
            else:
                text = self._eval_conditional(element)
            if text != "":
                parts.append(text)
        return separator.join(parts)

    def _eval_exec(self, name: str, entry: ExecEntry) -> str:
        if self.exec_runner is None:
            raise ExecVariableError(
                f"executable variable {name!r} referenced but no exec "
                "runner is configured")
        command = self._eval_value(entry.command, strict=False)[0]
        # Every runner is called from here, so this one check keeps any
        # of them off the edge's event loop (repro.blocking).
        if BLOCKING.attempt is not None:
            raise WouldBlock("exec")
        output, error_code = self.exec_runner.run(command)
        entry.last_error = error_code
        return output
