"""ORACLE-ROW, ORACLE-WHOLE and ORACLE-PAGE — the compiled path's
differential oracles and the page memo's, soaked.

Tier-1 runs ``tests/core/test_compiled_oracle.py`` over a few hundred
fresh examples on every push.  These are the same two properties over
many more generated cases from a recorded seed, so the acceptance run can
be repeated exactly (run it from the repository root: it imports the
strategies from the test-suite):

* ORACLE-ROW: specialised ``%ROW`` rendering is indistinguishable from
  the interpreter — page bytes, system variables afterwards, ``%EXEC``
  runs, exceptions; buffered and streaming — over 3 000 macros;
* ORACLE-WHOLE: whole macros run by their load-time program, several
  requests in a row on one engine (so compiled plans are reused under
  changed client inputs), are indistinguishable from the interpreter —
  the same observables plus statements, errors, content type and the
  database the writes leave — over 2 000 macros;
* ORACLE-PAGE: request sequences that repeat pages (reused whole from
  the query cache) and interleave writes through the same engine, a
  second engine, a direct connection and an edit of the macro file are
  answered with the status, content type and bytes of a cold engine
  (interpreter, no cache) — over 3 000 sequences.
"""

import os
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings

from tests.core.test_compiled_oracle import (
    cases,
    check,
    check_whole,
    whole_cases,
)
from tests.core.test_page_memo import check_sequence, page_sequences

#: 4 June 1996: the first day of the SIGMOD conference the paper is in.
SEED = 19960604
EXAMPLES = 3000
WHOLE_EXAMPLES = 2000
PAGE_EXAMPLES = 3000


def soaked(strategy, checker, examples):
    """Run ``checker`` over ``examples`` seeded draws; the count run."""
    checked = 0

    @seed(SEED)
    @settings(max_examples=examples, deadline=None, database=None)
    @given(strategy)
    def soak(case):
        nonlocal checked
        checked += 1
        checker(case)

    soak()
    return checked


def test_oracle_row_specialiser_soak(benchmark, artifact):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    checked = soaked(cases(), check, EXAMPLES)
    artifact("oracle_row_specialiser.txt",
             f"ORACLE-ROW — compiled_reports on vs off, seed {SEED}\n\n"
             f"{checked} generated macros x (buffered, streaming): "
             "no difference\n")
    assert checked >= EXAMPLES


def test_oracle_whole_report_soak(benchmark, artifact):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    checked = soaked(whole_cases(), check_whole, WHOLE_EXAMPLES)
    artifact("oracle_whole_report.txt",
             f"ORACLE-WHOLE — compiled_reports on vs off, seed {SEED}\n\n"
             f"{checked} generated macros, 2-4 requests each on one "
             "engine x (buffered, streaming): no difference\n")
    assert checked >= WHOLE_EXAMPLES


def test_oracle_page_memo_soak(benchmark, artifact):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # The macro file is rewritten for every sequence: on tmpfs where
    # there is one, so the soak measures the engine, not the disk.
    shm = "/dev/shm" if os.path.isdir("/dev/shm") else None
    with tempfile.TemporaryDirectory(dir=shm) as root:
        checked = soaked(
            page_sequences(),
            lambda drawn: check_sequence(Path(root), drawn),
            PAGE_EXAMPLES)
    artifact("oracle_page_memo.txt",
             f"ORACLE-PAGE — page memo vs a cold engine, seed {SEED}\n\n"
             f"{checked} generated request sequences (repeats, writes "
             "through four paths, macro edits): no difference\n")
    assert checked >= PAGE_EXAMPLES
