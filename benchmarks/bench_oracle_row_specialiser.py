"""ORACLE-ROW — the row specialiser's differential oracle, soaked.

Tier-1 runs ``tests/core/test_compiled_oracle.py`` over a few hundred
fresh examples on every push.  This is the same property — specialised
``%ROW`` rendering is indistinguishable from the interpreter: page
bytes, system variables afterwards, ``%EXEC`` runs, exceptions; buffered
and streaming — over 3 000 generated macros from a recorded seed, so
the acceptance run can be repeated exactly (run it from the repository
root: it imports the strategy from the test-suite).
"""

from hypothesis import given, seed, settings

from tests.core.test_compiled_oracle import cases, check

#: 4 June 1996: the first day of the SIGMOD conference the paper is in.
SEED = 19960604
EXAMPLES = 3000


def test_oracle_row_specialiser_soak(benchmark, artifact):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    checked = 0

    @seed(SEED)
    @settings(max_examples=EXAMPLES, deadline=None, database=None)
    @given(cases())
    def soak(case):
        nonlocal checked
        checked += 1
        check(case)

    soak()
    artifact("oracle_row_specialiser.txt",
             f"ORACLE-ROW — compiled_reports on vs off, seed {SEED}\n\n"
             f"{checked} generated macros x (buffered, streaming): "
             "no difference\n")
    assert checked >= EXAMPLES
