"""PERF-RPT — report generation versus result-set size.

Sweeps the number of result rows through custom ``%ROW`` reports, the
default table format, and ``RPT_MAXROWS`` cutoffs.  Expected shape:
time linear in *fetched* rows; RPT_MAXROWS caps the printing cost but
not the fetch/count cost (ROW_NUM still reports the true total), so a
capped report over many rows sits between the uncapped small and large
cases.
"""

import pytest

from repro.core.engine import EngineConfig, MacroEngine
from repro.core.parser import parse_macro
from repro.sql.gateway import DatabaseRegistry

ROW_COUNTS = [10, 100, 1000, 5000]

#: Result-set size for the compiled-vs-interpreted comparison; large
#: enough that per-row rendering dominates parse/connect overheads.
SPEEDUP_ROWS = 10_000


@pytest.fixture(scope="module")
def registry():
    reg = DatabaseRegistry()
    db = reg.register_memory("BIG")
    with db.connect() as conn:
        conn.executescript(
            "CREATE TABLE wide (n INTEGER, a TEXT, b TEXT, c TEXT);")
        conn.begin()
        for i in range(max(ROW_COUNTS + [SPEEDUP_ROWS])):
            conn.execute(
                "INSERT INTO wide VALUES (?, ?, ?, ?)",
                (i, f"alpha-{i}", f"beta-{i}", f"gamma-{i}"))
        conn.commit()
    return reg


def custom_macro(limit_define: str = "") -> str:
    return f"""
%DEFINE DATABASE = "BIG"
{limit_define}
%SQL{{
SELECT n, a, b, c FROM wide WHERE n < $(max_n) ORDER BY n
%SQL_REPORT{{
<TABLE>
%ROW{{<TR><TD>$(V1)</TD><TD>$(V_a)</TD><TD>$(V_b)</TD><TD>$(V_c)</TD></TR>
%}}
</TABLE><P>$(ROW_NUM) rows</P>
%}}
%}}
%HTML_REPORT{{%EXEC_SQL%}}
"""


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_perf_rpt_custom_report(benchmark, registry, rows):
    engine = MacroEngine(registry)
    macro = parse_macro(custom_macro())

    result = benchmark(engine.execute_report, macro,
                       [("max_n", str(rows))])
    assert f"<P>{rows} rows</P>" in result.html


@pytest.mark.parametrize("rows", [100, 5000])
def test_perf_rpt_default_table(benchmark, registry, rows):
    engine = MacroEngine(registry)
    macro = parse_macro("""
%DEFINE DATABASE = "BIG"
%SQL{ SELECT n, a FROM wide WHERE n < $(max_n) %}
%HTML_REPORT{%EXEC_SQL%}
""")
    result = benchmark(engine.execute_report, macro,
                       [("max_n", str(rows))])
    assert result.html.count("<TR>") == rows + 1  # + header row


def test_perf_rpt_maxrows_caps_printing(benchmark, registry):
    """5000 rows fetched, 50 printed: cheaper than printing all 5000."""
    engine = MacroEngine(registry)
    macro = parse_macro(custom_macro('%DEFINE RPT_MAXROWS = "50"'))

    result = benchmark(engine.execute_report, macro,
                       [("max_n", "5000")])
    assert result.html.count("<TR>") == 50
    assert "<P>5000 rows</P>" in result.html  # ROW_NUM = true total


#: The paper's Appendix A row shape: two form-(b) conditionals over
#: row values and one variable only the client supplies.
APPENDIX_A_SHAPED = """
%DEFINE DATABASE = "BIG"
%DEFINE D2 = ? "<BR>$(V2)"
%DEFINE D3 = ? "<BR>$(V3)"
%SQL{
SELECT n, a, b, c FROM wide WHERE n < $(max_n) ORDER BY n
%SQL_REPORT{
<UL>
%ROW{<LI> <A HREF="$(base)$(V1)">$(V1)</A> $(D2) $(D3)
%}
</UL><P>$(ROW_NUM) rows</P>
%}
%}
%HTML_REPORT{%EXEC_SQL%}
"""


def _rows_per_second(engine, macro, rows, *, rounds=3):
    import time
    inputs = [("max_n", str(rows)), ("base", "/item/")]
    engine.execute_report(macro, inputs)  # warm up
    start = time.perf_counter()
    for _ in range(rounds):
        result = engine.execute_report(macro, inputs)
    elapsed = (time.perf_counter() - start) / rounds
    assert f"<P>{rows} rows</P>" in result.html
    return rows / elapsed


def test_perf_rpt_compiled_speedup(benchmark, registry, artifact):
    """Specialised %ROW rendering vs the interpreted evaluator, 10k rows.

    The specialised path replaces per-row ``set_system`` rebuilds and
    Evaluator dispatch with direct tuple indexing.  Two bars: >= 2x
    rows/sec on an implicit-only row (no ``%DEFINE`` in sight), and
    >= 3x on an Appendix-A-shaped row, where the interpreter also
    re-walks two conditional definitions and a client value per row.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    compiled_engine = MacroEngine(registry)
    interpreted_engine = MacroEngine(
        registry, config=EngineConfig(compiled_reports=False))

    lines = [f"PERF-RPT — compiled vs interpreted %ROW, "
             f"{SPEEDUP_ROWS} rows", ""]
    speedups = {}
    for shape, text in [("implicit-only", custom_macro()),
                        ("appendix-a-shaped", APPENDIX_A_SHAPED)]:
        macro = parse_macro(text)
        compiled_rps = _rows_per_second(
            compiled_engine, macro, SPEEDUP_ROWS)
        interpreted_rps = _rows_per_second(
            interpreted_engine, macro, SPEEDUP_ROWS)
        speedups[shape] = compiled_rps / interpreted_rps
        lines += [
            f"{shape} row",
            f"{'path':<14}{'rows_per_s':>14}",
            f"{'interpreted':<14}{interpreted_rps:>14.0f}",
            f"{'compiled':<14}{compiled_rps:>14.0f}",
            f"speedup: {speedups[shape]:.2f}x",
            "",
        ]
    artifact("perf_compiled_speedup.txt", "\n".join(lines))
    assert speedups["implicit-only"] >= 2.0, (
        f"compiled path only {speedups['implicit-only']:.2f}x over "
        "interpreted on an implicit-only row")
    assert speedups["appendix-a-shaped"] >= 3.0, (
        f"compiled path only {speedups['appendix-a-shaped']:.2f}x over "
        "interpreted on an Appendix-A-shaped row")


def test_perf_rpt_artifact(benchmark, registry, artifact):
    import time
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    engine = MacroEngine(registry)
    macro = parse_macro(custom_macro())
    lines = ["PERF-RPT — report time vs fetched rows (coarse)",
             "", f"{'rows':>8}{'millis':>12}"]
    for rows in ROW_COUNTS:
        start = time.perf_counter()
        for _ in range(3):
            engine.execute_report(macro, [("max_n", str(rows))])
        millis = (time.perf_counter() - start) / 3 * 1e3
        lines.append(f"{rows:>8}{millis:>12.2f}")
    artifact("perf_report_scaling.txt", "\n".join(lines) + "\n")
