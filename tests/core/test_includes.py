"""%INCLUDE: macro composition through the library."""

import pytest

from repro.core import parse_macro
from repro.core.ast import IncludeSection
from repro.core.macrofile import (
    IncludeCycleError,
    MacroLibrary,
    expand_includes,
)
from repro.errors import (
    DuplicateSectionError,
    MacroExecutionError,
    MacroSyntaxError,
)

HEADER = '%DEFINE site_name = "CELDIAL Online"\n'
FOOTER_SQL = "%SQL(footer_query){ SELECT 'footer' AS f %}\n"


@pytest.fixture()
def library():
    lib = MacroLibrary()
    lib.add_text("header.d2w", HEADER)
    lib.add_text("footer.d2w", FOOTER_SQL)
    lib.add_text("page.d2w", """
%INCLUDE "header.d2w"
%HTML_INPUT{<H1>$(site_name)</H1>%}
%INCLUDE "footer.d2w"
%HTML_REPORT{%EXEC_SQL(footer_query)%}
""")
    return lib


class TestParsing:
    def test_include_parsed(self):
        macro = parse_macro('%INCLUDE "common.d2w"')
        (section,) = macro.sections
        assert isinstance(section, IncludeSection)
        assert section.name == "common.d2w"

    def test_include_unparse_roundtrip(self):
        macro = parse_macro('%INCLUDE "x.d2w"')
        assert macro.unparse() == '%INCLUDE "x.d2w"'
        assert parse_macro(macro.unparse()).includes()[0].name == "x.d2w"

    def test_empty_include_name_rejected(self):
        with pytest.raises(MacroSyntaxError):
            parse_macro('%INCLUDE "   "')

    def test_named_exec_sql_allowed_with_includes(self):
        # The named section may live in the included file, so static
        # validation defers to post-expansion checking.
        macro = parse_macro(
            '%INCLUDE "sqls.d2w"\n%HTML_REPORT{%EXEC_SQL(from_inc)%}')
        assert len(macro.includes()) == 1


class TestExpansion:
    def test_library_load_expands(self, library):
        macro = library.load("page.d2w")
        assert not macro.includes()
        assert macro.html_input is not None
        assert macro.named_sql_section("footer_query") is not None

    def test_expanded_macro_executes(self, library):
        from repro.core.engine import MacroEngine
        from repro.sql.gateway import DatabaseRegistry

        registry = DatabaseRegistry()
        registry.register_memory("ANY")
        engine = MacroEngine(registry,
                             config=None)
        engine.config.default_database = "ANY"
        macro = library.load("page.d2w")
        result = engine.execute_input(macro)
        assert result.html == "<H1>CELDIAL Online</H1>"
        report = engine.execute_report(macro)
        assert "footer" in report.html

    def test_load_without_expansion(self, library):
        raw = library.load("page.d2w", expand=False)
        assert len(raw.includes()) == 2

    def test_nested_includes(self, library):
        library.add_text("outer.d2w",
                         '%INCLUDE "middle.d2w"\n%HTML_INPUT{$(site_name)%}')
        library.add_text("middle.d2w", '%INCLUDE "header.d2w"')
        macro = library.load("outer.d2w")
        assert not macro.includes()

    def test_missing_include_target(self, library):
        library.add_text("broken.d2w", '%INCLUDE "ghost.d2w"')
        from repro.core.macrofile import MacroNameError
        with pytest.raises(MacroNameError):
            library.load("broken.d2w")

    def test_cycle_detected(self, library):
        library.add_text("a.d2w", '%INCLUDE "b.d2w"')
        library.add_text("b.d2w", '%INCLUDE "a.d2w"')
        with pytest.raises(IncludeCycleError) as excinfo:
            library.load("a.d2w")
        assert "a.d2w" in str(excinfo.value)

    def test_self_include_detected(self, library):
        library.add_text("self.d2w", '%INCLUDE "self.d2w"')
        with pytest.raises(IncludeCycleError):
            library.load("self.d2w")

    def test_duplicate_html_input_after_expansion(self, library):
        library.add_text("input_too.d2w", "%HTML_INPUT{extra%}")
        library.add_text("clash.d2w",
                         '%HTML_INPUT{mine%}\n%INCLUDE "input_too.d2w"')
        with pytest.raises(DuplicateSectionError):
            library.load("clash.d2w")

    def test_duplicate_named_sql_after_expansion(self, library):
        library.add_text("clash2.d2w",
                         "%SQL(footer_query){ SELECT 2 %}\n"
                         '%INCLUDE "footer.d2w"\n%HTML_REPORT{x%}')
        with pytest.raises(DuplicateSectionError):
            library.load("clash2.d2w")

    def test_expand_includes_function_directly(self):
        main = parse_macro('%INCLUDE "inc"', source="main")
        include = parse_macro('%DEFINE x = "1"', source="inc")
        expanded = expand_includes(main, lambda name: include)
        kinds = [type(s).__name__ for s in expanded.sections]
        assert kinds == ["DefineSection"]


class TestEngineGuard:
    def test_engine_rejects_unexpanded_include(self):
        from repro.core.engine import MacroEngine
        macro = parse_macro('%INCLUDE "x.d2w"\n%HTML_INPUT{hi%}')
        with pytest.raises(MacroExecutionError) as excinfo:
            MacroEngine().execute_input(macro)
        assert "MacroLibrary" in str(excinfo.value)


class TestDiskIncludes:
    def test_includes_resolve_from_the_macro_directory(self, tmp_path):
        (tmp_path / "header.d2w").write_text(
            '%DEFINE site = "Disk Site"\n')
        (tmp_path / "page.d2w").write_text(
            '%INCLUDE "header.d2w"\n%HTML_INPUT{<H1>$(site)</H1>%}\n')
        library = MacroLibrary(tmp_path)
        macro = library.load("page.d2w")
        from repro.core.engine import MacroEngine
        assert MacroEngine().execute_input(macro).html == \
            "<H1>Disk Site</H1>"

    def test_edited_include_picked_up(self, tmp_path):
        import os, time
        header = tmp_path / "header.d2w"
        header.write_text('%DEFINE site = "Version 1"\n')
        (tmp_path / "page.d2w").write_text(
            '%INCLUDE "header.d2w"\n%HTML_INPUT{$(site)%}\n')
        library = MacroLibrary(tmp_path)
        from repro.core.engine import MacroEngine
        engine = MacroEngine()
        first = library.load("page.d2w")
        assert engine.execute_input(first).html == "Version 1"
        # Unchanged files: the same expanded macro and compiled program.
        assert library.load("page.d2w") is first
        assert first.program is not None
        header.write_text('%DEFINE site = "Version 2"\n')
        os.utime(header, (time.time() + 5, time.time() + 5))
        assert library.load("page.d2w") is not first
        assert engine.execute_input(
            library.load("page.d2w")).html == "Version 2"
