"""CGI dispatch and the DB2WWW program's URL contract."""

import pytest

from repro.cgi.environ import CgiEnvironment
from repro.cgi.gateway import (
    CgiGateway,
    Db2WwwProgram,
    FunctionProgram,
    error_response,
)
from repro.cgi.request import CgiRequest, CgiResponse
from repro.core.engine import MacroEngine
from repro.core.macrofile import MacroLibrary
from repro.errors import UnknownCgiProgramError


def db2www_request(path_info: str, query: str = "",
                   method: str = "GET", body: bytes = b"") -> CgiRequest:
    return CgiRequest(
        CgiEnvironment(
            request_method=method,
            script_name="/cgi-bin/db2www",
            path_info=path_info,
            query_string=query,
            content_type=("application/x-www-form-urlencoded"
                          if method == "POST" else ""),
            content_length=len(body)),
        stdin=body)


@pytest.fixture()
def program(shop_registry):
    library = MacroLibrary()
    library.add_text("shop.d2w", """
%DEFINE DATABASE = "SHOP"
%SQL{ SELECT name FROM items WHERE name LIKE '$(q)%' ORDER BY name %}
%HTML_INPUT{<FORM ACTION="/cgi-bin/db2www/shop.d2w/report">
<INPUT NAME="q"></FORM>%}
%HTML_REPORT{<H1>Found</H1>%EXEC_SQL%}
""")
    return Db2WwwProgram(MacroEngine(shop_registry), library)


class TestGatewayDispatch:
    def test_dispatch_by_name(self):
        gateway = CgiGateway()
        gateway.install("echo", FunctionProgram(
            lambda req: CgiResponse(body=b"pong")))
        response = gateway.dispatch("echo", db2www_request("/"))
        assert response.body == b"pong"
        assert "echo" in gateway
        assert gateway.names() == ["echo"]

    def test_unknown_program(self):
        with pytest.raises(UnknownCgiProgramError):
            CgiGateway().dispatch("ghost", db2www_request("/"))

    def test_program_exception_becomes_500(self):
        gateway = CgiGateway()

        def crash(request):
            raise RuntimeError("kaboom")

        gateway.install("crash", FunctionProgram(crash))
        response = gateway.dispatch("crash", db2www_request("/"))
        assert response.status == 500
        assert b"kaboom" in response.body

    def test_error_response_escapes_detail(self):
        response = error_response(500, "Oops", "<script>bad</script>")
        assert b"&lt;script&gt;" in response.body


class TestDb2WwwProgram:
    def test_input_mode(self, program):
        response = program.run(db2www_request("/shop.d2w/input"))
        assert response.status == 200
        assert b"<FORM" in response.body

    def test_report_mode_get(self, program):
        response = program.run(
            db2www_request("/shop.d2w/report", query="q=b"))
        assert b"bikes" in response.body

    def test_report_mode_post(self, program):
        response = program.run(db2www_request(
            "/shop.d2w/report", method="POST", body=b"q=h"))
        assert b"helmets" in response.body

    def test_unknown_macro_is_404(self, program):
        response = program.run(db2www_request("/ghost.d2w/input"))
        assert response.status == 404

    def test_traversal_name_is_404(self, program):
        response = program.run(
            db2www_request("/..%2Fetc%2Fpasswd/input"))
        assert response.status == 404

    def test_bad_command_is_400(self, program):
        response = program.run(db2www_request("/shop.d2w/destroy"))
        assert response.status == 400

    def test_wrong_path_shape_is_400(self, program):
        assert program.run(db2www_request("/shop.d2w")).status == 400
        assert program.run(db2www_request("/a/b/c")).status == 400

    def test_macro_execution_error_is_500(self, shop_registry):
        library = MacroLibrary()
        library.add_text("broken.d2w", "%HTML_REPORT{no input section%}")
        program = Db2WwwProgram(MacroEngine(shop_registry), library)
        response = program.run(db2www_request("/broken.d2w/input"))
        assert response.status == 500
        assert b"MissingSectionError" in response.body

    def test_content_type_carries_charset(self, program):
        response = program.run(db2www_request("/shop.d2w/input"))
        assert response.content_type == "text/html; charset=utf-8"


#: Non-ASCII page text, rows and a lone surrogate (from the macro text,
#: the one place a page can get one), in the rows and out of them.
MIXED_MACRO = """
%DEFINE{
DATABASE = "MIXED"
mark = "é\ud800"
%}
%SQL{ SELECT name FROM items ORDER BY id
%SQL_REPORT{<P>Résumé $(mark)</P>
%ROW{<LI>$(V1) $(mark) ☃
%}%}
%}
%HTML_REPORT{<H1>Café</H1>%EXEC_SQL<P>$(mark)</P>%}
"""


@pytest.mark.parametrize("charset", ["utf-8", "latin-1"])
@pytest.mark.parametrize("stream", [False, True])
def test_served_bytes_are_the_page_text_encoded(charset, stream, spill):
    """Whatever parts a page travels in (text encoded once, cached rows
    by reference, a spilled page's rest chunk by chunk), its bytes are
    its text encoded the way a page always was: ``encode(charset,
    "replace")``, a miss and a hit alike."""
    from repro.core.engine import EngineConfig, MacroCommand, _MacroRun
    from repro.core.report import chunk_text
    from repro.sql.gateway import DatabaseRegistry
    from repro.sql.querycache import QueryResultCache

    registry = DatabaseRegistry()
    with registry.register_memory("MIXED").connect() as conn:
        conn.execute("CREATE TABLE items (id INTEGER, name TEXT)")
        conn.execute("INSERT INTO items VALUES (1, 'naïve'), "
                     "(2, '日本'), (3, 'plain')")
        conn.commit()
    library = MacroLibrary()
    library.add_text("mixed.d2w", MIXED_MACRO)
    engine = MacroEngine(registry, config=EngineConfig(
        query_cache=QueryResultCache()))
    text = "".join(map(chunk_text, _MacroRun(
        engine, library.load("mixed.d2w"), MacroCommand.REPORT, [])._run()))
    assert "\ud800" in text and "日" in text
    if stream:  # three rows: past a budget of two, the page spills
        spill(2)
        engine.config.query_cache.clear()
    program = Db2WwwProgram(engine, library, charset=charset)
    for _ in range(2):
        response = program.run(db2www_request("/mixed.d2w/report"))
        assert response.streaming == stream
        response.drain()
        assert response.body == text.encode(charset, "replace")
        assert response.content_type.endswith(f"charset={charset}")
