"""The command-line interface."""

import io
import sqlite3

import pytest

from repro.cli import main

GOOD_MACRO = """\
%DEFINE DATABASE = "DEMO"
%SQL{ SELECT name FROM pets WHERE name LIKE '$(q)%' ORDER BY name %}
%HTML_INPUT{<H1>Pets</H1><FORM><INPUT NAME="q"></FORM>%}
%HTML_REPORT{<H1>Found pets</H1>%EXEC_SQL%}
"""


@pytest.fixture()
def deployment(tmp_path):
    macro_path = tmp_path / "pets.d2w"
    macro_path.write_text(GOOD_MACRO)
    db_path = tmp_path / "demo.sqlite"
    conn = sqlite3.connect(db_path)
    conn.executescript(
        "CREATE TABLE pets (name TEXT);"
        "INSERT INTO pets VALUES ('rex'), ('rover'), ('max');")
    conn.commit()
    conn.close()
    return macro_path, db_path


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


class TestLintCommand:
    def test_clean_macro(self, deployment):
        macro_path, _ = deployment
        status, output = run_cli("lint", str(macro_path))
        assert status == 0
        assert "clean" in output

    def test_warnings_printed_but_exit_zero(self, tmp_path):
        path = tmp_path / "warn.d2w"
        path.write_text(
            '%DEFINE DATABASE = "D"\n%SQL{ SELECT $(typo_var) %}\n'
            "%HTML_INPUT{x%}\n%HTML_REPORT{%EXEC_SQL%}\n")
        status, output = run_cli("lint", str(path))
        assert status == 0
        assert "undefined-variable" in output

    def test_errors_exit_nonzero(self, tmp_path):
        path = tmp_path / "err.d2w"
        path.write_text(
            '%DEFINE a = "$(b)"\n%DEFINE b = "$(a)"\n'
            "%HTML_INPUT{x%}\n%HTML_REPORT{y%}\n")
        status, output = run_cli("lint", str(path))
        assert status == 1
        assert "circular-definition" in output

    def test_multiple_files(self, deployment, tmp_path):
        macro_path, _ = deployment
        other = tmp_path / "other.d2w"
        other.write_text("%HTML_INPUT{x%}\n%HTML_REPORT{y%}\n")
        status, output = run_cli("lint", str(macro_path), str(other))
        assert status == 0
        assert str(other) in output or "clean" in output


class TestRunCommand:
    def test_input_mode(self, deployment):
        macro_path, db_path = deployment
        status, output = run_cli(
            "run", str(macro_path), "input")
        assert status == 0
        assert "<H1>Pets</H1>" in output

    def test_report_mode_with_inputs(self, deployment):
        macro_path, db_path = deployment
        status, output = run_cli(
            "run", str(macro_path), "report", "q=r",
            "--database", f"DEMO={db_path}")
        assert status == 0
        assert "<TD>rex</TD>" in output
        assert "<TD>rover</TD>" in output
        assert "max" not in output

    def test_report_failure_exit_code(self, deployment, tmp_path):
        macro_path, db_path = deployment
        broken = tmp_path / "broken.d2w"
        broken.write_text(GOOD_MACRO.replace("pets", "no_table"))
        status, output = run_cli(
            "run", str(broken), "report",
            "--database", f"DEMO={db_path}")
        assert status == 1
        assert "SQL error" in output

    def test_render_mode(self, deployment):
        macro_path, db_path = deployment
        status, output = run_cli(
            "render", str(macro_path), "report", "q=r",
            "--database", f"DEMO={db_path}")
        assert status == 0
        assert "Found pets" in output
        assert "| rex" in output  # text table rendering

    def test_bad_binding_rejected(self, deployment):
        macro_path, _ = deployment
        with pytest.raises(SystemExit):
            run_cli("run", str(macro_path), "report", "not-a-binding")

    def test_macro_error_returns_2(self, tmp_path):
        path = tmp_path / "syntax.d2w"
        path.write_text("%DEFINE broken")
        status, _ = run_cli("run", str(path), "input")
        assert status == 2


class TestUnparseCommand:
    def test_unparse_roundtrip(self, deployment):
        macro_path, _ = deployment
        status, output = run_cli("unparse", str(macro_path))
        assert status == 0
        from repro.core.parser import parse_macro
        again = parse_macro(output)
        assert again.html_input is not None
        assert len(again.sql_sections()) == 1


class TestStatsCommand:
    def test_summarises_clf_log(self, tmp_path):
        log = tmp_path / "access.log"
        log.write_text(
            '1.1.1.1 - - [05/Jul/1996:10:00:00 +0000] '
            '"GET /a HTTP/1.0" 200 100\n'
            '1.1.1.1 - - [05/Jul/1996:10:00:01 +0000] '
            '"GET /a HTTP/1.0" 200 100\n'
            '2.2.2.2 - - [05/Jul/1996:10:00:02 +0000] '
            '"GET /missing HTTP/1.0" 404 50\n'
            "this line is junk\n")
        status, output = run_cli("stats", str(log))
        assert status == 0
        assert "requests: 3   errors: 1   bytes: 250" in output
        assert "unparseable lines: 1" in output
        assert "2  /a" in output
        assert "404: 1" in output

    def test_empty_log_is_an_error(self, tmp_path):
        log = tmp_path / "empty.log"
        log.write_text("nothing useful\n")
        status, output = run_cli("stats", str(log))
        assert status == 1


def trace_record(trace_id: str, name: str = "request") -> str:
    import json
    return json.dumps({
        "type": "trace", "ts": 1.0, "trace_id": trace_id,
        "name": name, "duration_ms": 5.0, "phases": {name: 5.0},
        "attrs": {"status": 200},
        "spans": {"name": name, "trace_id": trace_id, "span_id": 1,
                  "offset_ms": 0.0, "duration_ms": 5.0}})


class TestTraceCommand:
    def test_trace_id_filter(self, tmp_path):
        log = tmp_path / "trace.log"
        log.write_text(trace_record("tid-aaa") + "\n"
                       + trace_record("tid-bbb") + "\n")
        status, output = run_cli("trace", str(log),
                                 "--trace-id", "tid-bbb")
        assert status == 0
        assert "tid-bbb" in output
        assert "tid-aaa" not in output

    def test_unknown_trace_id_shows_nothing(self, tmp_path):
        log = tmp_path / "trace.log"
        log.write_text(trace_record("tid-aaa") + "\n")
        status, output = run_cli("trace", str(log),
                                 "--trace-id", "tid-zzz")
        assert status == 1
        assert "no trace records" in output

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        """A crash-mid-write artifact must not take the renderer down."""
        log = tmp_path / "trace.log"
        log.write_text(trace_record("tid-ok") + "\n"
                       + trace_record("tid-cut")[:40])  # no newline
        status, output = run_cli("trace", str(log))
        assert status == 0
        assert "tid-ok" in output
        assert "tid-cut" not in output

    def test_corrupt_bytes_are_tolerated(self, tmp_path):
        log = tmp_path / "trace.log"
        log.write_bytes(trace_record("tid-ok").encode() + b"\n"
                        + b"\xfe\xfd{{{ not json\n")
        status, output = run_cli("trace", str(log))
        assert status == 0
        assert "tid-ok" in output


class TestTopCommand:
    @pytest.fixture()
    def served_statements(self):
        from repro.apps import urlquery as urlquery_app
        from repro.apps.site import build_site
        from repro.sql.digest import StatementStats

        app = urlquery_app.install(rows=5)
        site = build_site(app.engine, app.library)
        stats = StatementStats()
        stats.enabled = True
        stats.record(digest="deadbeef0123",
                     statement="select url from urls where id = ?",
                     duration_ms=12.0, rows=5)
        site.router.statements = stats
        server = site.serve()
        yield server
        server.shutdown()

    def test_renders_the_digest_table(self, served_statements):
        status, output = run_cli("top", served_statements.base_url)
        assert status == 0
        assert "deadbeef0123" in output
        assert "digest" in output  # the header row
        assert "1 digest(s)" in output

    def test_sql_flag_prints_the_statement_text(self,
                                                served_statements):
        status, output = run_cli("top", served_statements.base_url,
                                 "--sql")
        assert status == 0
        assert "select url from urls where id = ?" in output

    def test_empty_store_exits_nonzero(self):
        from repro.apps import urlquery as urlquery_app
        from repro.apps.site import build_site
        from repro.sql.digest import StatementStats

        app = urlquery_app.install(rows=2)
        site = build_site(app.engine, app.library)
        site.router.statements = StatementStats()
        server = site.serve()
        try:
            status, output = run_cli("top", server.base_url)
        finally:
            server.shutdown()
        assert status == 1
        assert "no statements" in output


class TestServeOptionPlacement:
    """Every engine setting is a ``serve`` option that reaches the
    process running the macros, in either gateway; only the app-server
    pool options are refused where no pool runs."""

    #: Settings fields ``serve`` pins instead of taking as options:
    #: auto-commit always, and a pool sized for the process's threads.
    PINNED = {"transaction_mode", "pool_size"}

    @staticmethod
    def refuse(*argv):
        """What ``main`` checks before serving ``serve *argv``."""
        from repro.cli import _parse_args
        _parse_args(["serve", *argv])

    @staticmethod
    def serve_dests():
        import argparse

        from repro.cli import build_parser
        (commands,) = [action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        return {action.dest
                for action in commands.choices["serve"]._actions}

    def test_every_settings_field_is_a_serve_dest(self):
        from dataclasses import fields

        from repro.settings import Settings
        names = {f.name for f in fields(Settings)}
        assert names - self.PINNED <= self.serve_dests()
        assert not self.PINNED & self.serve_dests()

    def test_serve_still_has_36_options(self):
        assert len(self.serve_dests() - {"help"}) == 36

    @pytest.mark.parametrize("argv", [
        ["--workers", "2"], ["--recycle-after", "10"],
        ["--workers", "2", "--recycle-after", "10"]],
        ids=lambda a: " ".join(a))
    def test_pool_options_are_refused_in_process(self, argv):
        """The in-process engine runs no workers: sizing a pool it does
        not have is refused, naming each option given."""
        with pytest.raises(SystemExit) as info:
            self.refuse("--macros", "m", *argv)
        message = str(info.value.code)
        for flag in argv[::2]:
            assert flag in message
        assert "--gateway appserver" in message
        # ...and the defaults, spelled out, are not "given".
        self.refuse("--macros", "m", "--workers", "4",
                    "--recycle-after", "500")

    def test_benchmark_argv_passes(self):
        self.refuse("--macros", "m", "--gateway", "appserver", "--workers",
                    "2", "--recycle-after", "1000000", "--query-cache", "128",
                    "--no-trace")

    def test_deployment_guide_examples_parse_and_pass(self):
        import re
        import shlex
        from pathlib import Path

        guide = (Path(__file__).resolve().parents[2]
                 / "docs" / "deployment.md").read_text(encoding="utf-8")
        commands = [
            shlex.split(line.partition("repro serve")[2])
            for block in re.findall(r"```sh\n(.*?)```", guide, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if re.match(r"(python -m )?repro serve ", line)]
        assert len(commands) >= 6, commands
        for argv in commands:
            self.refuse(*argv)
        # §3's table names every variable Settings.from_env reads, in
        # field order; a bindings field as REPRO_<FIELD>_<NAME>.
        from dataclasses import fields

        from repro.settings import Settings, _env_name
        variables = [_env_name(f) + "_<NAME>" * (f.type == "Bindings")
                     for f in fields(Settings)]
        section = guide[guide.index("## 3."):guide.index("## 4.")]
        assert re.findall(r"^\| `(REPRO_\S+)` \|", section, re.M) \
            == variables


class TestWorkerEnv:
    def test_database_names_reach_a_worker_verbatim(self, tmp_path):
        """``--database shop=...`` is ``shop`` in-process; it used to be
        ``SHOP`` in a worker, where lookups are case-sensitive too."""
        from repro.cgi.db2www_main import build_program
        from repro.cli import build_parser
        from repro.settings import Settings
        args = build_parser().parse_args([
            "serve", "--macros", str(tmp_path), "--no-trace",
            "--database", f"shop={tmp_path / 'shop.sqlite'}",
            "--database", f"URLDB={tmp_path / 'urldb.sqlite'}",
            "--database", f"Mixed_Case={tmp_path / 'mixed.sqlite'}"])
        program = build_program(Settings.from_args(args).to_env())
        assert sorted(program.engine.registry.names()) \
            == ["Mixed_Case", "URLDB", "shop"]

    @pytest.mark.parametrize("argv, expected", [
        ([], 1.0), (["--macro-stat-ttl", "0"], 0.0),
        (["--macro-stat-ttl", "0.25"], 0.25)])
    def test_macro_stat_ttl_reaches_a_worker(self, tmp_path, argv, expected):
        """Workers keep ``serve``'s stat TTL, its 1 s default included,
        instead of stat-ing the macro file on every request."""
        from repro.cgi.db2www_main import build_program
        from repro.cli import build_parser
        from repro.settings import Settings
        args = build_parser().parse_args(
            ["serve", "--macros", str(tmp_path), *argv])
        program = build_program(Settings.from_args(args).to_env())
        assert program.library.stat_ttl == expected

    @pytest.mark.parametrize("raw", ["-1", "nan", "inf", "1s"])
    def test_a_bad_stat_ttl_is_refused(self, tmp_path, raw):
        from repro.cgi.db2www_main import build_program
        with pytest.raises(RuntimeError, match="REPRO_MACRO_STAT_TTL"):
            build_program({"REPRO_MACRO_DIR": str(tmp_path),
                           "REPRO_MACRO_STAT_TTL": raw})
        # Unset means "stat every request", as for a one-shot CGI run.
        assert build_program({"REPRO_MACRO_DIR": str(tmp_path)}) \
            .library.stat_ttl == 0.0

    @pytest.mark.parametrize("raw", ["1_0", "+3", "\u0663", "-1"])
    def test_integer_settings_are_plain_digits_or_refused(self, tmp_path,
                                                          raw):
        """``REPRO_POOL_SIZE=1_0`` used to mean ten connections."""
        from repro.cgi.db2www_main import build_program
        env = {"REPRO_MACRO_DIR": str(tmp_path)}
        for name in ("REPRO_POOL_SIZE", "REPRO_QUERY_CACHE"):
            with pytest.raises(RuntimeError, match=name):
                build_program({**env, name: raw})
        # Unset, empty and blank still mean "off"; padding is fine.
        for raw in ("", "  ", " 2 "):
            build_program({**env, "REPRO_POOL_SIZE": raw,
                           "REPRO_QUERY_CACHE": raw})
