"""The system under test: seeded files and a launched ``repro serve``.

The benchmark drives the *shipped* server — ``python -m repro serve`` as
a child process in its own session, bound to port 0, its address parsed
from the banner — never a server object built in this process.  Every
launch gets freshly seeded SQLite files and macro files in a scratch
directory, is pinned away from the generator's core where the platform
allows, and is torn down (whole process group, then the directory) on
every exit path.
"""

from __future__ import annotations

import functools
import os
import re
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

from httpclient import HttpConnection
from workloads import Request, Workload, warmup_sequence

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

_BANNER = re.compile(r" on http://([\d.]+):(\d+) ")
_LAUNCH_TIMEOUT = 60.0
_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
def holds_socket_dir(directory: Path) -> bool:
    """Whether the app-server dispatcher's socket fits below
    ``directory``: a Unix socket path holds ~107 bytes, and the
    dispatcher makes ``repro-appserver-XXXXXXXX/dispatch.sock`` (40
    bytes) below its temp directory."""
    return len(str(directory)) <= 60


def child_env(tmpdir: Path) -> dict[str, str]:
    """The launched server's environment: ``src`` importable, and its
    temp files (the dispatcher's socket directory) inside ``tmpdir`` —
    unless that path is too long to hold a Unix socket."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (f"{SRC_DIR}{os.pathsep}{existing}"
                         if existing else str(SRC_DIR))
    if holds_socket_dir(tmpdir):
        env["TMPDIR"] = str(tmpdir)
    return env


def make_workdir(base: Optional[Path] = None) -> Path:
    """A fresh scratch directory (inside the checkout by default)."""
    base = base or OUT_DIR
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="w", dir=base))


# -- pinning ---------------------------------------------------------------

def plan_pinning() -> Optional[dict[str, list[int]]]:
    """Server on every allowed core but the last, generator on the last.

    ``None`` when the platform has no affinity call or only one core.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None
    return {"server": cores[:-1], "generator": cores[-1:]}


# -- files -----------------------------------------------------------------

def database_name(workload: Workload) -> str:
    return "CELDIAL" if workload.app == "orders" else "URLDB"


def seed_files(workload: Workload, directory: Path) -> tuple[Path, Path]:
    """Write the macro directory and a freshly seeded database file.

    The data and macros are the repo's own example applications; the
    dataset seed is fixed so pages are the same for every ``--seed``.
    ``urlquery.d2w`` is always present: its input page is the no-SQL
    floor request.
    """
    from repro.apps import datasets, orders, urlquery

    macros = directory / "macros"
    macros.mkdir()
    (macros / urlquery.MACRO_NAME).write_text(
        urlquery.URLQUERY_MACRO, encoding="utf-8")
    database = directory / f"{database_name(workload).lower()}.sqlite"
    conn = sqlite3.connect(database)
    try:
        if workload.app == "orders":
            (macros / orders.SEARCH_MACRO_NAME).write_text(
                orders.SEARCH_MACRO, encoding="utf-8")
            (macros / orders.ENTRY_MACRO_NAME).write_text(
                orders.ENTRY_MACRO, encoding="utf-8")
            datasets.seed_orders(conn, orders=workload.rows)
            # WAL is a property of the file, as a deployment with
            # concurrent readers and writers would set it: one flush
            # per commit instead of three, and readers never wait for
            # the writer — with a rollback journal this workload's
            # every figure follows the disk, not the program.
            conn.executescript(
                "CREATE TABLE order_audit (custid INTEGER, "
                "product_name VARCHAR(40), quantity INTEGER);"
                "PRAGMA journal_mode=WAL;")
        else:
            datasets.seed_urldb(conn, workload.rows)
        conn.commit()
    finally:
        conn.close()
    return macros, database


def order_rows(database: Path) -> tuple[int, int]:
    """``(orders, order_audit)`` row counts, read straight off the file."""
    conn = sqlite3.connect(database)
    try:
        return (conn.execute("SELECT count(*) FROM orders").fetchone()[0],
                conn.execute("SELECT count(*) FROM order_audit")
                .fetchone()[0])
    finally:
        conn.close()


# -- process-tree accounting -----------------------------------------------

def _stat_fields(pid: int) -> Optional[list[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields resume after the
    # last ')'.  Index 0 here is field 3 (state) of proc(5).
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and its live descendants (by parent pid)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items()
                    if parent == pid)
    return tree


def tree_cpu_seconds(root: int, *, skip_root: bool = False) -> float:
    """User + system CPU of the live tree *and* its reaped descendants
    (``cutime``/``cstime``), so recycled app-server workers still count."""
    ticks = 0
    for pid in process_tree(root)[1 if skip_root else 0:]:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / _TICK


def tree_peak_rss_mb(root: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the live tree."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


# -- the launched server ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def _serve_help() -> str:
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--help"],
        env=child_env(OUT_DIR), capture_output=True, text=True,
        timeout=_LAUNCH_TIMEOUT, check=True).stdout


def serve_supports(flag: str) -> bool:
    """Whether ``repro serve --help`` lists ``flag``.

    Optional flags are only passed when listed, so removing ``--edge``
    (asyncio as the only edge) later does not break the benchmark.
    """
    return flag in _serve_help()


class Target:
    """One launch of ``repro serve`` on freshly seeded files.

    Use as a context manager; ``setup_s`` is the time from "nothing on
    disk" to "warm and answering": seed files, spawn, first 200, and
    the discarded warm-up requests.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path, *,
                 verify: Callable[[Request, int, bytes], bool],
                 pinning: Optional[dict[str, list[int]]],
                 tracing: bool = True):
        self.workload = workload
        self.seed = seed
        self.verify = verify
        self.pinning = pinning
        self.tracing = tracing
        self.directory = Path(tempfile.mkdtemp(prefix="t", dir=workdir))
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self.database: Optional[Path] = None
        #: clock when set-up began and when the target was warm
        self.began = 0.0
        self.ready = 0.0
        #: warm-up requests sent (they count towards attempted/failed
        #: and, for order entry, towards the expected table growth)
        self.warmup: list[Request] = []
        self.warmup_failures = 0

    def command(self, macros: Path, database: Path) -> list[str]:
        argv = [sys.executable, "-m", "repro", "serve",
                "--macros", str(macros),
                "--database", f"{database_name(self.workload)}={database}",
                "--port", "0", "--query-cache", "128"]
        if serve_supports("--edge"):
            argv += ["--edge", "async"]
        if not self.tracing and serve_supports("--no-trace"):
            argv.append("--no-trace")
        return argv + list(self.workload.serve_args)

    def __enter__(self) -> "Target":
        try:
            self._start()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _start(self) -> None:
        self.began = time.perf_counter()
        macros, self.database = seed_files(self.workload, self.directory)
        cores = self.pinning["server"] if self.pinning else None

        def in_child() -> None:
            # Runs in the child before exec.  Everything the server
            # starts (threads, app-server workers) inherits the mask;
            # and SIGINT must not arrive ignored (as it does under a
            # background shell job), or `stop` could only kill.
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            if cores:
                os.sched_setaffinity(0, cores)

        with open(self.directory / "serve.stderr", "wb") as stderr:
            self.proc = subprocess.Popen(
                self.command(macros, self.database),
                env=child_env(self.directory), cwd=self.directory,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=stderr, start_new_session=True,
                preexec_fn=in_child)
        self.host, self.port = self._read_banner()
        self.warmup = warmup_sequence(self.workload, self.seed)
        with self.connect() as conn:
            for request in self.warmup:
                status, body = conn.request(
                    request.method, request.target, request.body,
                    request.content_type)
                if not self.verify(request, status, body):
                    self.warmup_failures += 1
        self.ready = time.perf_counter()

    @property
    def setup_s(self) -> float:
        return self.ready - self.began

    def _read_banner(self) -> tuple[str, int]:
        """The bound address, from the first banner line on stdout."""
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + _LAUNCH_TIMEOUT
        os.set_blocking(self.proc.stdout.fileno(), False)
        seen = b""
        while time.monotonic() < deadline:
            chunk = self.proc.stdout.read()
            if chunk:
                seen += chunk
                match = _BANNER.search(seen.decode("utf-8", "replace"))
                if match:
                    return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        stderr = (self.directory / "serve.stderr").read_text(
            errors="replace")[-2000:]
        raise RuntimeError(
            f"repro serve did not print its banner "
            f"(exit={self.proc.poll()}): {seen!r}\n{stderr}")

    def connect(self) -> HttpConnection:
        return HttpConnection(self.host, self.port)

    # -- accounting --------------------------------------------------------

    def cpu_clock(self) -> Callable[[], float]:
        """A cheap reader of the server tree's CPU seconds.

        /proc counts CPU in 10 ms ticks, too coarse for slices of a
        tenth of a second.  Linux exposes every process's CPU clock at
        nanosecond resolution through ``clock_gettime``; the tree is
        listed once (a launched server forks no one after warm-up) and
        its clocks are summed on each call.  Falls back to /proc where
        the clock is not readable.
        """
        pids = process_tree(self.proc.pid)
        clocks = [(~pid << 3) | 2 for pid in pids]   # CPUCLOCK_SCHED of pid
        try:
            sum(time.clock_gettime(clock) for clock in clocks)
        except (OSError, AttributeError, OverflowError):
            return lambda: tree_cpu_seconds(pids[0])
        return lambda: sum(time.clock_gettime(clock) for clock in clocks)

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    # -- teardown ----------------------------------------------------------

    def stop(self) -> None:
        """Ctrl-C the server (it drains its workers), then kill whatever
        is left of its session, then remove the files."""
        proc, self.proc = self.proc, None
        if proc is not None:
            try:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGINT)
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        pass
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
                proc.wait(timeout=10.0)
            finally:
                if proc.stdout is not None:
                    proc.stdout.close()
        shutil.rmtree(self.directory, ignore_errors=True)
