"""ABL — ablations of the design choices DESIGN.md calls out.

1. **Lazy re-evaluation vs memoisation** — the paper's evaluator
   re-evaluates a variable at every reference.  A memoising evaluator is
   faster on reference-heavy pages, but the tests alongside show it
   corrupts per-row report variables — which is exactly why the real
   engine does not cache.  The bench quantifies the price of
   correctness.

2. **Connection strategy** — process-per-request 1996 CGI opened a DBMS
   connection per request.  The bench compares per-request connections
   against a reusing pool on a file-backed database, the case where
   connection setup actually costs something.
"""

import pytest

from repro.apps.datasets import seed_urldb
from repro.core.substitution import Evaluator
from repro.core.values import ValueString
from repro.core.variables import VariableStore
from repro.sql.connection import Connection
from repro.sql.pool import ConnectionPool


class MemoizingEvaluator(Evaluator):
    """The rejected alternative: cache every ``evaluate_name`` result
    for the evaluator's lifetime — wrong on purpose, since ``V1``/
    ``ROW_NUM`` change per row and ``%EXEC`` must re-run per reference."""

    def __init__(self, store: VariableStore, *, exec_runner=None):
        super().__init__(store, exec_runner=exec_runner)
        self._cache: dict[str, str] = {}

    def evaluate_name(self, name: str) -> str:
        cached = self._cache.get(name)
        if cached is None:
            cached = self._cache[name] = super().evaluate_name(name)
        return cached


class EagerStoreEvaluator(Evaluator):
    """The rejected alternative: evaluate every definition when the
    evaluator is made (at "definition time") and answer from that frozen
    table — a variable referencing a later definition stays null."""

    def __init__(self, store: VariableStore, *, exec_runner=None):
        super().__init__(store, exec_runner=exec_runner)
        lazy = Evaluator(store, exec_runner=exec_runner)
        self._frozen = {name: lazy.evaluate_name(name)
                        for name in store.names()}

    def evaluate_name(self, name: str) -> str:
        return self._frozen.get(name, "")


def reference_heavy_store() -> tuple[VariableStore, ValueString]:
    """One variable chain referenced 200 times from the page."""
    store = VariableStore()
    store.assign_simple("base", ValueString.parse("value"))
    for i in range(10):
        prev = "base" if i == 0 else f"level{i - 1}"
        store.assign_simple(f"level{i}",
                            ValueString.parse(f"$({prev})!"))
    template = ValueString.parse("$(level9)" * 200)
    return store, template


@pytest.mark.parametrize("evaluator_cls, label", [
    (Evaluator, "lazy (the paper)"),
    (MemoizingEvaluator, "memoized (ablation)"),
], ids=["lazy", "memoized"])
def test_abl_memoization_throughput(benchmark, evaluator_cls, label):
    store, template = reference_heavy_store()
    evaluator = evaluator_cls(store)

    text = benchmark(evaluator.evaluate, template)
    assert text.count("value") == 200


def test_abl_memoization_breaks_row_variables(benchmark):
    """Why the engine must NOT cache: V1 changes per row."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    store = VariableStore()
    lazy = Evaluator(store)
    cached = MemoizingEvaluator(store)
    template = ValueString.parse("<$(V1)>")

    store.set_system("V1", "row-one")
    assert lazy.evaluate(template) == "<row-one>"
    assert cached.evaluate(template) == "<row-one>"

    store.set_system("V1", "row-two")  # the report loop advances
    assert lazy.evaluate(template) == "<row-two>"       # correct
    assert cached.evaluate(template) == "<row-one>"     # stale!


def test_abl_eager_breaks_positional_semantics(benchmark):
    """Why substitution is lazy: eager snapshots freeze nulls."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    store = VariableStore()
    store.assign_simple("X", ValueString.parse("One$(Y)"))
    eager = EagerStoreEvaluator(store)          # Y not defined yet
    store.assign_simple("Y", ValueString.parse(" Two"))
    lazy = Evaluator(store)

    assert lazy.evaluate_name("X") == "One Two"  # sees the definition
    assert eager.evaluate_name("X") == "One"     # froze the null


@pytest.fixture(scope="module")
def file_database(tmp_path_factory):
    path = tmp_path_factory.mktemp("abl") / "urls.sqlite"
    conn = Connection(str(path))
    seed_urldb(conn, 100)
    conn.close()
    return str(path)


class PerRequest:
    """The 1996 model the pool is measured against: a fresh connection
    per checkout, closed on release."""

    def __init__(self, factory):
        self._factory = factory

    def acquire(self) -> Connection:
        return self._factory()

    def release(self, conn: Connection) -> None:
        conn.close()

    def close(self) -> None:
        pass


def _query_once(conn: Connection) -> int:
    cursor = conn.execute(
        "SELECT COUNT(*) FROM urldb WHERE title LIKE '%a%'")
    return int(cursor.fetchone()[0])


@pytest.mark.parametrize("pool_kind", ["per_request", "pooled"])
def test_abl_connection_strategy(benchmark, file_database, pool_kind):
    if pool_kind == "per_request":
        pool = PerRequest(lambda: Connection(file_database))
    else:
        pool = ConnectionPool(lambda: Connection(file_database), size=2)

    def one_request() -> int:
        conn = pool.acquire()
        try:
            return _query_once(conn)
        finally:
            pool.release(conn)

    count = benchmark(one_request)
    assert count > 0
    pool.close()


def test_abl_artifact(benchmark, file_database, artifact):
    import time
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def timed(fn, rounds=200):
        start = time.perf_counter()
        for _ in range(rounds):
            fn()
        return (time.perf_counter() - start) / rounds * 1e6

    store, template = reference_heavy_store()
    lazy_us = timed(lambda: Evaluator(store).evaluate(template), 50)
    memo_us = timed(
        lambda: MemoizingEvaluator(store).evaluate(template), 50)

    per_request = PerRequest(lambda: Connection(file_database))
    pooled = ConnectionPool(lambda: Connection(file_database), size=2)

    def via(pool):
        conn = pool.acquire()
        try:
            _query_once(conn)
        finally:
            pool.release(conn)

    per_request_us = timed(lambda: via(per_request))
    pooled_us = timed(lambda: via(pooled))
    pooled.close()

    artifact("abl_design_choices.txt", "\n".join([
        "ABL — design-choice ablations",
        "",
        f"{'substitution':<34}{'micros/page':>12}",
        f"{'lazy re-evaluation (paper)':<34}{lazy_us:>12.1f}",
        f"{'memoized (ablation, incorrect)':<34}{memo_us:>12.1f}",
        "",
        f"{'connection strategy':<34}{'micros/req':>12}",
        f"{'per-request (1996 CGI)':<34}{per_request_us:>12.1f}",
        f"{'pooled (size 2)':<34}{pooled_us:>12.1f}",
        "",
        "Memoization is faster but stale for per-row report variables;",
        "pooling removes the dominant per-request connection cost.",
    ]) + "\n")
    assert pooled_us < per_request_us
