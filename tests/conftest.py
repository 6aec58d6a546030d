"""Shared fixtures: seeded databases, installed applications, sites.

Chaos mode: ``pytest --inject-faults SPEC`` installs an *ambient* fault
injector for the whole run (see :mod:`repro.resilience.faults`).  The
gateway then injects transient faults into idempotent reads and absorbs
them with a default retry policy — the full tier-1 suite must stay
green under ``--inject-faults prob:0.05`` (CI's ``chaos`` job runs
exactly that).
"""

from __future__ import annotations

import pytest

from repro.apps import build_site
from repro.apps import library as library_app
from repro.apps import orders as orders_app
from repro.apps import urlquery as urlquery_app
from repro.core.engine import MacroEngine
from repro.sql import gateway
from repro.sql.gateway import DatabaseRegistry


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--inject-faults", default=None, metavar="SPEC",
        help="run the whole suite under ambient database fault "
             "injection, e.g. prob:0.05 (see repro.resilience.faults)")


def pytest_configure(config: pytest.Config) -> None:
    spec = config.getoption("--inject-faults")
    if spec:
        from repro.resilience import faults
        faults.set_ambient_injector(faults.FaultInjector.parse(spec))


def pytest_unconfigure(config: pytest.Config) -> None:
    if config.getoption("--inject-faults"):
        from repro.resilience import faults
        faults.set_ambient_injector(None)


@pytest.fixture()
def fault_spec(request: pytest.FixtureRequest) -> str:
    """The chaos spec for fault-driven tests (CLI override or default)."""
    return request.config.getoption("--inject-faults") or "prob:0.05"


@pytest.fixture()
def spill(monkeypatch):
    """``spill(rows=1)`` shrinks the spill budget (``gateway.SPILL_ROWS``)
    so that a result of more than ``rows`` rows spills."""
    def set_budget(rows: int = 1) -> None:
        monkeypatch.setattr(gateway, "SPILL_ROWS", rows)
    return set_budget


@pytest.fixture()
def registry() -> DatabaseRegistry:
    return DatabaseRegistry()


@pytest.fixture()
def shop_registry() -> DatabaseRegistry:
    """A tiny one-table database registered as SHOP."""
    registry = DatabaseRegistry()
    db = registry.register_memory("SHOP")
    with db.connect() as conn:
        conn.executescript(
            """
            CREATE TABLE items (
                name  TEXT NOT NULL,
                price REAL NOT NULL,
                qty   INTEGER NOT NULL
            );
            INSERT INTO items VALUES
                ('bikes', 250.0, 4),
                ('helmets', 45.5, 10),
                ('tents', 120.0, 2);
            """)
    return registry


@pytest.fixture()
def shop_engine(shop_registry) -> MacroEngine:
    return MacroEngine(shop_registry)


@pytest.fixture(scope="session")
def urlquery():
    """The Appendix A application, installed once per test session."""
    return urlquery_app.install(rows=80)


@pytest.fixture(scope="session")
def urlquery_site(urlquery):
    return build_site(urlquery.engine, urlquery.library)


@pytest.fixture()
def orders():
    return orders_app.install()


@pytest.fixture()
def books():
    return library_app.install(books=60)
