"""Multi-tenant hosting — many isolated applications on one gateway.

The paper's deployment is one macro library in front of one database;
the DbShare model (SNIPPETS.md) hosts *many* small databases, each with
an owner, public/private visibility and a read-only switch, behind one
generic web interface.  A :class:`TenantRegistry` reproduces that on
top of the existing machinery:

* each :class:`Tenant` gets its own :class:`~repro.core.macrofile.
  MacroLibrary` (macro namespace) and a :class:`~repro.sql.gateway.
  ScopedDatabaseRegistry` view of the shared database registry, so two
  tenants may both call a database ``SHOP`` without sharing a backend,
  a pool, or — because cache keys carry the scoped name — a single
  cached row;
* ``read_only`` tenants run their engine with
  ``EngineConfig.read_only``: any non-SELECT is rejected with SQLSTATE
  42501 before a connection is acquired;
* per-tenant quotas (requests and fetched rows per fixed window) are
  admission-checked before dispatch and answer 429 with the unified
  ``Retry-After`` when exhausted;
* per-tenant request/row/denial counters surface on ``/metrics`` via
  :meth:`TenantRegistry.labeled_stats` (attached as the ``tenant``
  source, labeled by tenant).
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.cgi.request import CgiRequest
from repro.core.engine import MacroResult
from repro.errors import SQLObjectError
from repro.security.auth import BasicAuthenticator
from repro.security.tenants import VISIBILITIES
from repro.settings import (Settings, build, build_query_cache,
                            build_registry)
from repro.sql.gateway import ScopedDatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.tenancy.jsonapi import negotiated_renderer

#: Tenant (and tenant-database) names: one URL path segment, no
#: separators, no dot-dot — checked at parse time so traversal attempts
#: (``../``, ``%2e%2e``) never reach a filesystem or registry lookup.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def valid_tenant_name(name: str) -> bool:
    return (bool(NAME_PATTERN.match(name)) and ".." not in name
            and len(name) <= 64)


@dataclass
class TenantQuota:
    """Per-tenant fixed-window limits; ``None`` means unlimited.

    ``requests`` caps admissions per window; ``rows`` caps *fetched*
    query rows per window (charged after each page completes, so one
    huge report may overshoot once — the next request is what gets the
    429, the standard fixed-window trade).
    """

    requests: Optional[int] = None
    rows: Optional[int] = None
    window_seconds: float = 60.0


class _QuotaWindow:
    """Thread-safe fixed-window counters enforcing a TenantQuota."""

    def __init__(self, quota: TenantQuota):
        self.quota = quota
        self._lock = threading.Lock()
        self._window_start = time.monotonic()
        self._requests = 0
        self._rows = 0

    def _roll(self, now: float) -> None:
        if now - self._window_start >= self.quota.window_seconds:
            self._window_start = now
            self._requests = 0
            self._rows = 0

    def admit(self) -> tuple[bool, float]:
        """Admit one request: ``(allowed, retry_after_seconds)``.

        ``retry_after`` is the honest window-reset hint, same contract
        as the overload controller's 503s.
        """
        quota = self.quota
        if quota.requests is None and quota.rows is None:
            return True, 0.0
        with self._lock:
            now = time.monotonic()
            self._roll(now)
            exhausted = (
                (quota.requests is not None
                 and self._requests >= quota.requests)
                or (quota.rows is not None and self._rows >= quota.rows))
            if exhausted:
                remaining = quota.window_seconds - (now
                                                    - self._window_start)
                return False, max(0.0, remaining)
            self._requests += 1
            return True, 0.0

    def charge_rows(self, count: int) -> None:
        if count <= 0 or self.quota.rows is None:
            return
        with self._lock:
            self._rows += count


class Tenant:
    """One hosted application: macros + scoped databases + identity,
    its program built from ``settings`` over its scoped registry."""

    def __init__(self, name: str, *, owner: str,
                 visibility: str, read_only: bool,
                 databases: ScopedDatabaseRegistry, settings: Settings,
                 query_cache: Optional[QueryResultCache] = None,
                 quota: Optional[TenantQuota] = None):
        self.name = name
        self.owner = owner
        self.visibility = visibility
        self.read_only = read_only
        self.databases = databases
        self.quota = _QuotaWindow(quota or TenantQuota())
        self._lock = threading.Lock()
        self._requests = 0
        self._rows = 0
        self._denied = 0
        self._throttled = 0
        self.program = build(
            settings, registry=databases, query_cache=query_cache,
            read_only=read_only,
            negotiate=lambda request: negotiated_renderer(request.environ),
            result_hook=self._settle)
        self.engine = self.program.engine
        self.library = self.program.library

    # -- accounting --------------------------------------------------------

    def _settle(self, request: CgiRequest, result: MacroResult) -> None:
        """Charge a completed page: row quota + the rows counter."""
        with self._lock:
            self._rows += result.rows
        self.quota.charge_rows(result.rows)

    def record_request(self) -> None:
        with self._lock:
            self._requests += 1

    def record_denied(self) -> None:
        with self._lock:
            self._denied += 1

    def record_throttled(self) -> None:
        with self._lock:
            self._throttled += 1

    def stats(self) -> dict:
        """This tenant's counters (rendered as
        ``tenant_<key>{tenant="<name>"}``)."""
        with self._lock:
            return {
                "requests_total": self._requests,
                "rows_total": self._rows,
                "denied_total": self._denied,
                "throttled_total": self._throttled,
            }


class TenantRegistry:
    """All tenants hosted by one edge, plus their shared substrate.

    One shared physical :class:`DatabaseRegistry`, one shared
    :class:`BasicAuthenticator` (owners are global identities), one
    optional shared query cache whose keys the scoped registries keep
    disjoint per tenant.  Registry and tenants are built from the
    process's :class:`~repro.settings.Settings`; a tenant's macro root,
    scoped registry and read-only switch are its own.
    """

    def __init__(self, settings: Optional[Settings] = None, *,
                 authenticator: Optional[BasicAuthenticator] = None,
                 query_cache: Optional[QueryResultCache] = None):
        self.settings = settings or Settings()
        self.databases = build_registry(self.settings)
        self.authenticator = authenticator or BasicAuthenticator(
            realm="tenants")
        self.query_cache = query_cache if query_cache is not None \
            else build_query_cache(self.settings)
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def create_tenant(self, name: str, *, owner: str,
                      password: Optional[str] = None,
                      visibility: str = "public",
                      read_only: bool = False,
                      macro_root: Optional[str | Path] = None,
                      quota: Optional[TenantQuota] = None) -> Tenant:
        """Provision one tenant; returns it for macro/database setup.

        ``password`` (when given) registers ``owner`` with the shared
        authenticator; omit it for owners that already have credentials.
        """
        if not valid_tenant_name(name):
            raise ValueError(
                f"bad tenant name {name!r}: one path segment of "
                "[A-Za-z0-9_.-], no '..', leading alphanumeric")
        if visibility not in VISIBILITIES:
            raise ValueError(
                f"bad visibility {visibility!r}: expected one of "
                f"{'/'.join(VISIBILITIES)}")
        if not owner:
            raise ValueError("tenant owner must be non-empty")
        tenant = Tenant(
            name, owner=owner, visibility=visibility,
            read_only=read_only,
            databases=ScopedDatabaseRegistry(self.databases, name),
            settings=replace(self.settings, macros=macro_root),
            query_cache=self.query_cache, quota=quota)
        with self._lock:
            if name in self._tenants:
                raise SQLObjectError(
                    f"tenant {name!r} already exists", sqlstate="42710")
            self._tenants[name] = tenant
        if password is not None:
            self.authenticator.add_user(owner, password)
        return tenant

    def drop_tenant(self, name: str) -> None:
        """Tear a tenant down: databases unregistered, cache purged.

        Refuses (SQLSTATE 55006, from the database registry) while any
        of the tenant's connections are still active; on success a
        recreated tenant of the same name starts with fresh write
        generations and an empty cache namespace — it can never serve
        the departed tenant's rows.
        """
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                raise SQLObjectError(f"no tenant named {name!r}",
                                     sqlstate="42704")
        for database in tenant.databases.names():
            tenant.databases.unregister(database, cache=self.query_cache)
        with self._lock:
            self._tenants.pop(name, None)

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Optional[Tenant]:
        with self._lock:
            return self._tenants.get(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    # -- observability -----------------------------------------------------

    def labeled_stats(self) -> dict:
        """Per-tenant counter bags keyed by tenant name.

        Attached as ``metrics.attach_source("tenant", registry
        .labeled_stats, label="tenant")``: the tenant name travels as a
        label value, ``tenant_requests_total{tenant="acme"}``.
        """
        with self._lock:
            tenants = sorted(self._tenants.items())
        return {name: tenant.stats() for name, tenant in tenants}
