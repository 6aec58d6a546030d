"""One settings object and one builder for the DB2WWW program.

The engine's configuration is the server administrator's, however the
engine is reached: one frozen :class:`Settings`, made a program by
:func:`build` alone (``repro run``, in-process ``repro serve``, the CGI
program and its app-server workers, every tenant).  A field is the
``repro`` option of its name and the variable ``REPRO_<FIELD>``
(``macros``: ``REPRO_MACRO_DIR``); a *bindings* field (``NAME=VALUE``
options such as ``--database``) is one ``REPRO_<FIELD>_<NAME>`` per
name, verbatim.  docs/deployment.md §3 tables every variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional

from repro.cgi.gateway import Db2WwwProgram
from repro.core.engine import EngineConfig, MacroEngine
from repro.core.macrofile import MacroLibrary
from repro.resilience.retry import RetryPolicy
from repro.sql.gateway import DatabaseRegistry
from repro.sql.querycache import QueryResultCache
from repro.sql.sharding import build_shard_map
from repro.sql.transactions import TransactionMode
from repro.strictint import parse_decimal

Bindings = tuple[tuple[str, str], ...]  # one (NAME, VALUE) per name


def _count(raw: str) -> int:
    value = parse_decimal(raw)
    if value is None:
        raise ValueError(f"expected a non-negative integer, got {raw!r}")
    return value


def _seconds(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise ValueError("expected a non-negative number of seconds, "
                         f"got {raw!r}")
    return value


def _flag(raw: str) -> bool:
    if raw.strip() not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {raw!r}")
    return raw.strip() == "1"


#: How a field reads back from its variable, by declared type.
_PARSERS = {"str": str, "Optional[str]": str, "int": _count,
            "float": _seconds, "Optional[float]": _seconds, "bool": _flag}


def parse_bindings(items: list[str], what: str) -> list[tuple[str, str]]:
    """``NAME=VALUE`` strings as pairs; exits naming ``what`` on a bad one."""
    pairs = []
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise SystemExit(f"bad {what} {item!r}: expected name=value")
        pairs.append((name, value))
    return pairs


@dataclass(frozen=True)
class Settings:
    """What :func:`build` makes a program from (docs/deployment.md §3
    says what each field means).  The defaults are the CGI program's:
    no cache and a ``stat`` per request."""

    macros: Optional[str] = field(default=None,
                                  metadata={"env": "REPRO_MACRO_DIR"})
    database: Bindings = ()  # NAME -> SQLite path
    transaction_mode: str = field(default="auto_commit", metadata={
        "parse": lambda raw: TransactionMode.parse(raw).value})
    query_cache: int = 0
    macro_stat_ttl: float = 0.0
    degrade: bool = False
    max_retries: int = 0
    request_deadline: Optional[float] = None
    breaker_threshold: int = 0
    inject_faults: Optional[str] = None
    shards: Bindings = ()  # NAME -> comma-separated shard paths
    shard_replicas: Bindings = ()  # NAME.IDX -> comma-separated paths
    shard_key: str = "SHARD_KEY"
    replica_lag_bound: float = 1.0
    shard_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        """Raises ``ValueError`` on a shard topology that cannot be."""
        for name, paths in self.shards:
            if not _paths(paths):
                raise ValueError(f"shards {name!r}: no shard paths")
        for target, _ in self.shard_replicas:
            name, dot, index = target.rpartition(".")
            if not (dot and index.isdigit() and name in dict(self.shards)):
                raise ValueError(f"shard_replicas {target!r}: expected "
                                 "LOGICAL.IDX of a sharded database")

    @classmethod
    def from_args(cls, args: Any) -> "Settings":
        """The settings in parsed arguments (no option: the default),
        checked as strictly as :meth:`from_env` checks a variable."""
        values = {}
        for f in fields(cls):
            value = getattr(args, f.name, f.default)
            flag = "--" + f.name.replace("_", "-")
            if f.type == "Bindings":
                values[f.name] = tuple(
                    dict(parse_bindings(value, flag)).items())
            elif _text(value).strip():
                try:
                    values[f.name] = _parse(f, _text(value))
                except ValueError as exc:
                    raise SystemExit(f"bad {flag}: {exc}") from None
        try:
            return cls(**values)
        except ValueError as exc:
            raise SystemExit(f"bad {exc}") from None

    def to_env(self) -> dict[str, str]:
        """Every field as ``REPRO_*`` variables (``""`` for ``None``)."""
        env = {}
        for f in fields(self):
            name, value = _env_name(f), getattr(self, f.name)
            if f.type == "Bindings":
                env.update((f"{name}_{key}", text) for key, text in value)
            else:
                env[name] = _text(value)
        return env

    @classmethod
    def from_env(cls, env: Mapping[str, str]) -> "Settings":
        """The settings in ``env`` (unset or blank: the default); a
        malformed value raises ``RuntimeError`` naming its variable."""
        values: dict[str, Any] = {}
        for f in fields(cls):
            name = _env_name(f)
            if f.type == "Bindings":
                prefix = name + "_"
                values[f.name] = tuple(
                    (key[len(prefix):], text) for key, text in env.items()
                    if key.startswith(prefix) and key != prefix and text)
            elif env.get(name, "").strip():
                try:
                    values[f.name] = _parse(f, env[name])
                except ValueError as exc:
                    raise RuntimeError(f"{name}: {exc}") from None
        return cls(**values)


def _env_name(f) -> str:
    return f.metadata.get("env", "REPRO_" + f.name.upper())


def _text(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return "" if value is None else str(value)


def _parse(f, raw: str) -> Any:
    return f.metadata.get("parse", _PARSERS[f.type])(raw)


def build_registry(settings: Settings) -> DatabaseRegistry:
    """The databases ``settings`` name, behind their fault injection
    and breakers."""
    registry = DatabaseRegistry()
    for name, path in settings.database:
        registry.register_path(name, path)
    # Shards: primaries registered as LOGICAL#i, replicas LOGICAL#i.rN.
    replicas: dict[str, dict[int, list[str]]] = {}
    for target, paths in settings.shard_replicas:
        name, _, index = target.rpartition(".")
        replicas.setdefault(name, {})[int(index)] = _paths(paths)
    for name, paths in settings.shards:
        shard_map = build_shard_map(
            registry, name, _paths(paths), replica_paths=replicas.get(name),
            key_variable=settings.shard_key,
            lag_bound=settings.replica_lag_bound)
        shard_map.shard_timeout = settings.shard_timeout
    if settings.inject_faults:
        registry.inject_faults(settings.inject_faults)
    if settings.breaker_threshold:
        registry.enable_breakers(
            failure_threshold=settings.breaker_threshold)
    return registry


def _paths(text: str) -> list[str]:
    return [path for path in text.split(",") if path]


def build_query_cache(settings: Settings) -> Optional[QueryResultCache]:
    """The query cache ``settings`` ask for (``None``: no cache)."""
    if not settings.query_cache:
        return None
    return QueryResultCache(max_entries=settings.query_cache)


def build(settings: Settings, *,
          registry: Optional[DatabaseRegistry] = None,
          query_cache: Optional[QueryResultCache] = None,
          read_only: bool = False, **program: Any) -> Db2WwwProgram:
    """The DB2WWW program ``settings`` describe.  ``registry`` and
    ``query_cache`` are what a caller shares instead (a tenant's scoped
    registry, the process's one cache); ``read_only`` and ``program``
    (:class:`Db2WwwProgram` keywords) are a tenant's own."""
    if registry is None:
        registry = build_registry(settings)
    if query_cache is None:
        query_cache = build_query_cache(settings)
    config = EngineConfig(
        transaction_mode=TransactionMode.parse(settings.transaction_mode),
        query_cache=query_cache,
        retry_policy=(RetryPolicy(max_attempts=settings.max_retries + 1)
                      if settings.max_retries else None),
        # 0 is "no budget", as it always was on the command line.
        request_deadline=settings.request_deadline or None,
        read_only=read_only, degrade_sql_errors=settings.degrade)
    library = MacroLibrary(settings.macros,
                           stat_ttl=settings.macro_stat_ttl)
    return Db2WwwProgram(MacroEngine(registry, config=config), library,
                         **program)
