"""Relational DBMS substrate: connections, cursors, pools, transactions.

This package stands in for the IBM DB2 access layer of the paper (see
DESIGN.md's substitution table).  Public surface:

* :func:`connect` / :class:`Connection` — open a database
* :class:`MemoryDatabase` — named shared in-memory database
* :class:`Cursor` — result-set handle
* :class:`ConnectionPool` / :class:`PerRequestPool` — checkout strategies
* :class:`TransactionMode` / :class:`TransactionScope` — Section 5 modes
* :class:`DatabaseRegistry` / :class:`MacroSqlSession` /
  :class:`ExecutionResult` — the facade the macro engine consumes
* :class:`QueryResultCache` / :class:`WriteGeneration` —
  generation-keyed SELECT result reuse (see repro.sql.querycache)
* :class:`ShardMap` / :class:`ShardedSqlSession` — hash/range-sharded
  logical databases with read replicas and a scatter-gather merge (see repro.sql.sharding)
* :mod:`repro.sql.dialect` — SQL text helpers (quoting, LIKE patterns)
* :mod:`repro.sql.catalog` — table/column introspection
"""

from repro.sql.catalog import (
    ColumnInfo,
    TableInfo,
    describe_table,
    list_tables,
    row_count,
)
from repro.sql.connection import Connection, MemoryDatabase, connect
from repro.sql.cursor import Cursor, value_to_text
from repro.sql.gateway import (
    DatabaseRegistry,
    ExecutionResult,
    MacroSqlSession,
)
from repro.sql.pool import ConnectionPool, PerRequestPool
from repro.sql.querycache import QueryResultCache, WriteGeneration
from repro.sql.sharding import (
    Replica,
    Shard,
    ShardMap,
    ShardedSqlSession,
    build_shard_map,
)
from repro.sql.transactions import TransactionMode, TransactionScope

__all__ = [
    "ColumnInfo",
    "Connection",
    "ConnectionPool",
    "Cursor",
    "DatabaseRegistry",
    "ExecutionResult",
    "MacroSqlSession",
    "MemoryDatabase",
    "PerRequestPool",
    "QueryResultCache",
    "Replica",
    "Shard",
    "ShardMap",
    "ShardedSqlSession",
    "TableInfo",
    "TransactionMode",
    "TransactionScope",
    "WriteGeneration",
    "build_shard_map",
    "connect",
    "describe_table",
    "list_tables",
    "row_count",
    "value_to_text",
]
