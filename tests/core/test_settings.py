"""One settings object, one builder: every setting reaches every mode.

The program is built in three places that serve requests -- the
in-process engine, an app-server worker (from the environment ``serve``
hands it) and a hosted tenant -- and each must carry every
:class:`~repro.settings.Settings` field, not the subset its assembly
code happened to copy.
"""

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cgi.db2www_main import build_program
from repro.resilience.faults import FaultSpec
from repro.settings import Settings, build
from repro.sql.gateway import ScopedDatabaseRegistry
from repro.tenancy import TenantRegistry

SHARDS = (("INV", "inv0.db,inv1.db"),)


def physical(program):
    """The registry behind a program (a tenant's through its scope)."""
    registry = program.engine.registry
    if isinstance(registry, ScopedDatabaseRegistry):
        return registry.physical()
    return registry


def shard_map(program):
    return physical(program).shard_map("INV")


#: field -> (a non-default value, what it looks like on a built
#: program, how to read that off the program).  Shard tuning needs a
#: shard map to land on, so those rows also set ``shards``.
MATRIX = {
    "macros": ("elsewhere", Path("elsewhere"),
               lambda p: p.library.root),
    "database": ((("shop", "shop.sqlite"),), True,
                 lambda p: "shop" in physical(p).names()),
    "transaction_mode": ("single", "single",
                         lambda p: p.engine.config.transaction_mode.value),
    "query_cache": (7, 7, lambda p: p.engine.config.query_cache.max_entries),
    "macro_stat_ttl": (5.0, 5.0, lambda p: p.library.stat_ttl),
    "pool_size": (3, 3, lambda p: physical(p)._pool_config["size"]),
    "degrade": (True, True, lambda p: p.engine.config.degrade_sql_errors),
    "max_retries": (3, 4,
                    lambda p: p.engine.config.retry_policy.max_attempts),
    "request_deadline": (2.5, 2.5,
                         lambda p: p.engine.config.request_deadline),
    "breaker_threshold": (
        2, 2, lambda p: physical(p).breaker("x").failure_threshold),
    "inject_faults": ("every:1000", FaultSpec.parse("every:1000"),
                      lambda p: physical(p)._injector.spec),
    "shards": (SHARDS, ["INV#0", "INV#1"],
               lambda p: [s.database for s in shard_map(p).shards]),
    "shard_replicas": ((("INV.1", "r1.db"),), ["INV#1.r1"],
                       lambda p: [r.database
                                  for r in shard_map(p).shards[1].replicas]),
    "shard_key": ("CUST", "CUST", lambda p: shard_map(p).key_variable),
    "replica_lag_bound": (0.5, 0.5, lambda p: shard_map(p).lag_bound),
    "shard_timeout": (0.25, 0.25, lambda p: shard_map(p).shard_timeout),
}
NEEDS_SHARDS = {"shard_replicas", "shard_key", "replica_lag_bound",
                "shard_timeout"}

#: What a tenant keeps of its own instead of the process's value.
TENANT_OWN = {"macros": lambda p: p.library.root is None}


def in_process(settings):
    """``repro serve --gateway inprocess``: build() in this process."""
    return build(settings)


def worker(settings):
    """An app-server worker: the environment ``serve`` hands it."""
    return build_program(settings.to_env())


def tenant(settings):
    """A hosted tenant, built from the process's settings."""
    return TenantRegistry(settings).create_tenant(
        "alpha", owner="alice").program


def test_the_matrix_covers_every_field():
    assert set(MATRIX) == {f.name for f in fields(Settings)}


@pytest.mark.parametrize("mode", [in_process, worker, tenant],
                         ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", sorted(MATRIX))
def test_every_setting_reaches_every_mode(name, mode):
    value, expected, read = MATRIX[name]
    assert value != getattr(Settings(), name)
    base = Settings(macros="macros")
    if name in NEEDS_SHARDS:
        base = replace(base, shards=SHARDS)
    program = mode(replace(base, **{name: value}))
    if mode is tenant and name in TENANT_OWN:
        assert TENANT_OWN[name](program)
    else:
        assert read(program) == expected


_names = st.text(st.sampled_from("abcXYZ019_."), min_size=1, max_size=8)
_text = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\x00"),
                min_size=1, max_size=12).filter(str.strip)
_bindings = st.dictionaries(_names, _text, max_size=3).map(
    lambda d: tuple(d.items()))
_seconds = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
_counts = st.integers(min_value=0, max_value=10**6)
_STRATEGIES = {"Optional[str]": st.none() | _text, "str": _text,
               "int": _counts, "float": _seconds, "bool": st.booleans(),
               "Optional[float]": st.none() | _seconds,
               "Bindings": _bindings}


@st.composite
def settings(draw):
    values = {f.name: draw(_STRATEGIES[f.type]) for f in fields(Settings)}
    values["transaction_mode"] = draw(st.sampled_from(
        ["auto_commit", "single"]))
    # A replica belongs to a shard of a sharded database, which has a
    # path.
    shards = draw(st.dictionaries(
        _names, _text.filter(lambda paths: paths.strip(",")), max_size=3))
    replicated = draw(st.lists(st.sampled_from(sorted(shards)),
                               unique=True) if shards else st.just([]))
    values["shards"] = tuple(shards.items())
    values["shard_replicas"] = tuple((f"{name}.{index}", draw(_text))
                                     for index, name in enumerate(replicated))
    return Settings(**values)


@given(settings())
def test_the_environment_round_trips(s):
    assert Settings.from_env(s.to_env()) == s


def test_from_args_reads_every_serve_option():
    """``serve``'s argv is where every mode's settings come from."""
    from repro.cli import build_parser

    argv = ["serve"]
    for name, (value, _, _) in MATRIX.items():
        flag = "--" + name.replace("_", "-")
        if name in ("transaction_mode", "pool_size"):
            continue  # pinned by serve, not options
        if isinstance(value, tuple):
            for binding in value:
                argv += [flag, "=".join(binding)]
        elif value is True:
            argv.append(flag)
        else:
            argv += [flag, str(value)]
    got = Settings.from_args(build_parser().parse_args(argv))
    assert got == Settings(**{name: value
                              for name, (value, _, _) in MATRIX.items()
                              if name not in ("transaction_mode",
                                              "pool_size")})


def test_a_tenant_carries_the_engine_options(tmp_path):
    """``serve --tenant-config`` used to build every tenant from a
    default engine config: no degradation, no retries, a stat per
    request, no breakers, no fault injection."""
    from repro.cli import _load_tenant_config, build_parser

    config = tmp_path / "tenants.json"
    config.write_text(json.dumps({"tenants": [
        {"name": "alpha", "owner": "alice",
         "databases": {"SHOP": str(tmp_path / "shop.sqlite")}}]}))
    args = build_parser().parse_args([
        "serve", "--macros", str(tmp_path), "--tenant-config", str(config),
        "--degrade", "--max-retries", "3", "--macro-stat-ttl", "5",
        "--breaker-threshold", "2", "--inject-faults", "every:1000"])
    registry = _load_tenant_config(args.tenant_config,
                                   Settings.from_args(args))
    alpha = registry.get("alpha")
    assert alpha.engine.config.degrade_sql_errors
    assert alpha.engine.config.retry_policy.max_attempts == 4
    assert alpha.library.stat_ttl == 5.0
    assert alpha.databases.physical().breaker(
        alpha.databases.resolve("SHOP")).failure_threshold == 2
    assert alpha.databases.physical()._injector.spec.every == 1000
    # ...and the default query cache, one for the process.
    assert alpha.engine.config.query_cache is registry.query_cache
    assert registry.query_cache.max_entries == 128


def test_bad_values_name_their_variable(tmp_path):
    env = {"REPRO_MACRO_DIR": str(tmp_path)}
    for name, raw in (("REPRO_TRANSACTION_MODE", "sometimes"),
                      ("REPRO_DEGRADE", "yes"),
                      ("REPRO_SHARD_TIMEOUT", "-1"),
                      ("REPRO_MAX_RETRIES", "1_0")):
        with pytest.raises(RuntimeError, match=name):
            build_program({**env, name: raw})


def test_a_replica_of_no_shard_is_a_configuration_error(tmp_path):
    """A CGI run answers 500 naming the bad setting."""
    from repro.cgi.db2www_main import main

    out = main({"REPRO_MACRO_DIR": str(tmp_path),
                "REPRO_SHARD_REPLICAS_INV.0": "r.db",
                "PATH_INFO": "/x.d2w/report"}, stdin=b"")
    assert out.startswith(b"Status: 500") and b"INV.0" in out


@pytest.mark.parametrize("argv", [
    ["--query-cache", "-5"], ["--max-retries", "-1"],
    ["--macro-stat-ttl", "nan"], ["--shard-timeout", "inf"]],
    ids=lambda a: " ".join(a))
def test_a_bad_option_is_refused_by_name(argv):
    """An option is checked as strictly as the variable it becomes: a
    worker would refuse it, so ``serve`` does first."""
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--macros", "m", *argv])
    with pytest.raises(SystemExit, match=argv[0]):
        Settings.from_args(args)
