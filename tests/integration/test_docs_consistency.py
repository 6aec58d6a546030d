"""The written record matches the tree it describes."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_design_inventory_lists_exactly_the_packages_that_exist():
    """Every ``src/repro/*/`` package has a row (or, for ``core``, its
    own section) in DESIGN.md's module map, and every row a package."""
    packages = {path.parent.name
                for path in (ROOT / "src" / "repro").glob("*/__init__.py")}
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    listed = set(re.findall(r"^\| `repro/(\w+)/` \|", design, re.M))
    listed |= set(re.findall(r"^#+ .*`src/repro/(\w+)/`", design, re.M))
    assert listed == packages, (
        f"no DESIGN.md row: {sorted(packages - listed)}; "
        f"row without a package: {sorted(listed - packages)}")


def test_deployment_guide_does_not_sell_method_replay_as_write_safety():
    """GET/HEAD replay keys on the method and every macro is reachable
    by GET: it is a limitation (ROADMAP item 2), not a guarantee."""
    guide = (ROOT / "docs" / "deployment.md").read_text(encoding="utf-8")
    assert "only if idempotent" not in guide
    assert "rather than risking a doubled write" not in guide
    assert "AppServerDispatcher.run" in guide


def test_deployment_guide_opens_the_edge_with_the_loop_rule():
    """§8's first paragraph says which CGI pages the loop answers and
    names the counter that shows when it guessed wrong."""
    guide = (ROOT / "docs" / "deployment.md").read_text(encoding="utf-8")
    opening = guide.split("## 8. ", 1)[1].split("\n\n", 2)[1]
    for phrase in ("switch interval", "query cache",
                   "edge_loop_abandoned_total", "never tried"):
        assert phrase in " ".join(opening.split()), phrase


def documented_families() -> list[tuple[str, str, str]]:
    """``(token, family regex, label or "")`` for every backticked name
    in the first column of docs/observability.md §2's family table."""
    guide = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    section = guide.split("## 2. ", 1)[1].split("\n## ", 1)[0]
    documented = []
    for row in re.findall(r"^\| (`.*?) \|", section, re.M):
        # (parenthesised names are examples or the keys a row covers)
        for token in re.findall(r"`([^`]+)`", re.sub(r"\(.*?\)", "", row)):
            family, _, label = token.partition("{")
            pattern = "".join(
                "[a-z0-9_]+" if part.startswith("<")
                else "[a-z0-9_]*" if part == "*" else re.escape(part)
                for part in re.split(r"(<[^>]+>|\*)", family))
            documented.append((token, pattern, label.partition("=")[0]))
    return documented


def test_observability_table_matches_a_wired_registry():
    """Every family and source prefix in the §2 table exists on a
    registry wired the way ``repro serve`` wires it, with the label the
    row names, and every family on that registry has a row."""
    from repro.obs.metrics import parse_sample
    from tests.obs.test_scrape_validity import wired_registry

    labels: dict[str, str] = {}  # family -> its label ("" for none)
    for line in wired_registry().render_text().splitlines():
        if line.startswith("# TYPE "):
            family = line.split()[2]
            labels[family] = ""
        elif line:
            label = parse_sample(line.rsplit(" ", 1)[0])[1]
            if label not in (None, "quantile"):
                labels[family] = label
    documented = documented_families()
    for token, pattern, label in documented:
        assert any(re.fullmatch(pattern, family)
                   and (not label or labels[family] == label)
                   for family in labels), \
            f"documented, not on the registry: {token}"
    undocumented = sorted(
        f for f in labels
        if not any(re.fullmatch(p, f) for _, p, _ in documented))
    assert not undocumented, f"no §2 row: {undocumented}"
