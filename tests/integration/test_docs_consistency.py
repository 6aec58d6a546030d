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
    assert "_PeerDispatcher.run" in guide
