"""A serving process loads no more of ``repro.html`` than it uses.

The request path escapes with :mod:`repro.html.entities` and nothing
else; the parser, forms, renderer and builder are for the browser, the
figures and the baselines.  Measured in a fresh interpreter, since this
one has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import json, sys
loaded = {}
for name in ("repro.cli", "repro.appserver.worker"):
    __import__(name)
    loaded[name] = sorted(m for m in sys.modules if m.startswith("repro.html."))
print(json.dumps(loaded))
"""


def test_serving_entry_points_import_only_html_entities():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert json.loads(out) == {
        "repro.cli": ["repro.html.entities"],
        "repro.appserver.worker": ["repro.html.entities"],
    }


def test_every_package_name_still_imports():
    import repro.html as html

    for name in html.__all__:
        assert getattr(html, name) is not None
    from repro.html import builder, render_text  # noqa: F401
