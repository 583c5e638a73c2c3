"""The traced benchmark can still wrap every layer it names.

``perfbench/tracing.py`` replaces each of its ``TARGETS`` by name after
``import vrg.cli``; a renamed function, or a module it looks up that is no
longer imported by then, makes every traced pass fail.  A fresh process
checks this, so that modules other tests import cannot hide a miss; it
only loads ``tracing.py``, never installs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import importlib.util, json, sys
import vrg.cli

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
unresolved = []
for name, owner, attr, _ in tracing.TARGETS:
    host = sys.modules.get(owner)
    for part in attr.split("."):
        host = getattr(host, part, None)
    if not callable(host):
        unresolved.append(name)
print(json.dumps({"unresolved": unresolved, "mpmath": "mpmath" in sys.modules}))
"""


def _probe() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench" / "tracing.py")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_every_trace_target_resolves_after_import_vrg_cli():
    result = _probe()
    assert result["unresolved"] == []
    # fiber.polyroots is wrapped on the mpmath module, which vrg.fiber
    # must import at module level
    assert result["mpmath"]
