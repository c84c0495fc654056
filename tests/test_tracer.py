"""The benchmark's per-layer tracer still finds every callable it wraps.

``perfbench/tracing.py`` wraps public frobenius callables by name, so a
refactor that renames or deletes one breaks ``perfbench/run.py --trace 1``.
The tracer runs in a subprocess, so that no wrapper stays installed here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io
from tracing import Tracer
from frobenius import cli

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze", "fixtures/ex_4_6.dsys", "--json"]) == 0
metrics = tracer.metrics(1)
assert metrics["cli.main.calls"]["value"] == 1, metrics["cli.main.calls"]
assert metrics["analysis.pfaff_closure_check.calls"]["value"] == 1
"""


def test_tracer_installs_and_records():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
