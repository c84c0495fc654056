"""The generated benchmark systems print the same reports.

``perfbench/generate.py``'s ``poly_closure`` and ``rational_td`` workloads
at seeds 1-3 are 81 systems.  The sha256 of their ``analyze`` JSON, each
report dumped with ``indent=2`` and the dumps concatenated in workload and
seed order, pins every byte of the verdicts, witnesses, added generators,
loci and integral certificates.  The analysis runs in a subprocess, so that
``perfbench`` stays off this process's import path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REPORTS_SHA256 = "089902283756bbf85242a5f38e46e7d69555885dae7e9bdce300f12317311744"

SCRIPT = """
import hashlib, json
from frobenius import analysis, dsl
from generate import workload

digest = hashlib.sha256()
count = 0
for name in ("poly_closure", "rational_td"):
    for seed in (1, 2, 3):
        for gen in workload(name, seed):
            system = dsl.parse_system(gen.text, name=gen.name)
            integrals = [system.scope.parse(p.dsl()) for p in gen.integrals]
            report = analysis.analyze(system, integrals, seed=seed)
            data = analysis.report_to_dict(report)
            digest.update(json.dumps(data, indent=2).encode())
            count += 1
print(json.dumps({"count": count, "sha256": digest.hexdigest()}))
"""


def test_generated_workload_reports_are_unchanged():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    assert outcome == {"count": 81, "sha256": REPORTS_SHA256}
