"""The largest generated closure stays fast and prints the same report.

``perfbench/generate.py``'s ``poly_closure(random.Random(1), 0, 7, 2)`` is
a PDE system in 7 variables whose closure adds 3 generators, more than
any benchmark workload adds.  Its span certificates once took 87 CPU
seconds to build and check; the budget below fails that engine.  The
report's sha256 pins the JSON bytes.  The analysis runs in a subprocess,
so that ``perfbench`` stays off this process's import path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REPORT_SHA256 = "f8f3558472cb292c3eaac019b8ba1879161f830221380420e4bb1edda2fc7516"
CPU_BUDGET_S = 20.0

SCRIPT = """
import hashlib, json, random, time
from frobenius import analysis, dsl
from generate import poly_closure

gen = poly_closure(random.Random(1), 0, 7, 2)
system = dsl.parse_system(gen.text, name=gen.name)
integrals = [system.scope.parse(planted.dsl()) for planted in gen.integrals]
begin = time.process_time()
report = analysis.analyze(system, integrals, seed=1)
data = analysis.report_to_dict(report)
text = json.dumps(data, indent=2) + "\\n"
cpu_s = time.process_time() - begin
print(json.dumps({
    "defect": data["defect"],
    "sha256": hashlib.sha256(text.encode()).hexdigest(),
    "cpu_s": cpu_s,
}))
"""


def test_seven_variable_closure_is_fast_and_unchanged():
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
    assert outcome["defect"] == 3
    assert outcome["sha256"] == REPORT_SHA256
    assert outcome["cpu_s"] < CPU_BUDGET_S, outcome
