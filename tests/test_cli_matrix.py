"""Every fixture through every CLI command prints the same bytes.

The matrix runs each fixture through ``analyze`` (and, for a Pfaff system,
``analyze --method wedge`` and ``--method contragredient``), ``complete``,
``complete --max-generators 3``, ``bracket``, ``convert --to
td|pde|pfaff|normal`` and, for a td or pde system, ``convert --to normal
--pivots v`` for each of its variables; each call with and without
``--json``.  ``verify`` runs with each sidecar's integrals, with and without
``--json``.  All calls go through ``cli.main`` in this process, from the
repository root, so that paths print the same everywhere.

Each call's record is argv, stdout, stderr and exit code.  ``cli_matrix.txt``
pins the sha256 of every record, one line per call, so that a mismatch names
the first argv whose output differs; ``MATRIX_SHA256`` pins the sha256 of
all records in order.  After a deliberate change of output, rewrite the file
with ``PYTHONPATH=src python tests/test_cli_matrix.py`` and re-pin the
printed sha256.
"""

import contextlib
import hashlib
import io
import json
import os
from collections import Counter
from pathlib import Path

from frobenius import cli
from frobenius.dsl import parse_system

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "cli_matrix.txt"

MATRIX_SHA256 = "7a120114c0a4ee6cd63ae67dd83d2a3b94258d91bbad03226a35a8e31614a495"
EXIT_CODES = {0: 390, 2: 38}


def matrix() -> list[list[str]]:
    calls = []
    for path in sorted((ROOT / "fixtures").glob("*.dsys")):
        rel = f"fixtures/{path.name}"
        system = parse_system(path.read_text(encoding="utf-8"))
        commands = [["analyze"]]
        if system.kind == "pfaff":
            commands += [
                ["analyze", "--method", m] for m in ("wedge", "contragredient")
            ]
        commands += [["complete"], ["complete", "--max-generators", "3"], ["bracket"]]
        commands += [["convert", "--to", t] for t in ("td", "pde", "pfaff", "normal")]
        if system.kind != "pfaff":
            commands += [
                ["convert", "--to", "normal", "--pivots", v]
                for v in system.scope.names
            ]
        sidecar = json.loads(
            path.with_suffix(".expected.json").read_text(encoding="utf-8")
        )
        integrals = [item["expr"] for item in sidecar.get("integrals", [])]
        if integrals:
            commands.append(
                ["verify"] + [a for expr in integrals for a in ("--integral", expr)]
            )
        for command in commands:
            argv = [command[0], rel] + command[1:]
            calls += [argv, argv + ["--json"]]
    return calls


def run(argv: list[str]) -> tuple[bytes, int]:
    """One call's record, as bytes, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = json.dumps([argv, out.getvalue(), err.getvalue(), code])
    return record.encode("utf-8"), code


def run_matrix() -> tuple[list[tuple[str, str]], str, Counter]:
    """(record sha256, argv text) per call, the sha256 of all records, and
    the count of each exit code."""
    rows, total, codes = [], hashlib.sha256(), Counter()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in matrix():
            record, code = run(argv)
            rows.append((hashlib.sha256(record).hexdigest(), " ".join(argv)))
            total.update(record)
            codes[code] += 1
    finally:
        os.chdir(cwd)
    return rows, total.hexdigest(), codes


def test_cli_matrix_is_unchanged():
    rows, total, codes = run_matrix()
    pinned = [
        tuple(line.split(" ", 1))
        for line in PINS.read_text(encoding="utf-8").splitlines()
    ]
    for got, want in zip(rows, pinned):
        assert got == want, f"first differing call: frobenius {want[1]}"
    assert len(rows) == len(pinned)
    assert total == MATRIX_SHA256
    assert dict(codes) == EXIT_CODES


if __name__ == "__main__":
    rows, total, codes = run_matrix()
    PINS.write_text("".join(f"{h} {argv}\n" for h, argv in rows), encoding="utf-8")
    print(f"{len(rows)} calls, exit codes {dict(sorted(codes.items()))}")
    print(f"sha256 {total}")
