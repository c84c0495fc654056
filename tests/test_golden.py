"""Byte-for-byte `analyze`, `convert`, `bracket`, `complete` and
`check-fixtures` `--json` outputs.

Each analyze case runs `frobenius analyze <fixture> --json` with the fixture's
sidecar integrals, plus a few invalid integrals (no sidecar holds one) so that
every certificate field appears: residuals with an exact and a float witness
value (td, pde) and a witness minor (pfaff); `verify --json` must agree with
it.  Each convert case runs `frobenius convert fixtures/<fixture>.dsys --to
<target> --json` from the repository root, for every fixture and target; a
pair with no stored output must still fail with an error.  Conversions lift
values between scopes, which analyze does not.  Each fixture's `bracket --json`
(the one output that prints per-pair span coefficients) and `complete --json`
are pinned too, and so is `check-fixtures fixtures --json --seed 7`.  To
rewrite the stored outputs after an intended change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from conftest import FIXTURES
from frobenius.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

INVALID = {
    "ex_1_7-invalid": ("ex_1_7", ["x1", "x1*exp(t1)"]),
    "ex_2_32-invalid": ("ex_2_32", ["x1"]),
    "ex_4_1-invalid": ("ex_4_1", ["x1*x2"]),
    "ex_4_6-invalid": ("ex_4_6", ["x"]),
    # the exp-kernel path: quotient rule over kernel denominators, kernel
    # merging, unit clearing, float witness values, and a witness minor over
    # kernel-bearing rows
    "ex_1_3-kernels": (
        "ex_1_3",
        ["1/(exp(t1) + x1)", "x2*exp(t2)/(x3 - exp(t1 + t2))"],
    ),
    "ex_4_6-kernels": ("ex_4_6", ["1/(exp(x) + y)"]),
}


def _cases() -> dict[str, tuple[str, list[str]]]:
    cases = {}
    for path in sorted(FIXTURES.glob("*.dsys")):
        sidecar = json.loads(path.with_suffix(".expected.json").read_text())
        cases[path.stem] = (path.stem, [i["expr"] for i in sidecar.get("integrals", [])])
    cases.update(INVALID)
    return cases


CASES = _cases()

TARGETS = ("td", "pde", "pfaff", "normal")
CONVERSIONS = {
    f"{path.stem}-to-{target}": (path.stem, target)
    for path in sorted(FIXTURES.glob("*.dsys"))
    for target in TARGETS
}


TABLES = {
    f"{path.stem}-{command}": (command, path.stem)
    for path in sorted(FIXTURES.glob("*.dsys"))
    for command in ("bracket", "complete")
}

CHECK_FIXTURES = "check-fixtures-seed-7"


def _main_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _run(command: str, fixture: str, integrals: list[str] = ()) -> str:
    argv = [command, str(FIXTURES / f"{fixture}.dsys"), "--json"]
    for integral in integrals:
        argv += ["--integral", integral]
    return _main_stdout(argv)


def _check_fixtures() -> str:
    """`check-fixtures fixtures --json --seed 7`; run from the repository root."""
    return _main_stdout(["check-fixtures", "fixtures", "--json", "--seed", "7"])


def _convert(fixture: str, target: str) -> tuple[int, str]:
    """Exit code and stdout of a conversion; run from the repository root."""
    argv = ["convert", f"fixtures/{fixture}.dsys", "--to", target, "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_analyze_json_matches_golden(case):
    fixture, integrals = CASES[case]
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert _run("analyze", fixture, integrals) == expected


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][1]))
def test_verify_entries_equal_analyze_entries(case):
    fixture, integrals = CASES[case]
    analyzed = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    verified = json.loads(_run("verify", fixture, integrals))
    assert verified["integrals"] == analyzed["integrals"]


@pytest.mark.parametrize("case", sorted(CONVERSIONS))
def test_convert_json_matches_golden(case, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    code, text = _convert(*CONVERSIONS[case])
    golden = GOLDEN / f"{case}.json"
    if golden.exists():
        assert (code, text) == (0, golden.read_text(encoding="utf-8"))
    else:
        assert code != 0 and text == ""


@pytest.mark.parametrize("case", sorted(TABLES))
def test_bracket_and_complete_json_match_golden(case):
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert _run(*TABLES[case]) == expected


def test_check_fixtures_json_matches_golden(monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    expected = (GOLDEN / f"{CHECK_FIXTURES}.json").read_text(encoding="utf-8")
    assert _check_fixtures() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (fixture, integrals) in sorted(CASES.items()):
        (GOLDEN / f"{name}.json").write_text(
            _run("analyze", fixture, integrals), encoding="utf-8"
        )
    for name, (command, fixture) in sorted(TABLES.items()):
        (GOLDEN / f"{name}.json").write_text(_run(command, fixture), encoding="utf-8")
    os.chdir(FIXTURES.parent)
    for name, (fixture, target) in sorted(CONVERSIONS.items()):
        code, text = _convert(fixture, target)
        golden = GOLDEN / f"{name}.json"
        if code == 0:
            golden.write_text(text, encoding="utf-8")
        else:
            golden.unlink(missing_ok=True)
    (GOLDEN / f"{CHECK_FIXTURES}.json").write_text(_check_fixtures(), encoding="utf-8")
