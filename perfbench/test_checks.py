"""The benchmark's correctness checks accept real output and reject faults.

    python3 -m pytest perfbench

Each fault is made by editing a report the program really printed: a flipped
verdict, an off-by-one defect, a non-integral passed off as valid, and a
completed family with one generator dropped.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import sympy as sm  # noqa: E402

from check import check_fixture, check_involutive, check_planted  # noqa: E402
from frobenius.analysis import analyze, report_to_dict  # noqa: E402
from frobenius.dsl import parse_system  # noqa: E402
from generate import Planted, workload  # noqa: E402


def _report(text: str, integrals: list[str]) -> dict:
    system = parse_system(text)
    report = analyze(system, [system.scope.parse(t) for t in integrals])
    return json.loads(json.dumps(report_to_dict(report)))


@pytest.fixture(scope="module")
def fixture():
    path = ROOT / "fixtures" / "ex_2_10.dsys"
    expected = json.loads(path.with_suffix(".expected.json").read_text())
    report = _report(path.read_text(), [item["expr"] for item in expected["integrals"]])
    return report, expected


@pytest.fixture(scope="module", params=["poly_closure", "rational_td"])
def generated(request):
    # rational_td's first systems carry exp-weighted integrals
    gen = workload(request.param, 3)[0]
    return gen, _report(gen.text, [p.dsl() for p in gen.integrals])


def test_fixture_report_passes(fixture):
    report, expected = fixture
    assert check_fixture(report, expected) == []


def test_flipped_verdict_is_rejected(fixture):
    report, expected = fixture
    bad = copy.deepcopy(report)
    bad["verdict"] = {key: not value for key, value in bad["verdict"].items()}
    assert check_fixture(bad, expected)


def test_off_by_one_defect_is_rejected(fixture, generated):
    report, expected = fixture
    bad = copy.deepcopy(report)
    bad["defect"] += 1
    assert check_fixture(bad, expected)
    gen, report = generated
    bad = copy.deepcopy(report)
    bad["defect"] += 1
    assert check_involutive(gen, bad, random.Random(0))


def test_generated_report_passes(generated):
    gen, report = generated
    assert report["added_generators"]
    assert check_planted(gen, report, random.Random(0)) == []
    assert check_involutive(gen, report, random.Random(0)) == []


def test_non_integral_passed_off_as_valid_is_rejected(fixture, generated):
    report, expected = fixture
    wrong = copy.deepcopy(expected)
    wrong["integrals"][0]["valid"] = False
    assert check_fixture(report, wrong)
    gen, report = generated
    assert report["integrals"][0]["verdict"] == "valid"
    planted = gen.integrals[0]
    fake = replace(gen, integrals=[Planted(planted.base + sm.Symbol(gen.names[-1]), planted.weight)])
    errors = check_planted(fake, report, random.Random(0))
    assert any("not annihilated" in e for e in errors)


def test_invalid_verdict_on_planted_integral_is_rejected(generated):
    gen, report = generated
    bad = copy.deepcopy(report)
    bad["integrals"][0]["verdict"] = "invalid"
    assert check_planted(gen, bad, random.Random(0))


def test_dropped_generator_is_rejected(generated):
    gen, report = generated
    bad = copy.deepcopy(report)
    bad["added_generators"].pop()
    bad["defect"] -= 1
    errors = check_involutive(gen, bad, random.Random(0))
    assert errors and all("leaves the span" in e for e in errors)
