"""Correctness checks on the program's JSON, computed apart from frobenius.

Each check returns a list of error strings; an empty list means it passed.
Nothing here imports frobenius: expressions are read with sympy and
evaluated exactly at random rational points, with ``Fraction`` sums.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sympy as sm
from sympy.parsing.sympy_parser import parse_expr

from generate import Generated

VERDICT_KEYS = ("solvable", "complete", "closed")
POINTS = 3  # random rational points per pointwise check


def check_fixture(report: dict, expected: dict) -> list[str]:
    """The verdict, defect, dimension and integral validity of a sidecar."""
    errors = []
    for key in VERDICT_KEYS:
        if key in expected and report["verdict"].get(key) != expected[key]:
            errors.append(f"{key}: expected {expected[key]}, got {report['verdict']}")
    for key in ("defect", "dimension"):
        if key in expected and report[key] != expected[key]:
            errors.append(f"{key}: expected {expected[key]}, got {report[key]}")
    wanted = expected.get("integrals", [])
    if len(report["integrals"]) != len(wanted):
        errors.append(f"{len(wanted)} integrals expected, {len(report['integrals'])} reported")
    for item, got in zip(wanted, report["integrals"]):
        if (got["verdict"] == "valid") != item["valid"]:
            errors.append(f"integral {item['expr']}: expected valid={item['valid']}, got {got['verdict']}")
    return errors


def _value(expr: sm.Expr, point: dict) -> Fraction:
    value = expr.xreplace(point)
    if not value.is_Rational:
        raise ZeroDivisionError(f"{expr} is undefined at the point")
    return Fraction(int(value.p), int(value.q))


def _points(rng: random.Random, symbols, exprs, count: int = POINTS):
    """Random rational points where every expression in exprs is defined."""
    found = 0
    while found < count:
        point = {
            s: sm.Rational(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for s in symbols
        }
        try:
            for expr in exprs:
                _value(expr, point)
        except ZeroDivisionError:
            continue
        found += 1
        yield point


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def check_planted(gen: Generated, report: dict, rng: random.Random) -> list[str]:
    """Planted integrals: reported valid, annihilated, and counted in the dimension."""
    errors = []
    symbols = sm.symbols(gen.names)
    for got in report["integrals"]:
        if got["verdict"] != "valid":
            errors.append(f"planted integral {got['expr']} reported {got['verdict']}")
    if len(report["integrals"]) != len(gen.integrals):
        errors.append(f"{len(gen.integrals)} integrals planted, {len(report['integrals'])} reported")
    coefficients = [c for row in gen.operators for c in row]
    # grad(G*exp(H)) / exp(H) = grad G + G*grad H, so L F = 0 iff this row pairs to 0
    gradients = [
        [sm.diff(p.base, s) + p.base * sm.diff(p.weight, s) for s in symbols]
        for p in gen.integrals
    ]
    for planted, grads in zip(gen.integrals, gradients):
        for point in _points(rng, symbols, coefficients + grads):
            for k, row in enumerate(gen.operators):
                residual = sum(
                    (_value(c, point) * _value(g, point) for c, g in zip(row, grads)),
                    Fraction(0),
                )
                if residual != 0:
                    errors.append(f"{planted.dsl()} is not annihilated by operator {k + 1}")
    flat = [g for grads in gradients for g in grads]
    point = next(_points(rng, symbols, flat, 1))
    independent = _rank([[_value(g, point) for g in grads] for grads in gradients])
    if report["dimension"] < independent:
        errors.append(f"dimension {report['dimension']} < {independent} planted integrals")
    return errors


def parse_operator(text: str, names: list[str]) -> list[sm.Expr]:
    """Coefficient row of a printed operator such as ``x2*@x1 - @x3``."""
    local = {name: sm.Symbol(name) for name in names}
    for name in names:
        local[f"D_{name}"] = sm.Symbol(f"D_{name}")
    source = text.replace("^", "**")
    for name in sorted(names, key=len, reverse=True):
        source = source.replace(f"@{name}", f"D_{name}")
    expr = parse_expr(source, local_dict=local)
    return [sm.diff(expr, local[f"D_{name}"]) for name in names]


def check_involutive(gen: Generated, report: dict, rng: random.Random) -> list[str]:
    """The completed family has rank m + defect and is closed under brackets."""
    names = report["vars"]
    if names != gen.names:
        return [f"variables {names} differ from the generated {gen.names}"]
    symbols = sm.symbols(names)
    family = gen.operators + [parse_operator(s["operator"], names) for s in report["added_generators"]]
    expected_rank = len(gen.operators) + report["defect"]
    errors = []
    if report["defect"] != len(report["added_generators"]):
        errors.append(f"defect {report['defect']} but {len(report['added_generators'])} generators added")
    # derivative[k][i][j] = d(family[k][j]) / d(symbols[i])
    derivative = [[[sm.diff(c, s) for c in row] for s in symbols] for row in family]
    exprs = [c for row in family for c in row]
    for point in _points(rng, symbols, exprs):
        values = [[_value(c, point) for c in row] for row in family]
        slopes = [[[_value(d, point) for d in col] for col in rows] for rows in derivative]
        rank = _rank(values)
        if rank != expected_rank:
            errors.append(f"family has rank {rank} at a point, expected {expected_rank}")
            continue
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                bracket = [
                    sum(
                        (values[a][i] * slopes[b][i][j] - values[b][i] * slopes[a][i][j] for i in range(len(names))),
                        Fraction(0),
                    )
                    for j in range(len(names))
                ]
                if _rank(values + [bracket]) != rank:
                    errors.append(f"bracket of generators {a + 1} and {b + 1} leaves the span")
    return errors
