import random
from fractions import Fraction
from pathlib import Path

import pytest

from frobenius.expr import Expr, Point, Scope

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def scope4() -> Scope:
    return Scope(["x1", "x2", "x3", "x4"])


@pytest.fixture
def eliminations(monkeypatch) -> list:
    """The pivot-eligible block of every elimination, in call order.

    Wraps ``linalg._eliminate``, which every elimination runs through, and
    records each call's matrix cut to its ``eligible`` columns (all of them
    when None), as a tuple of row tuples.
    """
    from frobenius import linalg

    blocks = []
    eliminate = linalg._eliminate

    def recording(matrix, prefer_cols, eligible):
        cols = range(matrix.cols) if eligible is None else list(eligible)
        blocks.append(
            tuple(
                tuple(matrix.at(i, j) for j in cols) for i in range(matrix.rows)
            )
        )
        return eliminate(matrix, prefer_cols, eligible)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    return blocks


def load_fixture(name: str):
    from frobenius.dsl import parse_system

    path = FIXTURES / f"{name}.dsys"
    return parse_system(path.read_text(encoding="utf-8"), name=name, source=str(path))


def random_point(rng: random.Random, scope: Scope) -> Point:
    return Point(
        {
            name: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for name in scope.names
        }
    )


def random_rational_expr(
    rng: random.Random, scope: Scope, depth: int, allow_exp: bool = False
) -> Expr:
    """Random expression tree of bounded depth over the scope."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45:
            return scope.var(rng.choice(scope.names))
        return scope.const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    op = rng.random()
    left = random_rational_expr(rng, scope, depth - 1, allow_exp)
    if op < 0.35:
        return left + random_rational_expr(rng, scope, depth - 1, allow_exp)
    if op < 0.6:
        return left - random_rational_expr(rng, scope, depth - 1, allow_exp)
    if op < 0.8:
        return left * random_rational_expr(rng, scope, depth - 1, allow_exp)
    if op < 0.9:
        divisor = random_rational_expr(rng, scope, depth - 1, False)
        if divisor.is_zero():
            divisor = scope.one + scope.var(scope.names[0]) ** 2
        return left / divisor
    if allow_exp:
        argument = random_rational_expr(rng, scope, min(depth - 1, 2), False)
        if argument.has_kernels():
            return left
        return left * scope.exp(argument)
    return left * left


def random_polynomial(
    rng: random.Random, scope: Scope, degree: int = 2, terms: int = 3
) -> Expr:
    """Random polynomial with small integer coefficients."""
    total = scope.zero
    for _ in range(rng.randint(1, terms)):
        coeff = scope.const(rng.randint(-3, 3))
        monomial = coeff
        for _ in range(rng.randint(0, degree)):
            monomial = monomial * scope.var(rng.choice(scope.names))
        total = total + monomial
    return total
