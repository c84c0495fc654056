"""Seed-driven generators for the two synthetic workloads.

Each generated system is built around planted first integrals, so the
benchmark knows answers that it did not get from the program:

* ``poly_closure``: linear PDE systems in ``x1..xn`` built from the
  rotation fields ``F_xj*@xi - F_xi*@xj`` of a planted integral
  ``F = xn + q``, with ``q`` a chain quadratic form in ``x1..x(n-1)``.
  Operator ``k`` is the rotation of ``(xk, xn)``, which leads with ``@xk``,
  plus a monomial multiple of one rotation among the remaining variables.
  Coefficients are polynomials of degree at most 2, with no denominator or
  exp kernel.  The operators are tangent to the level sets of ``F``, so
  bracket closure stops at rank ``n - 1``.
* ``rational_td``: total differential systems ``dx_i = sum_j X_ij dt_j`` in
  ``t1 t2`` and ``x1 x2 x3``.  The rows of ``x2`` and ``x3`` are drawn with
  denominators in the parameters, and the row of ``x1`` is solved from
  ``D_j F = 0``, which puts ``F_x1`` into its denominators.  Some planted
  integrals carry an exp weight, ``G*exp(c*x1/t1)``, as in fixture
  ``ex_1_3``.

All expressions are sympy objects; ``to_dsl`` prints them in the ``.dsys``
grammar, whose unary minus binds tighter than ``^``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import sympy as sm


@dataclass
class Planted:
    """A first integral ``base * exp(weight)`` (``weight`` is 0 when absent)."""

    base: sm.Expr
    weight: sm.Expr

    def dsl(self) -> str:
        if self.weight == 0:
            return to_dsl(self.base)
        return f"({to_dsl(self.base)})*exp({to_dsl(self.weight)})"


@dataclass
class Generated:
    """One generated system: its text, operators and planted integrals."""

    name: str
    text: str
    names: list[str]  # variable order of the operator rows
    operators: list[list[sm.Expr]]  # coefficient rows, as the program sees them
    integrals: list[Planted]


def _poly_dsl(poly: sm.Poly) -> str:
    pieces: list[str] = []
    for monom, coeff in poly.terms():
        factors = [
            str(gen) if power == 1 else f"{gen}^{power}"
            for gen, power in zip(poly.gens, monom)
            if power
        ]
        magnitude = abs(coeff)
        # a leading '-' binds to the first base only (-x^2 is (-x)^2), so a
        # negative first term always starts with its number
        if magnitude != 1 or not factors or (not pieces and coeff < 0):
            factors.insert(0, str(magnitude))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces) or "0"


def to_dsl(expr: sm.Expr) -> str:
    """Print a rational function of symbols in the ``.dsys`` grammar."""
    num, den = sm.fraction(sm.cancel(sm.together(expr)))
    symbols = sorted(expr.free_symbols, key=str) or [sm.Symbol("_")]
    num_text = _poly_dsl(sm.Poly(num, *symbols, domain="QQ"))
    if den == 1:
        return num_text
    return f"({num_text})/({_poly_dsl(sm.Poly(den, *symbols, domain='QQ'))})"


def _coefficient(rng: random.Random) -> int:
    return rng.choice((-2, -1, 1, 2))


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def poly_closure(rng: random.Random, index: int, n: int, m: int) -> Generated:
    """A PDE system of m operators in n variables around one quadratic integral."""
    xs = list(sm.symbols(" ".join(f"x{i}" for i in range(1, n + 1))))
    head = xs[:-1]
    quadratic = sum(_coefficient(rng) * x**2 for x in head) + sum(
        _coefficient(rng) * a * b for a, b in zip(head, head[1:])
    )
    planted = sm.expand(xs[-1] + quadratic)
    grad = [sm.diff(planted, x) for x in xs]
    free = list(range(m, n - 1))
    pairs = [(a, b) for a in free for b in free if a < b]
    # distinct multipliers: equal ones make the extra parts symmetric, and
    # such systems close several times faster than the rest
    scales = rng.sample((-2, -1, 1, 2), m)
    operators = []
    for k in range(m):
        row = [sm.Integer(0)] * n
        row[k] = grad[-1]
        row[-1] = -grad[k]
        # a monomial multiple of a rotation among the free variables
        i, j = pairs[k % len(pairs)]
        factor = scales[k] * xs[(k + 1) % m]
        row[i] += factor * grad[j]
        row[j] -= factor * grad[i]
        operators.append([sm.expand(c) for c in row])
    lines = [f"# poly_closure system {index}", "kind: pde", "vars: " + " ".join(map(str, xs))]
    for k, row in enumerate(operators, start=1):
        terms = [f"({to_dsl(c)})*@{x}" for c, x in zip(row, xs) if c != 0]
        lines.append(f"op l{k}: " + " + ".join(terms))
    return Generated(
        name=f"poly_closure_{index}",
        text="\n".join(lines) + "\n",
        names=[str(x) for x in xs],
        operators=operators,
        integrals=[Planted(planted, sm.Integer(0))],
    )


def rational_td(rng: random.Random, index: int, weighted: bool) -> Generated:
    """A total differential system around one planted, maybe weighted, integral."""
    ts = list(sm.symbols("t1 t2"))
    xs = list(sm.symbols("x1 x2 x3"))
    t1, t2 = ts
    x1, x2, x3 = xs
    base = _sign(rng) * x1**2 / t1 + _sign(rng) * x2 * x3
    weight = _sign(rng) * x1 / t1 if weighted else sm.Integer(0)
    planted = Planted(base, weight)
    # derivatives of F divided by exp(weight)
    grad = {v: sm.diff(base, v) + base * sm.diff(weight, v) for v in ts + xs}
    rows = {x2: [], x3: [], x1: []}
    for t in ts:
        rows[x2].append(_sign(rng) * x2 / t)
        rows[x3].append(_sign(rng) * x3 / t + _sign(rng) * x2)
        rows[x1].append(
            sm.cancel(-(grad[t] + rows[x2][-1] * grad[x2] + rows[x3][-1] * grad[x3]) / grad[x1])
        )
    lines = [
        f"# rational_td system {index}",
        "kind: td",
        "indep: t1 t2",
        "dep: x1 x2 x3",
    ]
    for x in xs:
        lines.append(f"eq {x}: " + " | ".join(to_dsl(c) for c in rows[x]))
    # operators D_j = @t_j + sum_i X_ij*@x_i over the variables (t1, t2, x1, x2, x3)
    operators = [
        [sm.Integer(int(j == k)) for k in range(2)] + [rows[x][j] for x in xs]
        for j in range(2)
    ]
    return Generated(
        name=f"rational_td_{index}",
        text="\n".join(lines) + "\n",
        names=[str(v) for v in ts + xs],
        operators=operators,
        integrals=[planted],
    )


def _bracket(a: list[sm.Expr], b: list[sm.Expr], xs: list[sm.Symbol], tidy) -> list[sm.Expr]:
    return [
        tidy(sum(a[i] * sm.diff(b[k], x) - b[i] * sm.diff(a[k], x) for i, x in enumerate(xs)))
        for k in range(len(xs))
    ]


def _bracket_rank(gen: Generated, depth: int, rng: random.Random) -> int:
    """Rank at a random point of the operators and their brackets to a depth."""
    xs = sm.symbols(gen.names)
    ops = gen.operators
    # expanding keeps iterated polynomial brackets small; rational ones are
    # only evaluated, and expanding them would cost more than it saves
    tidy = sm.expand if depth > 1 else (lambda expr: expr)
    family = list(ops)
    layer = [_bracket(a, b, xs, tidy) for k, a in enumerate(ops) for b in ops[k + 1 :]]
    for level in range(depth):
        family += layer
        if level + 1 < depth:
            layer = [_bracket(a, c, xs, tidy) for a in ops for c in layer]
    point = {x: sm.Rational(rng.randint(-999, 999), rng.randint(1, 99)) for x in xs}
    return sm.Matrix([[c.xreplace(point) for c in row] for row in family]).rank()


# (n, m) of the systems in one pass, and how many rational_td systems are weighted
POLY_SIZES = [(5, 2)] * 9 + [(6, 3)] * 6
TD_COUNT, TD_WEIGHTED = 12, 4


def workload(name: str, seed: int) -> list[Generated]:
    """The systems of one pass of a generated workload, from the seed.

    Systems are drawn until their brackets reach the largest rank the planted
    integrals allow (n - 1 within two levels for poly_closure, 3 within one
    for rational_td, whose x2 row has an integral of its own), so every
    system of a workload adds the same number of generators: n - 1 - m and 1.
    """
    rng = random.Random(f"{name}-{seed}")
    if name == "rational_td":
        return [
            _draw(lambda: rational_td(rng, k, k < TD_WEIGHTED), 1, 3, rng)
            for k in range(TD_COUNT)
        ]
    return [
        _draw(lambda: poly_closure(rng, k, n, m), 2, n - 1, rng)
        for k, (n, m) in enumerate(POLY_SIZES)
    ]


def _draw(make, depth: int, rank: int, rng: random.Random) -> Generated:
    while True:
        gen = make()
        if _bracket_rank(gen, depth, rng) == rank:
            return gen
