"""Linear algebra over the field of symbolic expressions.

Generic rank, determinants, inversion, solving, and span membership with
validated certificates.  One pivot loop eliminates over the field, reduced
(``echelon``, ``SpanSolver``) or forward only (``rank_echelon``); rank,
determinant and witness minors are read off its pivots: a minor on the pivot
rows and columns is the signed product of the pivot values.  Each elimination
step returns canonical forms (the expression layer cancels
numerator/denominator gcds).  Sums of products (matrix products, span
coefficients) and the self-checks of certificates, inverses and solutions
cancel once per returned value, through ``Expr._sum_of_products``: the
groups are cross-multiplied, so a self-check's sum, which is zero, needs no
gcd.  The exterior layer's coefficients are values that must stay small,
and sum over the lcm instead (``Expr._sum_over_lcm``).  The pivot rule is
deterministic: smallest printed form, ties broken by lowest row then column.
Every pivot contributes its numerator and denominator factors to an excluded
locus so callers can report where the generic answer degenerates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import mpmath

from .expr import Expr, ExprError, EvalError, Point, Scope
from .exterior import _sort_with_sign

__all__ = [
    "ExprMatrix",
    "SpanCertificate",
    "SpanSolver",
    "LinalgError",
    "generic_rank",
    "invert",
    "solve",
    "in_span",
    "determinant",
    "merge_locus",
    "sample_points",
    "nonzero_value",
]


class LinalgError(ValueError):
    """Singular, inconsistent, or underdetermined system."""


class ExprMatrix:
    """Dense row-major matrix of canonical expressions."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Expr]):
        if rows <= 0 or cols <= 0:
            raise LinalgError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise LinalgError("entry count does not match dimensions")
        self.rows = rows
        self.cols = cols
        self._entries = list(entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Expr]]) -> "ExprMatrix":
        flat = [entry for row in rows for entry in row]
        return cls(len(rows), len(rows[0]), flat)

    @classmethod
    def identity(cls, scope: Scope, size: int) -> "ExprMatrix":
        return cls(
            size,
            size,
            [scope.one if i == j else scope.zero for i in range(size) for j in range(size)],
        )

    @property
    def scope(self) -> Scope:
        return self._entries[0].scope

    def at(self, i: int, j: int) -> Expr:
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> list[Expr]:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list[Expr]:
        return [self.at(i, j) for i in range(self.rows)]

    def to_rows(self) -> list[list[Expr]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "ExprMatrix":
        return ExprMatrix(
            self.cols,
            self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def mul(self, other: "ExprMatrix") -> "ExprMatrix":
        if self.cols != other.rows:
            raise LinalgError("dimension mismatch in product")
        scope = self.scope
        out = [
            Expr._sum_of_products(
                scope, [(a, other.at(k, j)) for k, a in enumerate(self.row(i))]
            )
            for i in range(self.rows)
            for j in range(other.cols)
        ]
        return ExprMatrix(self.rows, other.cols, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExprMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(e.print() for e in self.row(i)) for i in range(self.rows)
        )
        return f"[{body}]"


@dataclass
class Echelon:
    """Result of row elimination with full pivoting."""

    work: list[list[Expr]]
    pivots: list[tuple[int, int]]  # (work row, column) in elimination order
    values: list[Expr]  # each pivot's entry when it was chosen, in that order
    excluded: list[Expr]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def pivot_cols(self) -> list[int]:
        return sorted(c for _, c in self.pivots)

    def minor(self) -> Expr:
        """Determinant of the pivot rows and columns, both in ascending order.

        The product of the pivot values is the minor with its rows and columns
        in elimination order; each order's parity gives the sign.
        """
        value = self.work[0][0].scope.one
        for pivot in self.values:
            value = value * pivot
        _, row_sign = _sort_with_sign([r for r, _ in self.pivots])
        _, col_sign = _sort_with_sign([c for _, c in self.pivots])
        return value if row_sign == col_sign else -value


def merge_locus(into: list[Expr], extra: Iterable[Expr]) -> list[Expr]:
    """Append each nonconstant expression of extra that into lacks."""
    for expr in extra:
        if not expr.is_constant() and expr not in into:
            into.append(expr)
    return into


def _locus_factors(entry: Expr, into: list[Expr]) -> None:
    """Append the nonconstant irreducible factors of num and den of entry."""
    scope = entry.scope
    for part in (entry._p, entry._q):
        if part.is_ground:
            continue
        for factor, _ in part.factor_list()[1]:
            expr = Expr._from_polys(scope, factor, factor.ring.one)
            if expr.has_kernels() and expr._p.is_generator:
                continue  # bare exponential kernels never vanish
            merge_locus(into, [expr if expr.leading_sign() > 0 else -expr])


def _eliminate(
    matrix: ExprMatrix,
    prefer_cols: Sequence[int] | None,
    pivot_col_limit: int | None,
    reduced: bool,
) -> Echelon:
    """Row elimination by full pivoting under the deterministic rule.

    Each pivot row is scaled to a leading one and cleared from the rows that
    are still free, or from every other row when reduced.  The free rows, and
    so the pivots, their values and the locus, are the same either way.
    """
    work = [list(matrix.row(i)) for i in range(matrix.rows)]
    n_cols = matrix.cols if pivot_col_limit is None else pivot_col_limit
    free_rows = set(range(matrix.rows))
    free_cols = set(range(n_cols))
    pivots: list[tuple[int, int]] = []
    values: list[Expr] = []
    excluded: list[Expr] = []
    while free_rows and free_cols:
        forced = prefer_cols is not None and len(pivots) < len(prefer_cols)
        allowed = {prefer_cols[len(pivots)]} if forced else free_cols
        if not allowed & free_cols:
            raise LinalgError("requested pivot column already consumed")
        candidates = [
            (len(work[r][c].print()), r, c)
            for r in free_rows
            for c in allowed
            if not work[r][c].is_zero()
        ]
        if not candidates:
            if forced:
                raise LinalgError(
                    "singular pivot choice: no nonzero entry in preferred column"
                )
            break
        _, r, c = min(candidates)
        pivot = work[r][c]
        _locus_factors(pivot, excluded)
        inv = pivot.scope.one / pivot
        work[r] = [inv * e for e in work[r]]
        free_rows.discard(r)
        for other in range(matrix.rows) if reduced else free_rows:
            if other == r:
                continue
            factor = work[other][c]
            if factor.is_zero():
                continue
            work[other] = [
                a - factor * b for a, b in zip(work[other], work[r])
            ]
        pivots.append((r, c))
        values.append(pivot)
        free_cols.discard(c)
    return Echelon(work, pivots, values, excluded)


def echelon(
    matrix: ExprMatrix,
    prefer_cols: Sequence[int] | None = None,
    pivot_col_limit: int | None = None,
) -> Echelon:
    """Reduced row echelon by full pivoting under the deterministic rule.

    prefer_cols forces the first pivots into the given columns in order and
    raises if one of them admits no nonzero pivot.  pivot_col_limit restricts
    pivoting to the first so many columns (augmented systems).
    """
    return _eliminate(matrix, prefer_cols, pivot_col_limit, reduced=True)


def rank_echelon(matrix: ExprMatrix) -> Echelon:
    """Forward elimination only: pivots, their values and the excluded locus.

    The pivots and locus are those of ``echelon``; rows above a pivot are
    left unreduced.
    """
    return _eliminate(matrix, None, None, reduced=False)


def generic_rank(matrix: ExprMatrix) -> int:
    """Rank over the fraction field (attained off the excluded locus)."""
    return rank_echelon(matrix).rank


def determinant(matrix: ExprMatrix) -> Expr:
    """Exact determinant: the signed product of the forward pivots."""
    if matrix.rows != matrix.cols:
        raise LinalgError("determinant requires a square matrix")
    result = rank_echelon(matrix)
    if result.rank < matrix.rows:
        return matrix.scope.zero
    return result.minor()


def invert(matrix: ExprMatrix) -> tuple[ExprMatrix, list[Expr]]:
    """Inverse over the function field plus the excluded locus of the pivots."""
    if matrix.rows != matrix.cols:
        raise LinalgError("inverse requires a square matrix")
    size = matrix.rows
    scope = matrix.scope
    solver = SpanSolver(matrix)
    if solver.rank < size:
        raise LinalgError("matrix is singular over the function field")
    # the reduced rows are the identity's, sorted by pivot column
    inverse = ExprMatrix.from_rows([t for _, t, _, _ in solver.rows])
    product = matrix.mul(inverse)
    for i in range(size):
        for j in range(size):
            expected = scope.one if i == j else scope.zero
            if not (product.at(i, j) - expected).is_zero():
                raise LinalgError("inverse failed self-check")
    return inverse, solver.excluded


def solve(
    matrix: ExprMatrix,
    rhs: Sequence[Expr],
    pivot_cols: Sequence[int] | None = None,
) -> tuple[list[Expr], list[Expr]]:
    """Solve matrix * x = rhs; returns (solution, excluded locus).

    Rectangular systems must be consistent; free columns are only allowed
    when a designated pivot set is supplied (they are set to zero).
    """
    if len(rhs) != matrix.rows:
        raise LinalgError("right-hand side length mismatch")
    scope = matrix.scope
    augmented = ExprMatrix.from_rows(
        [matrix.row(i) + [rhs[i]] for i in range(matrix.rows)]
    )
    result = echelon(
        augmented, prefer_cols=pivot_cols, pivot_col_limit=matrix.cols
    )
    pivot_rows = {r for r, _ in result.pivots}
    for r in range(matrix.rows):
        if r not in pivot_rows and not result.work[r][matrix.cols].is_zero():
            raise LinalgError("inconsistent linear system")
    if result.rank < matrix.cols and pivot_cols is None:
        raise LinalgError("underdetermined system without a designated pivot set")
    solution = [scope.zero] * matrix.cols
    for r, c in result.pivots:
        solution[c] = result.work[r][matrix.cols]
    for i in range(matrix.rows):
        pairs = list(zip(matrix.row(i), solution)) + [(scope.one, -rhs[i])]
        if not Expr._sum_of_products(scope, pairs).is_zero():
            raise LinalgError("solution failed self-check")
    return solution, result.excluded


@dataclass
class SpanCertificate:
    """Validated answer to a row-span membership query."""

    member: bool
    coefficients: list[Expr] | None = None
    witness_rows: list[int] | None = None
    witness_cols: list[int] | None = None
    witness_minor: Expr | None = None
    excluded: list[Expr] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "member" if self.member else "not-member"


class SpanSolver:
    """Reduced row basis of a generator family for repeated span queries.

    Eliminates [G | I] once; each query reduces the target against the
    reduced rows, which yields combination coefficients in the original
    generators (via the recorded transform) or a provably nonzero witness
    minor of the stacked matrix.  A member's coefficients are each one sum
    of products over the reducing rows' transforms, with one cancel; its
    check sums the coefficients times each generator column, minus the
    target, and that sum must be zero.  A witness minor is the pivot minor
    times the reduced target's first nonzero entry (a Schur complement).
    """

    def __init__(self, generators: ExprMatrix):
        self.generators = generators
        scope = generators.scope
        m, n = generators.rows, generators.cols
        identity = ExprMatrix.identity(scope, m)
        augmented = ExprMatrix.from_rows(
            [generators.row(i) + identity.row(i) for i in range(m)]
        )
        result = echelon(augmented, pivot_col_limit=n)
        self._elimination = result
        self.excluded = list(result.excluded)
        self.pivots = sorted(result.pivots, key=lambda rc: rc[1])
        self.rank = len(self.pivots)
        self.rows = [
            (result.work[r][:n], result.work[r][n:], r, c)
            for r, c in self.pivots
        ]

    @cached_property
    def _pivot_minor(self) -> Expr:
        """Determinant of the generators' pivot rows and columns."""
        return self._elimination.minor()

    def query(self, target: Sequence[Expr]) -> SpanCertificate:
        generators = self.generators
        scope = generators.scope
        m = generators.rows
        if len(target) != generators.cols:
            raise LinalgError("target width mismatch")
        residual = list(target)
        factors = []  # (residual pivot entry, transform row) per reducing row
        for row, transform, _, c in self.rows:
            factor = residual[c]
            if factor.is_zero():
                continue
            residual = [a - factor * b for a, b in zip(residual, row)]
            factors.append((factor, transform))
        leftover = next(
            (j for j, e in enumerate(residual) if not e.is_zero()), None
        )
        if leftover is None:
            coefficients = [
                Expr._sum_of_products(scope, [(f, t[i]) for f, t in factors])
                for i in range(m)
            ]
            for j in range(generators.cols):
                pairs = list(zip(coefficients, generators.col(j)))
                pairs.append((scope.one, -target[j]))
                if not Expr._sum_of_products(scope, pairs).is_zero():
                    raise LinalgError("span certificate failed validation")
            return SpanCertificate(
                member=True,
                coefficients=coefficients,
                excluded=list(self.excluded),
            )
        rows = sorted(r for _, _, r, _ in self.rows) + [m]
        pivot_cols = [c for _, _, _, c in self.rows]
        cols = sorted(pivot_cols + [leftover])
        # moving the leftover column past the later pivot columns gives the
        # block form [[A, b], [t, t_l]]: det(A) times t_l - t A^-1 b, which is
        # the reduced target's leftover entry
        minor = self._pivot_minor * residual[leftover]
        if sum(c > leftover for c in pivot_cols) % 2:
            minor = -minor
        if minor.is_zero():
            raise LinalgError("witness minor failed validation")
        return SpanCertificate(
            member=False,
            witness_rows=rows,
            witness_cols=cols,
            witness_minor=minor,
            excluded=list(self.excluded),
        )


def in_span(target: Sequence[Expr], generators: ExprMatrix) -> SpanCertificate:
    """Decide whether target lies in the row span of generators.

    Member certificates carry combination coefficients over the function
    field; NotMember certificates carry a row/column minor of the stacked
    matrix that is a nonzero expression.  Both are validated before return.
    """
    return SpanSolver(generators).query(target)


def sample_points(
    scope: Scope,
    count: int,
    seed: int = 0,
    avoid: Iterable[Expr] = (),
    max_tries: int | None = None,
) -> list[Point]:
    """Deterministic-by-seed rational points avoiding given zero loci."""
    avoid = list(avoid)
    rng = random.Random(seed)
    points: list[Point] = []
    tries = 0
    limit = max_tries if max_tries is not None else 400 * max(count, 1)
    while len(points) < count:
        if tries >= limit:
            raise LinalgError(
                f"could not find {count} admissible points in {limit} tries"
            )
        tries += 1
        assignment = {
            name: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            for name in scope.names
        }
        point = Point(assignment)
        if all(nonzero_value(expr, point) is not None for expr in avoid):
            points.append(point)
    return points


def nonzero_value(expr: Expr, point: Point) -> str | None:
    """The printed value of expr at point, or None where it vanishes or has
    a pole.

    Both are decided exactly (``Expr.vanishes_at``); a kernel-bearing value
    is printed from its evaluation at 256 bits.
    """
    try:
        if expr.has_kernels():
            if expr.vanishes_at(point):
                return None
            return mpmath.nstr(expr.eval_float(point, 256), 20)
        value = expr.eval_exact(point)
    except EvalError:
        return None
    return str(value) if value else None
