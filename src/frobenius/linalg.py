"""Linear algebra over the field of symbolic expressions.

Generic rank, determinants, inversion, and span membership with validated
certificates.  One pivot loop eliminates over the field to reduced rows
(``echelon``), pivoting in a given set of eligible columns; rank,
determinant and witness minors are read off its pivots: a minor on the pivot
rows and columns is the signed product of the pivot values.  Each elimination
step returns canonical forms (the expression layer cancels
numerator/denominator gcds).  A span query eliminates nothing: it reads
the target's weights off the reduced rows.  Sums of products (matrix
products, a query's residuals and coefficients) and the self-checks of
certificates and inverses cancel once per returned value, through
``Expr._sum_of_products``: the groups are cross-multiplied, so a zero sum
needs no gcd.  The exterior layer's coefficients must stay small, and sum
over the lcm (``Expr._sum_over_lcm``).  The pivot rule is deterministic:
smallest printed form, ties broken by lowest row then column.
Every pivot contributes its numerator and denominator factors to an excluded
locus so callers can report where the generic answer degenerates.  A locus is
a ``frozenset`` of those factors: loci merge by union, and ``locus_texts``
prints one as its entries' texts, sorted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
    "determinant",
    "locus_texts",
    "sample_points",
    "nonzero_value",
]


class LinalgError(ValueError):
    """Singular or mismatched input, or a failed self-check."""


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
    excluded: frozenset[Expr]

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


def locus_texts(locus: Iterable[Expr]) -> list[str]:
    """A locus as printed: its entries' texts, sorted."""
    return sorted(e.print() for e in locus)


def _locus_factors(entry: Expr) -> frozenset[Expr]:
    """The nonconstant irreducible factors of num and den of entry."""
    scope = entry.scope
    factors = set()
    for part in (entry._p, entry._q):
        if part.is_ground:
            continue
        for factor, _ in part.factor_list()[1]:
            expr = Expr._from_polys(scope, factor, factor.ring.one)
            if expr.has_kernels() and expr._p.is_generator:
                continue  # bare exponential kernels never vanish
            factors.add(expr if expr.leading_sign() > 0 else -expr)
    return frozenset(factors)


def _eliminate(
    matrix: ExprMatrix,
    prefer_cols: Sequence[int] | None,
    eligible: Iterable[int] | None,
) -> Echelon:
    """Reduced row elimination by full pivoting under the deterministic rule.

    Pivots are taken in the eligible columns only (all of them when None).
    Each pivot row is scaled to a leading one and cleared from every other
    row.
    """
    work = [list(matrix.row(i)) for i in range(matrix.rows)]
    free_rows = set(range(matrix.rows))
    free_cols = set(range(matrix.cols) if eligible is None else eligible)
    pivots: list[tuple[int, int]] = []
    values: list[Expr] = []
    excluded: frozenset[Expr] = frozenset()
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
        excluded |= _locus_factors(pivot)
        inv = pivot.scope.one / pivot
        work[r] = [inv * e for e in work[r]]
        free_rows.discard(r)
        for other in range(matrix.rows):
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
    eligible: Iterable[int] | None = None,
) -> Echelon:
    """Reduced row echelon by full pivoting under the deterministic rule.

    prefer_cols forces the first pivots into the given columns in order and
    raises if one of them admits no nonzero pivot.  eligible names the
    columns pivots may take (all of them when None): the coefficient block of
    an augmented system, or a chosen pivot set.
    """
    return _eliminate(matrix, prefer_cols, eligible)


def rank_echelon(matrix: ExprMatrix) -> Echelon:
    """Pivots, their values and the excluded locus: ``echelon``'s result."""
    return echelon(matrix)


def generic_rank(matrix: ExprMatrix) -> int:
    """Rank over the fraction field (attained off the excluded locus)."""
    return rank_echelon(matrix).rank


def determinant(matrix: ExprMatrix) -> Expr:
    """Exact determinant: the signed product of the pivot values."""
    if matrix.rows != matrix.cols:
        raise LinalgError("determinant requires a square matrix")
    result = rank_echelon(matrix)
    if result.rank < matrix.rows:
        return matrix.scope.zero
    return result.minor()


def invert(matrix: ExprMatrix) -> tuple[ExprMatrix, frozenset[Expr]]:
    """Inverse over the function field plus the excluded locus of the pivots."""
    if matrix.rows != matrix.cols:
        raise LinalgError("inverse requires a square matrix")
    size = matrix.rows
    scope = matrix.scope
    solver = SpanSolver(matrix)
    if solver.rank < size:
        raise LinalgError("matrix is singular over the function field")
    # the reduced rows' transforms, sorted by pivot column, are the inverse's
    work = solver.elimination.work
    inverse = ExprMatrix.from_rows([work[r][size:] for r, _ in solver.pivots])
    product = matrix.mul(inverse)
    for i in range(size):
        for j in range(size):
            expected = scope.one if i == j else scope.zero
            if not (product.at(i, j) - expected).is_zero():
                raise LinalgError("inverse failed self-check")
    return inverse, solver.excluded


@dataclass
class SpanCertificate:
    """Validated answer to a row-span membership query."""

    member: bool
    coefficients: list[Expr] | None = None
    witness_rows: list[int] | None = None
    witness_cols: list[int] | None = None
    witness_minor: Expr | None = None
    excluded: frozenset[Expr] = frozenset()

    @property
    def verdict(self) -> str:
        return "member" if self.member else "not-member"


class SpanSolver:
    """Reduced row basis of a generator family for repeated span queries.

    Eliminates [G | I] once, pivoting in G's columns (``elimination``: its
    pivots, values and locus are those of eliminating G alone; each pivot
    row holds G's reduced row, then the transform that forms it from the
    generators).  A reduced row is 1 in its pivot column and 0 in the other
    pivot columns, so a target's weight on it is the target's entry there.
    Each residual entry, the target entry minus the weighted G parts, is
    then one sum of products, and so is each member coefficient, over the
    weighted transforms; a member's check sums the coefficients times each
    generator column, minus the target, and that sum must be zero.  A
    nonmember's witness minor is the pivot minor times its first nonzero
    residual entry (a Schur complement); no later entry is formed.
    """

    def __init__(self, generators: ExprMatrix):
        self.generators = generators
        scope = generators.scope
        m, n = generators.rows, generators.cols
        identity = ExprMatrix.identity(scope, m)
        augmented = ExprMatrix.from_rows(
            [generators.row(i) + identity.row(i) for i in range(m)]
        )
        result = echelon(augmented, eligible=range(n))
        self.elimination = result
        self.excluded = result.excluded
        self.pivots = sorted(result.pivots, key=lambda rc: rc[1])
        self.rank = len(self.pivots)

    @cached_property
    def _pivot_minor(self) -> Expr:
        """Determinant of the generators' pivot rows and columns."""
        return self.elimination.minor()

    def query(self, target: Sequence[Expr]) -> SpanCertificate:
        generators = self.generators
        scope = generators.scope
        m, n = generators.rows, generators.cols
        if len(target) != n:
            raise LinalgError("target width mismatch")
        rows = [self.elimination.work[r] for r, _ in self.pivots]
        pivot_cols = [c for _, c in self.pivots]
        # a reduced row is 1 in its pivot column and 0 in the other pivot
        # columns, so the target's weight on it is the target's entry there
        weights = [target[c] for c in pivot_cols]
        for j in sorted(set(range(n)) - set(pivot_cols)):
            pairs = [(-target[j], scope.one), *zip(weights, (r[j] for r in rows))]
            residual = -Expr._sum_of_products(scope, pairs)
            if not residual.is_zero():
                break
        else:
            coefficients = [
                Expr._sum_of_products(scope, zip(weights, (r[n + i] for r in rows)))
                for i in range(m)
            ]
            for j in range(n):
                pairs = list(zip(coefficients, generators.col(j)))
                pairs.append((scope.one, -target[j]))
                if not Expr._sum_of_products(scope, pairs).is_zero():
                    raise LinalgError("span certificate failed validation")
            return SpanCertificate(
                member=True,
                coefficients=coefficients,
                excluded=self.excluded,
            )
        # moving column j past the later pivot columns gives the block form
        # [[A, b], [t, t_j]]: det(A) times t_j - t A^-1 b, the residual entry
        minor = self._pivot_minor * residual
        if sum(c > j for c in pivot_cols) % 2:
            minor = -minor
        if minor.is_zero():
            raise LinalgError("witness minor failed validation")
        return SpanCertificate(
            member=False,
            witness_rows=sorted(r for r, _ in self.pivots) + [m],
            witness_cols=sorted(pivot_cols + [j]),
            witness_minor=minor,
            excluded=self.excluded,
        )


def sample_points(
    scope: Scope,
    count: int,
    seed: int = 0,
    avoid: Iterable[Expr] = (),
) -> list[Point]:
    """Deterministic-by-seed rational points avoiding given zero loci."""
    avoid = list(avoid)
    rng = random.Random(seed)
    points: list[Point] = []
    tries = 0
    limit = 400 * max(count, 1)
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
