"""Symbolic linear algebra: rank, inversion, span certificates."""

import random
from fractions import Fraction

import pytest

from frobenius import expr, linalg
from frobenius.expr import EvalError, Expr, Point, Scope
from frobenius.exterior import VectorField
from frobenius.linalg import (
    rank_echelon,
    ExprMatrix,
    LinalgError,
    determinant,
    echelon,
    generic_rank,
    invert,
    nonzero_value,
    sample_points,
    SpanSolver,
)

from conftest import random_polynomial, random_rational_expr


@pytest.fixture
def s5():
    return Scope(["x1", "x2", "x3", "x4", "x5"])


def matrix_of(scope, rows):
    return ExprMatrix.from_rows([[scope.parse(e) for e in row] for row in rows])


def numeric_rank(matrix: ExprMatrix, point) -> int:
    """Independent oracle: exact Gaussian elimination over Fractions."""
    rows = [
        [matrix.at(i, j).eval_exact(point) for j in range(matrix.cols)]
        for i in range(matrix.rows)
    ]
    rank = 0
    col = 0
    while rank < len(rows) and col < matrix.cols:
        pivot_row = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def cofactor_determinant(matrix: ExprMatrix) -> Expr:
    """Independent oracle: cofactor expansion along the first row."""
    scope = matrix.scope

    def expand(rows: list[list[Expr]]) -> Expr:
        if len(rows) == 1:
            return rows[0][0]
        total = scope.zero
        for j, lead in enumerate(rows[0]):
            if lead.is_zero():
                continue
            term = lead * expand([row[:j] + row[j + 1 :] for row in rows[1:]])
            total = total + term if j % 2 == 0 else total - term
        return total

    return expand(matrix.to_rows())


def random_entry(rng: random.Random, scope: Scope) -> Expr:
    """A polynomial, a rational function or (one time in five) zero."""
    roll = rng.random()
    if roll < 0.2:
        return scope.zero
    if roll < 0.6:
        return random_polynomial(rng, scope, 2)
    return random_rational_expr(rng, scope, 2)


def random_rows(rng: random.Random, scope: Scope, rows: int, cols: int):
    """Random rows; sometimes the last is a combination of the others."""
    out = [[random_entry(rng, scope) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        mix = [random_polynomial(rng, scope, 1) for _ in range(rows - 1)]
        out[-1] = [
            sum((m * row[j] for m, row in zip(mix, out)), scope.zero)
            for j in range(cols)
        ]
    return out


class TestGenericRank:
    def test_identity(self, s5):
        assert generic_rank(ExprMatrix.identity(s5, 4)) == 4

    def test_rank_detects_functional_singularity(self):
        scope = Scope(["x1", "x2", "x3"])
        m = matrix_of(
            scope,
            [
                ["1", "1", "2"],
                ["1", "2", "2"],
                ["1", "1", "2 + x2"],
            ],
        )
        assert generic_rank(m) == 3
        result = echelon(m)
        assert any(e == scope.var("x2") for e in result.excluded)
        det = determinant(m)
        assert det == scope.var("x2")

    def test_operator_family_rank(self, s5):
        rows = [
            VectorField(
                s5, {"x1": s5.one, "x4": s5.var("x5"), "x5": -s5.var("x4")}
            ).coefficient_row(),
            VectorField(
                s5,
                {
                    "x2": s5.one,
                    "x3": s5.parse("2*x3*x5"),
                    "x4": s5.parse("2*x4*x5"),
                    "x5": s5.parse("1 - x3^2 - x4^2 + x5^2"),
                },
            ).coefficient_row(),
            VectorField(
                s5,
                {
                    "x3": s5.parse("2*x3*x4"),
                    "x4": s5.parse("1 - x3^2 + x4^2 - x5^2"),
                    "x5": s5.parse("2*x4*x5"),
                },
            ).coefficient_row(),
        ]
        m = ExprMatrix.from_rows(rows)
        assert generic_rank(m) == 3
        # oracle: exact 3x3 minors at 5 random points; at least one nonzero
        result = echelon(m)
        points = sample_points(s5, 5, seed=41, avoid=result.excluded)
        for point in points:
            assert numeric_rank(m, point) == 3

    def test_rank_oracle_agreement_random(self):
        scope = Scope(["x1", "x2", "x3"])
        rng = random.Random(43)
        for _ in range(100):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = ExprMatrix.from_rows(
                [
                    [random_polynomial(rng, scope, 2) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            result = rank_echelon(m)
            points = sample_points(
                scope, 8, seed=rng.randint(0, 10**6), avoid=result.excluded
            )
            sampled = max(numeric_rank(m, p) for p in points)
            assert result.rank == sampled

    def test_rank_invariant_under_nonsingular_multiplication(self):
        scope = Scope(["x1", "x2", "x3"])
        rng = random.Random(47)
        for _ in range(40):
            m = ExprMatrix.from_rows(
                [
                    [random_polynomial(rng, scope, 1) for _ in range(4)]
                    for _ in range(3)
                ]
            )
            transform = ExprMatrix.from_rows(
                [
                    [random_polynomial(rng, scope, 1) for _ in range(3)]
                    for _ in range(3)
                ]
            )
            if generic_rank(transform) < 3:
                continue
            assert generic_rank(transform.mul(m)) == generic_rank(m)


class TestDeterminant:
    def test_equals_cofactor_oracle_on_random_matrices(self):
        scope = Scope(["x1", "x2", "x3"])
        rng = random.Random(61)
        singular = 0
        for _ in range(80):
            size = rng.randint(1, 4)
            m = ExprMatrix.from_rows(random_rows(rng, scope, size, size))
            det = determinant(m)
            assert det == cofactor_determinant(m)
            singular += det.is_zero()
        assert 0 < singular < 80


class TestInvert:
    def test_identity(self, s5):
        e = ExprMatrix.identity(s5, 3)
        inverse, excluded = invert(e)
        assert inverse == e
        assert not excluded

    def test_diagonal(self):
        scope = Scope(["x1", "x2"])
        m = matrix_of(scope, [["x1", "0"], ["0", "x2"]])
        inverse, _ = invert(m)
        assert inverse.at(0, 0) == scope.parse("1/x1")
        assert inverse.at(1, 1) == scope.parse("1/x2")
        assert inverse.at(0, 1).is_zero()

    def test_frame_inverse_gives_dual_operators(self):
        # inverse columns reproduce the dual operator coefficients
        scope = Scope(["x1", "x2", "x3", "x4"])
        from conftest import load_fixture

        pf = load_fixture("ex_4_3").pfaff
        frame = ExprMatrix.from_rows(
            [f.coefficient_row() for f in pf.forms]
            + [f.coefficient_row() for f in pf.completion]
        )
        inverse, _ = invert(frame)
        g4 = [inverse.at(i, 3) for i in range(4)]
        expected = [
            pf.scope.parse("-x1"),
            pf.scope.parse("x2"),
            pf.scope.parse("x4"),
            pf.scope.parse("x3"),
        ]
        assert g4 == expected

    def test_double_inverse_round_trip(self):
        scope = Scope(["x1", "x2", "x3"])
        rng = random.Random(53)
        count = 0
        while count < 12:
            m = ExprMatrix.from_rows(
                [
                    [random_polynomial(rng, scope, 1) for _ in range(3)]
                    for _ in range(3)
                ]
            )
            if generic_rank(m) < 3:
                continue
            inverse, _ = invert(m)
            again, _ = invert(inverse)
            for i in range(3):
                for j in range(3):
                    assert (again.at(i, j) - m.at(i, j)).is_zero()
            count += 1

    def test_singular_matrix_rejected(self):
        scope = Scope(["x1"])
        m = matrix_of(scope, [["x1", "x1"], ["x1", "x1"]])
        with pytest.raises(LinalgError, match="singular"):
            invert(m)


class TestInSpan:
    def test_first_generator_is_member(self, s5):
        generators = matrix_of(
            Scope(["x1", "x2"]), [["x1", "0"], ["0", "x2"]]
        )
        certificate = SpanSolver(generators).query(generators.row(0))
        assert certificate.member
        assert certificate.coefficients[0].is_one()
        assert certificate.coefficients[1].is_zero()

    def test_escaping_bracket_not_member(self, s5):
        l1 = VectorField(s5, {n: s5.var(n) for n in s5.names})
        l2 = VectorField(
            s5,
            {
                "x1": s5.var("x1"),
                "x2": s5.var("x2"),
                "x3": s5.var("x3"),
                "x4": s5.parse("x4^2"),
                "x5": s5.parse("x5^2"),
            },
        )
        bracket = l1.bracket(l2)
        generators = ExprMatrix.from_rows(
            [l1.coefficient_row(), l2.coefficient_row()]
        )
        certificate = SpanSolver(generators).query(bracket.coefficient_row())
        assert not certificate.member
        assert certificate.witness_minor is not None
        assert not certificate.witness_minor.is_zero()
        # witness re-verifies nonzero at a sample point
        point = sample_points(
            s5, 1, seed=3, avoid=[certificate.witness_minor]
        )[0]
        assert certificate.witness_minor.eval_exact(point) != 0

    def test_bracket_of_added_generator_is_member(self, s5):
        l1 = VectorField(s5, {n: s5.var(n) for n in s5.names})
        l12 = VectorField(
            s5, {"x4": s5.parse("x4^2"), "x5": s5.parse("x5^2")}
        )
        bracket = l1.bracket(l12)
        l2 = VectorField(
            s5,
            {
                "x1": s5.var("x1"),
                "x2": s5.var("x2"),
                "x3": s5.var("x3"),
                "x4": s5.parse("x4^2"),
                "x5": s5.parse("x5^2"),
            },
        )
        generators = ExprMatrix.from_rows(
            [l1.coefficient_row(), l2.coefficient_row(), l12.coefficient_row()]
        )
        certificate = SpanSolver(generators).query(bracket.coefficient_row())
        assert certificate.member
        assert [c.print() for c in certificate.coefficients] == ["0", "0", "1"]

    def test_member_certificates_reverify(self):
        scope = Scope(["x1", "x2", "x3"])
        rng = random.Random(59)
        hits = 0
        while hits < 30:
            generators = ExprMatrix.from_rows(
                [
                    [random_polynomial(rng, scope, 1) for _ in range(3)]
                    for _ in range(2)
                ]
            )
            mix = [random_polynomial(rng, scope, 1) for _ in range(2)]
            target = [
                mix[0] * generators.at(0, j) + mix[1] * generators.at(1, j)
                for j in range(3)
            ]
            certificate = SpanSolver(generators).query(target)
            assert certificate.member
            combo = [
                sum(
                    (certificate.coefficients[i] * generators.at(i, j)
                     for i in range(2)),
                    scope.zero,
                )
                for j in range(3)
            ]
            assert all((a - b).is_zero() for a, b in zip(combo, target))
            hits += 1


def named_minor(generators: ExprMatrix, target, certificate) -> ExprMatrix:
    """The certificate's rows and columns of the generators stacked on target."""
    stacked = generators.to_rows() + [list(target)]
    return ExprMatrix.from_rows(
        [
            [stacked[r][c] for c in certificate.witness_cols]
            for r in certificate.witness_rows
        ]
    )


class TestWitnessMinors:
    def test_witness_minor_is_the_named_minor(self, monkeypatch):
        """Each not-member minor equals the cofactor expansion of its rows and
        columns of the generators stacked on the target; no query calls
        ``determinant``."""

        def forbidden(matrix):
            raise AssertionError("a span query called determinant")

        monkeypatch.setattr(linalg, "determinant", forbidden)
        scope = Scope(["x1", "x2", "x3"])
        rng = random.Random(67)
        checked = 0
        for _ in range(60):
            rows, cols = rng.randint(1, 3), rng.randint(2, 4)
            generators = ExprMatrix.from_rows(random_rows(rng, scope, rows, cols))
            if all(e.is_zero() for e in generators.row(0)):
                continue
            solver = SpanSolver(generators)
            for _ in range(3):
                target = [random_entry(rng, scope) for _ in range(cols)]
                certificate = solver.query(target)
                if certificate.member:
                    continue
                named = named_minor(generators, target, certificate)
                assert certificate.witness_minor == cofactor_determinant(named)
                checked += 1
        assert checked > 100

    def test_kernel_bearing_witness_minor(self):
        scope = Scope(["x", "y", "z"])
        generators = matrix_of(scope, [["y*z", "-x*z", "0"], ["0", "exp(y)", "x"]])
        target = [scope.parse(e) for e in ("exp(x)/(exp(x) + y)", "1", "z")]
        certificate = SpanSolver(generators).query(target)
        assert not certificate.member
        named = named_minor(generators, target, certificate)
        assert certificate.witness_minor.has_kernels()
        assert certificate.witness_minor == cofactor_determinant(named)


class TestSpanSolverCertificates:
    """Member certificates take one cancel per coefficient and are re-checked.

    A query reads the target's weights off its pivot entries, so it forms
    each residual entry and each coefficient as one sum of products: a
    member's residual entries are zero and need no gcd, and whatever the
    reduced rows' denominators, only the coefficients cancel.
    """

    MONOMIAL_PIVOTS = [
        ["x1", "0", "0", "x1*x4^2 - 3*x1*x5 + x1", "2*x1*x4*x5 - x1^2"],
        ["0", "x2", "0", "x2*x5^2 + x2*x4 - 7*x2", "x2^2*x4 - 5*x2*x5"],
        ["0", "0", "x3", "4*x3*x4*x5 - x3^2 + x3", "x3*x4^2 - x3*x5^2"],
    ]
    # the reduced rows and the transform carry denominators
    DENSE = [
        ["x1 + x2", "x2", "1", "x4", "0"],
        ["x3", "x1 - x4", "x5", "2", "0"],
        ["1", "x5", "x2*x3", "x1", "0"],
    ]

    @staticmethod
    def _solver_and_member(scope, rows, mix_texts):
        generators = matrix_of(scope, rows)
        mix = [scope.parse(text) for text in mix_texts]
        target = [
            sum((mix[i] * generators.at(i, j) for i in range(3)), scope.zero)
            for j in range(generators.cols)
        ]
        assert all(e.denominator().is_one() for e in target)
        return SpanSolver(generators), mix, target

    @classmethod
    def _monomial_case(cls, scope):
        mix = ("(x4 + 2)/x1", "(x5^2 - x1)/x2", "3*x2*x4/x3")
        return cls._solver_and_member(scope, cls.MONOMIAL_PIVOTS, mix)

    @staticmethod
    def _query_counting_cancels(solver, target, monkeypatch):
        calls = []
        cofactors = expr._cofactors

        def counting(f, g):
            calls.append((f, g))
            return cofactors(f, g)

        monkeypatch.setattr(expr, "_cofactors", counting)
        return solver.query(target), len(calls)

    def test_member_query_cancels_once_per_coefficient(self, s5, monkeypatch):
        solver, mix, target = self._monomial_case(s5)
        assert [c for _, c in solver.pivots] == [0, 1, 2]
        certificate, cancels = self._query_counting_cancels(solver, target, monkeypatch)
        assert certificate.member
        assert certificate.coefficients == mix
        assert cancels <= solver.generators.rows

    def test_reduced_rows_with_denominators(self, s5, monkeypatch):
        mix = ("x4 + 2", "x5^2 - x1", "3*x2")
        solver, mix, target = self._solver_and_member(s5, self.DENSE, mix)
        reduced = [solver.elimination.work[r] for r, _ in solver.pivots]
        assert any(not e.denominator().is_one() for row in reduced for e in row)
        certificate, cancels = self._query_counting_cancels(solver, target, monkeypatch)
        assert certificate.member
        assert certificate.coefficients == mix
        assert cancels <= solver.generators.rows

    def test_tampered_transform_fails_validation(self, s5):
        solver, _, target = self._monomial_case(s5)
        assert solver.query(target).member
        r, _ = solver.pivots[1]
        work = solver.elimination.work
        column = solver.generators.cols + 1  # the transform's second entry
        work[r][column] = work[r][column] + s5.one
        with pytest.raises(LinalgError, match="span certificate failed validation"):
            solver.query(target)


class TestSamplePoints:
    def test_avoid_simple_zero_locus(self):
        scope = Scope(["x1", "x2"])
        points = sample_points(scope, 3, seed=1, avoid=[scope.var("x1")])
        assert len(points) == 3
        for point in points:
            assert point["x1"] != 0

    def test_no_constraints(self):
        scope = Scope(["x1"])
        assert len(sample_points(scope, 4, seed=9)) == 4

    def test_determinism_by_seed(self):
        scope = Scope(["x1", "x2", "x3"])
        a = sample_points(scope, 5, seed=77, avoid=[scope.var("x2")])
        b = sample_points(scope, 5, seed=77, avoid=[scope.var("x2")])
        assert [p.assignment for p in a] == [p.assignment for p in b]

    def test_avoid_quadric_locus(self):
        scope = Scope(["x3", "x4", "x5"])
        locus = scope.parse("1 - x3^2 + x4^2 + x5^2")
        for point in sample_points(scope, 5, seed=13, avoid=[locus]):
            assert locus.eval_exact(point) != 0

    def test_exhaustion_is_an_error(self):
        scope = Scope(["x1"])
        with pytest.raises(LinalgError, match="admissible"):
            sample_points(scope, 1, seed=5, avoid=[scope.zero])


class TestNonzeroValue:
    """Zeros and poles of kernel-bearing values are decided exactly."""

    @staticmethod
    def _at(**values):
        return Point({name: Fraction(v) for name, v in values.items()})

    def test_tiny_values_are_nonzero(self):
        scope = Scope(["x1", "x2"])
        p = scope.parse
        point = self._at(x1=1, x2=0)
        assert nonzero_value(p("exp(-100)*x1"), point) == "3.720075976020835963e-44"
        assert nonzero_value(p("exp(-1000)"), point).endswith("e-435")
        assert nonzero_value(p("exp(-200) - exp(-201)*x1"), point) is not None

    def test_kernels_that_cancel_at_the_point_vanish(self):
        scope = Scope(["x1", "x2"])
        p = scope.parse
        cases = [
            (p("exp(x1) - exp(x2)"), self._at(x1="3/2", x2="3/2")),
            (p("exp(2*x1) - exp(x1)"), self._at(x1=0, x2=5)),
            (p("x2*exp(x1) - x1*exp(x2) - x2 + x1"), self._at(x1=2, x2=2)),
            (p("exp(x1 + x2) - exp(x1)*exp(1)"), self._at(x1=4, x2=1)),
        ]
        for value, point in cases:
            assert not value.is_zero()
            assert value.vanishes_at(point)
            assert nonzero_value(value, point) is None

    def test_poles_are_exact(self):
        scope = Scope(["x1", "x2"])
        pole = scope.parse("1/(exp(x1) - exp(2*x2))")
        point = self._at(x1=2, x2=1)
        assert nonzero_value(pole, point) is None
        with pytest.raises(EvalError, match="denominator vanishes"):
            pole.eval_float(point, 256)
        with pytest.raises(EvalError, match="denominator vanishes"):
            pole.vanishes_at(point)
        assert nonzero_value(pole, self._at(x1=2, x2=2)) is not None
