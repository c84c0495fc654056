"""Symbolic core: parsing, canonical forms, calculus, evaluation."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy as sm
from hypothesis import given, settings
from hypothesis import strategies as st

from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.rings import PolyElement, PolyRing

from frobenius.expr import EvalError, Expr, ParseError, Point, Scope
from frobenius.exterior import VectorField
from frobenius.linalg import ExprMatrix, SpanSolver, _gcd_expr

from conftest import random_point, random_rational_expr


@pytest.fixture
def joint():
    return Scope(["t1", "t2", "x1", "x2", "x3"])


class TestParsing:
    def test_rational_entry(self, joint):
        parsed = joint.parse("x1/t1 + t1*x2")
        direct = joint.var("x1") / joint.var("t1") + joint.var("t1") * joint.var("x2")
        assert parsed == direct
        assert str(parsed._den) == "t1"

    def test_zero_literal(self, joint):
        assert joint.parse("0").is_zero()

    def test_exp_product_merges(self, joint):
        merged = joint.parse("exp(x1)*exp(x2)")
        assert merged == joint.parse("exp(x1 + x2)")
        # independent oracle: numeric agreement of both prints
        rng = random.Random(7)
        for _ in range(20):
            point = random_point(rng, joint)
            a = merged.eval_float(point, 256)
            b = joint.parse("exp(x1 + x2)").eval_float(point, 256)
            assert abs(a - b) <= abs(b) * mpmath.mpf("1e-30")

    def test_syntax_error_carries_position(self, joint):
        with pytest.raises(ParseError) as err:
            joint.parse("x1 + ")
        assert err.value.position >= 4

    def test_undeclared_variable(self, joint):
        with pytest.raises(ParseError, match="undeclared"):
            joint.parse("x9 + 1")

    def test_nested_exp_rejected(self, joint):
        with pytest.raises(ParseError, match="nested"):
            joint.parse("exp(exp(x1))")

    def test_kernel_order_and_names_follow_the_value_scope(self):
        """Where a kernel was interned first leaves no trace in output."""
        first = Scope(["y", "x"])
        first.parse("exp(x+y)"), first.parse("exp(x-y)")
        second = Scope(["x", "y"])
        assert second.parse("exp(x+y) + exp(x-y)").print() == "exp(x + y) + exp(x - y)"
        assert (
            second.parse("1/(exp(x+y) - exp(x-y))").print()
            == "-exp(-x - y)/(exp(-2*y) - 1)"
        )

    def test_comments_and_whitespace(self, joint):
        assert joint.parse("x1 # trailing\n + x2") == joint.parse("x1+x2")

    def test_exp_zero_collapses(self, joint):
        assert joint.parse("exp(x1 - x1)").is_one()

    def test_print_parse_round_trip(self, joint):
        texts = [
            "x1/t1 + t1*x2",
            "(1 - x1^2/t1^2 - x2^2 - x3^2)*exp(-2*x1/t1)",
            "3/2*x1 - 7",
            "x1/(x2 + 1)/t1",
            "1/(exp(x1) + 1)",
            "-x1 - 1",
        ]
        for text in texts:
            expr = joint.parse(text)
            assert joint.parse(expr.print()) == expr


class TestDifferentiation:
    def test_power_rule(self, joint):
        assert joint.parse("x1^2").diff("x1") == joint.parse("2*x1")

    def test_exp_chain_rule(self, joint):
        expr = joint.parse("exp(-(t1 + 3*t2))")
        assert expr.diff("t1") == -expr

    def test_quotient_rule_matches_finite_differences(self):
        scope = Scope(["x3", "x4", "x5"])
        expr = scope.parse("x3/(1 + x3^2 + x4^2 + x5^2)")
        derivative = expr.diff("x3")
        expected = scope.parse(
            "(1 - x3^2 + x4^2 + x5^2)/(1 + x3^2 + x4^2 + x5^2)^2"
        )
        assert derivative == expected
        # oracle: central differences at 10 random points, step 1e-6
        rng = random.Random(3)
        step = mpmath.mpf("1e-6")
        for _ in range(10):
            point = random_point(rng, scope)
            base = dict(point.assignment)
            up = dict(base, x3=Fraction(base["x3"]) + Fraction(1, 10**6))
            down = dict(base, x3=Fraction(base["x3"]) - Fraction(1, 10**6))
            numeric = (
                expr.eval_float(Point(up), 128) - expr.eval_float(Point(down), 128)
            ) / (2 * step)
            exact = derivative.eval_float(point, 128)
            assert abs(numeric - exact) <= abs(exact) * mpmath.mpf("1e-6") + mpmath.mpf("1e-9")

    def test_mixed_partials_commute(self, joint):
        rng = random.Random(11)
        for _ in range(60):
            expr = random_rational_expr(rng, joint, 4, allow_exp=True)
            du_dv = expr.diff("x1").diff("t1")
            dv_du = expr.diff("t1").diff("x1")
            assert (du_dv - dv_du).is_zero()

    def test_product_rule(self, joint):
        rng = random.Random(13)
        for _ in range(200):
            a = random_rational_expr(rng, joint, 3, allow_exp=True)
            b = random_rational_expr(rng, joint, 3, allow_exp=True)
            var = rng.choice(joint.names)
            lhs = (a * b).diff(var)
            rhs = a * b.diff(var) + b * a.diff(var)
            assert (lhs - rhs).is_zero()


class TestZeroTest:
    def test_binomial_identity(self, joint):
        assert joint.parse("(x1 + x2)^2 - x1^2 - 2*x1*x2 - x2^2").is_zero()

    def test_kernel_normalization(self, joint):
        assert joint.parse("exp(x1 + x2) - exp(x1)*exp(x2)").is_zero()

    def test_kernel_vs_rational_not_zero(self, joint):
        expr = joint.parse("x1*exp(x1) - x1")
        assert not expr.is_zero()
        # oracle: high-precision value at x1 = 1 exceeds 1 in magnitude
        point = Point({name: Fraction(1) for name in joint.names})
        assert abs(expr.eval_float(point, 128)) > 1

    def test_kernel_inverse_soundness(self, joint):
        rng = random.Random(17)
        for _ in range(50):
            argument = random_rational_expr(rng, joint, 3, allow_exp=False)
            product = joint.exp(argument) * joint.exp(-argument) - joint.one
            assert product.is_zero()


class TestEvaluation:
    def test_exact_substitution(self, joint):
        point = Point(
            {"t1": 1, "t2": 1, "x1": Fraction(2), "x2": Fraction(3), "x3": 0}
        )
        assert joint.parse("x2/x1").eval_exact(point) == Fraction(3, 2)

    def test_exact_requires_exp_free(self, joint):
        point = Point({name: Fraction(1) for name in joint.names})
        with pytest.raises(EvalError):
            joint.parse("exp(x1)").eval_exact(point)

    def test_float_known_constant(self, joint):
        point = Point({name: Fraction(1) for name in joint.names})
        value = joint.parse("exp(t1)").eval_float(point, 128)
        assert mpmath.nstr(value, 25).startswith("2.718281828459045235360287")

    def test_float_minimum_precision(self, joint):
        point = Point({name: Fraction(1) for name in joint.names})
        with pytest.raises(EvalError):
            joint.parse("x1").eval_float(point, 32)

    def test_vanishing_denominator(self, joint):
        point = Point({name: Fraction(0) for name in joint.names})
        with pytest.raises(EvalError):
            joint.parse("x2/x1").eval_exact(point)

    def test_zero_value_is_not_an_error(self):
        # rank-pivot callers must treat an exact 0 as a singular-locus hit
        scope = Scope(["x1", "x2", "x3"])
        point = Point({"x1": Fraction(1), "x2": Fraction(0), "x3": Fraction(2)})
        assert scope.parse("x2").eval_exact(point) == 0


class TestSubstitution:
    def test_cancellation(self, joint):
        assert joint.parse("x1/t1").subs({"x1": joint.var("t1")}).is_one()

    def test_absorbing_zero(self, joint):
        assert joint.parse("x2*exp(x1)").subs({"x2": joint.zero}).is_zero()

    def test_kernel_argument_renormalizes(self, joint):
        expr = joint.parse("exp(x1 + x2)").subs({"x2": -joint.var("x1")})
        assert expr.is_one()

    def test_exp_nesting_rejected(self, joint):
        with pytest.raises(Exception, match="nest"):
            joint.parse("exp(x1)").subs({"x1": joint.parse("exp(x2)")})


class TestCanonicalForm:
    def test_idempotence_on_random_exprs(self):
        scope = Scope(["x1", "x2", "x3", "x4"])
        rng = random.Random(23)
        for _ in range(200):
            expr = random_rational_expr(rng, scope, 6, allow_exp=True)
            again = Expr._canonical(scope, expr._num, expr._den)
            assert again == expr
            assert again.print() == expr.print()

    def test_denominator_leading_coefficient_positive(self):
        scope = Scope(["x1", "x2"])
        expr = scope.parse("x1/(1 - x2)")
        assert expr == scope.parse("-x1/(x2 - 1)")
        assert expr._den == (scope.var("x2") - scope.one)._num

    def test_rational_constant_has_one_stored_form(self):
        scope = Scope(["x1"])
        half = scope.const(Fraction(1, 2))
        via_sum = scope.parse("1/2 - x1") + scope.var("x1")
        assert via_sum == half and hash(via_sum) == hash(half)
        assert scope.parse("1/2") == half == scope.parse("x1/2").diff("x1")
        assert (half._num, half._den) == (sm.Rational(1, 2), 1)

    def test_leading_sign_follows_grlex_order(self):
        scope = Scope(["x1", "x2"])
        assert scope.parse("x2^2 - x1").leading_sign() == 1
        assert scope.parse("x1 - x2^2").leading_sign() == -1
        assert scope.parse("-x1*x2 + x1^2").leading_sign() == 1
        assert scope.parse("-3/(x1 + 1)").leading_sign() == -1
        assert scope.zero.leading_sign() == -1

    @given(
        a=st.integers(-40, 40),
        b=st.integers(-40, 40),
        c=st.integers(1, 40),
    )
    @settings(max_examples=120, deadline=None)
    def test_constant_arithmetic_matches_fractions(self, a, b, c):
        scope = Scope(["x1"])
        expr = (scope.const(a) + scope.const(b)) / scope.const(c)
        point = Point({"x1": Fraction(0)})
        assert expr.eval_exact(point) == Fraction(a + b, c)

    def test_field_axioms_at_sample_points(self):
        scope = Scope(["x1", "x2", "x3", "x4"])
        rng = random.Random(29)
        checked = 0
        while checked < 100:
            a = random_rational_expr(rng, scope, 4)
            b = random_rational_expr(rng, scope, 4)
            point = random_point(rng, scope)
            try:
                va, vb = a.eval_exact(point), b.eval_exact(point)
                v_mul = (a * b).eval_exact(point)
                v_add = (a + b).eval_exact(point)
            except EvalError:
                continue
            assert v_mul == va * vb
            assert v_add == va + vb
            checked += 1


class TestPolynomialPath:
    """Kernel-free arithmetic on ring elements agrees with the tree reader."""

    @staticmethod
    def _tree_cases(a, b, var):
        cases = {
            "+": (a + b, a._num * b._den + b._num * a._den, a._den * b._den),
            "-": (a - b, a._num * b._den - b._num * a._den, a._den * b._den),
            "*": (a * b, a._num * b._num, a._den * b._den),
            "diff": (
                a.diff(var),
                sm.diff(a._num, var) * a._den - a._num * sm.diff(a._den, var),
                a._den * a._den,
            ),
        }
        if not b.is_zero():
            cases["/"] = (a / b, a._num * b._den, a._den * b._num)
        return cases

    def test_matches_tree_canonicalisation(self):
        scope = Scope(["x1", "x2", "x3", "x4"])
        ring = scope.ring
        rng = random.Random(31)
        seen = set()
        for _ in range(80):
            a = random_rational_expr(rng, scope, 4)
            b = random_rational_expr(rng, scope, 4)
            var = rng.choice(scope.names)
            for op, (result, num, den) in self._tree_cases(a, b, var).items():
                tree = Expr._canonical(scope, num, den)
                assert result == tree, op
                assert (result._num, result._den) == (tree._num, tree._den), op
                assert result.print() == tree.print(), op
                # kernel-free results hold elements of the scope's one ring,
                # which agree with the lazily built trees as the sparse ring
                # and, term by term, as sympy's dense Poly read them
                assert result._p.ring is ring and result._q.ring is ring, op
                for part, poly in ((result._num, result._p), (result._den, result._q)):
                    assert poly == ring.from_expr(part), op
                    dense = sm.Poly(part, *ring.symbols, domain="QQ")
                    assert {m: sm.Rational(c) for m, c in poly.items()} == {
                        m: c for m, c in dense.terms() if c
                    }, op
                if a._den != 1 or b._den != 1:
                    seen.add(op)
        assert seen == {"+", "-", "*", "/", "diff"}

    def test_results_are_canonical_by_generic_sympy(self):
        """An oracle for the ring tail that uses only sympy's generic functions.

        Since ``_canonical`` ends in the same ring tail, comparing with it
        checks the engine against itself; here each result is checked against
        its unreduced tree with ``sm.gcd``, ``sm.Poly`` and ``sm.expand``.
        """
        scope = Scope(["x1", "x2", "x3", "x4"])
        gens = [scope.symbol(name) for name in scope.names]
        rng = random.Random(37)
        seen = set()
        for _ in range(60):
            a = random_rational_expr(rng, scope, 4)
            b = random_rational_expr(rng, scope, 4)
            var = rng.choice(scope.names)
            for op, (result, num, den) in self._tree_cases(a, b, var).items():
                assert not sm.gcd(result._num, result._den).free_symbols, op
                den_poly = sm.Poly(result._den, *gens, domain="QQ")
                coeffs = den_poly.coeffs()
                assert all(c.is_integer for c in coeffs), op
                assert math.gcd(*(int(c) for c in coeffs)) == 1, op
                assert den_poly.terms(order="grlex")[0][1] > 0, op
                assert sm.expand(result._num * den - num * result._den) == 0, op
                seen.add(op)
        assert seen == {"+", "-", "*", "/", "diff"}

    @staticmethod
    def _two_fields(scope):
        p = scope.parse
        first = VectorField(
            scope, {"t1": scope.one, "x1": p("x1/t1"), "x2": p("x2^2/(t1 + x3)")}
        )
        second = VectorField(
            scope, {"t2": scope.one, "x1": p("(x3 - 1)/(t1*t2)"), "x3": p("x1*x2/t2")}
        )
        return first, second

    @staticmethod
    def _solver(first, second):
        return SpanSolver(
            ExprMatrix.from_rows([first.coefficient_row(), second.coefficient_row()])
        )

    @staticmethod
    def _count_tree_reads(monkeypatch) -> list[str]:
        """Record every later ``from_expr`` and ``as_expr`` call."""
        calls = []
        for owner, name in ((PolyRing, "from_expr"), (PolyElement, "as_expr")):
            original = getattr(owner, name)

            def counting(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(owner, name, counting)
        return calls

    def test_kernel_free_work_builds_no_dense_poly(self, joint, monkeypatch):
        """Falling back to sympy's dense Poly fails here, not in a timing."""
        first, second = self._two_fields(joint)
        solver = self._solver(first, second)
        built = []
        new = sm.Poly.new.__func__

        def counting(cls, rep, *gens):
            built.append(gens)
            return new(cls, rep, *gens)

        monkeypatch.setattr(sm.Poly, "new", classmethod(counting))
        bracket = first.bracket(second)
        certificate = solver.query(bracket.coefficient_row())
        assert not bracket.is_zero() and not certificate.member
        assert built == []

    def test_kernel_free_work_reads_no_trees(self, joint, monkeypatch):
        """Brackets, span solvers, queries and printing stay on ring elements."""
        first, second = self._two_fields(joint)
        calls = self._count_tree_reads(monkeypatch)
        solver = self._solver(first, second)
        bracket = first.bracket(second)
        certificate = solver.query(bracket.coefficient_row())
        printed = [e.print() for e in bracket.coefficient_row()]
        printed.append(certificate.witness_minor.print())
        assert not bracket.is_zero() and not certificate.member
        assert all(printed)
        assert calls == []

    def test_heuristic_gcd_failure_falls_back_to_dense_gcd(self, joint, monkeypatch):
        p = joint.parse
        a = p("(x1^2 - x2^2)*(x3 + 2)/(t1*x1 + t1*x2)")
        b = p("(x1 - x2)*(t2 - 1)/((x3 + 2)*(x1 + x2)^2)")
        weighted = p("(x1 - x2)*exp(x3)")
        common = p("3*(x1 + x2)^2*(x3 - 1)*(t1 + 1)")
        other = p("(x1 + x2)*(x3 - 1)*(x1 - 3*t2)")

        def results():
            return [
                a + b,
                a * b,
                a / b,
                b.diff("x1"),
                weighted / b,
                _gcd_expr(common, other),
            ]

        expected = results()
        failures = []

        def failing(f, g):
            failures.append((f, g))
            raise HeuristicGCDFailed("no luck")

        monkeypatch.setattr(PolyElement, "_gcd_ZZ", failing)
        fallen_back = results()
        assert failures
        assert fallen_back == expected
        assert [e.print() for e in fallen_back] == [e.print() for e in expected]
        assert fallen_back[-1] == p("(x1 + x2)*(x3 - 1)")

    def test_kernel_work_reads_no_trees(self, joint, monkeypatch):
        """Exp-bearing brackets, solvers, queries and printing use ring elements.

        The fields' brackets merge kernels, clear kernel units from
        denominators and apply the chain rule with rational rates.
        """
        p = joint.parse
        first = VectorField(
            joint,
            {"t1": joint.one, "x1": p("x1*exp(x2/t1)"), "x2": p("x2/(exp(t2) + x3)")},
        )
        second = VectorField(
            joint,
            {"t2": joint.one, "x1": p("exp(t1 + t2)/t2"), "x3": p("x1*exp(-t2)")},
        )
        calls = self._count_tree_reads(monkeypatch)
        solver = self._solver(first, second)
        bracket = first.bracket(second)
        certificate = solver.query(bracket.coefficient_row())
        printed = [e.print() for e in bracket.coefficient_row()]
        printed.append(certificate.witness_minor.print())
        assert not certificate.member
        row = [e for e in bracket.coefficient_row() if not e.is_zero()]
        assert row and all(e.has_kernels() for e in row)
        assert certificate.witness_minor.has_kernels() and all(printed)
        assert calls == []

    def test_unexpanded_part_still_reads_correctly(self):
        scope = Scope(["x1", "x2"])
        x, y = scope.symbol("x1"), scope.symbol("x2")
        unexpanded = Expr._canonical(scope, x * (x + y), sm.Integer(1))
        assert unexpanded._p == scope.ring.from_expr(x**2 + x * y)
        assert unexpanded._q == 1 and unexpanded._num == x**2 + x * y
        expanded = scope.parse("x1^2 + x1*x2")
        assert unexpanded == expanded and hash(unexpanded) == hash(expanded)
        divisor = scope.parse("x2 + 1")
        assert unexpanded / divisor == expanded / divisor
        assert unexpanded.diff("x1") == expanded.diff("x1")


class TestSumOfProducts:
    """``Expr._sum_of_products`` agrees with stepwise ``a*b + ...``."""

    @staticmethod
    def _stepwise(scope, pairs):
        total = scope.zero
        for a, b in pairs:
            total = total + a * b
        return total

    def _check(self, scope, pairs):
        expected = self._stepwise(scope, pairs)
        result = Expr._sum_of_products(scope, pairs)
        assert result == expected
        assert result.print() == expected.print()
        return result

    @pytest.mark.parametrize("allow_exp", [False, True])
    def test_random_sums_match_stepwise(self, joint, allow_exp):
        rng = random.Random(41)
        zeros = kernels = 0
        for _ in range(60):
            pairs = [
                (
                    random_rational_expr(rng, joint, 3, allow_exp),
                    random_rational_expr(rng, joint, 3, allow_exp),
                )
                for _ in range(rng.randint(1, 4))
            ]
            if rng.random() < 0.3:
                # split the negated sum over a shared factor, so it cancels to 0
                factor = random_rational_expr(rng, joint, 2, allow_exp)
                if not factor.is_zero():
                    pairs.append((-self._stepwise(joint, pairs) / factor, factor))
            result = self._check(joint, pairs)
            zeros += result.is_zero()
            kernels += result.has_kernels()
        assert zeros >= 10
        assert kernels >= 10 if allow_exp else kernels == 0

    def test_kernel_products_merge(self, joint):
        p = joint.parse
        cases = [
            [(p("exp(x1)"), p("exp(-x1)")), (joint.one, -joint.one)],
            [(p("exp(x1)"), p("x2*exp(-x1)")), (p("x1"), p("exp(x2)/t1"))],
            [(p("exp(x1)/(t1 + 1)"), p("exp(x2)")), (p("x3"), p("exp(x1 + x2)"))],
            [(p("exp(t1)"), p("1/(exp(x1) + x2)")), (p("exp(x1 + t1)"), p("x1/t2"))],
            [(p("x1/(x2 + 1)"), p("x3/t1")), (p("x2/t1"), p("x3/(x2 + 1)"))],
        ]
        results = [self._check(joint, pairs) for pairs in cases]
        assert results[0].is_zero()
        assert results[2] == p("(1/(t1 + 1) + x3)*exp(x1 + x2)")

    def test_empty_and_zero_terms(self, joint):
        x1 = joint.var("x1")
        assert Expr._sum_of_products(joint, []) is joint.zero
        assert Expr._sum_of_products(joint, [(joint.zero, x1), (x1, x1)]) == x1**2
