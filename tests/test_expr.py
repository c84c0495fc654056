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

from frobenius.analysis import analyze
from frobenius.expr import (
    EvalError,
    Expr,
    ExprError,
    ParseError,
    Point,
    Scope,
    _ring,
)
from frobenius.exterior import VectorField
from frobenius.linalg import ExprMatrix, SpanSolver

from conftest import load_fixture, random_point, random_rational_expr
from test_golden import INVALID


@pytest.fixture
def joint():
    return Scope(["t1", "t2", "x1", "x2", "x3"])


def _trees(expr):
    """An expression's numerator and denominator as sympy trees."""
    return expr._p.as_expr(), expr._q.as_expr()


def _from_trees(scope, num, den):
    """The canonical form of num/den, given as polynomial trees.

    The trees are over the scope's variables and interned kernel symbols, as
    ``_trees`` builds them; they are read back into a ring on those symbols.
    """
    symbols = scope.ring.symbols
    kernels = sorted((num.free_symbols | den.free_symbols) - set(symbols), key=str)
    ring = _ring(symbols + tuple(kernels))
    return Expr._from_polys(scope, ring.from_expr(num), ring.from_expr(den))


class TestParsing:
    def test_rational_entry(self, joint):
        parsed = joint.parse("x1/t1 + t1*x2")
        direct = joint.var("x1") / joint.var("t1") + joint.var("t1") * joint.var("x2")
        assert parsed == direct
        assert str(_trees(parsed)[1]) == "t1"

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

    def test_vanishing_denominator_in_float_and_substitution(self, joint):
        """A pole is an EvalError or ExprError, in a kernel's argument too."""
        point = Point({name: Fraction(0) for name in joint.names})
        for text in ("x2/x1", "1/(exp(x1) - 1)", "exp(1/x1) + x2"):
            with pytest.raises(EvalError, match="denominator vanishes"):
                joint.parse(text).eval_float(point)
        for text, value in (("x2/x1", 0), ("exp(x2)/(x1 - 1)", 1)):
            with pytest.raises(ExprError, match="division by zero"):
                joint.parse(text).subs({"x1": value})

    def test_lift_names_the_first_undeclared_variable(self, joint):
        """In name order, so the message does not depend on set order."""
        with pytest.raises(ExprError, match="variable t1 not declared"):
            Scope(["x1"]).lift(joint.parse("x3*exp(t2) + t1*x2"))

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
            again = _from_trees(scope, *_trees(expr))
            assert again == expr
            assert again.print() == expr.print()

    def test_denominator_leading_coefficient_positive(self):
        scope = Scope(["x1", "x2"])
        expr = scope.parse("x1/(1 - x2)")
        assert expr == scope.parse("-x1/(x2 - 1)")
        assert _trees(expr)[1] == _trees(scope.var("x2") - scope.one)[0]

    def test_rational_constant_has_one_stored_form(self):
        scope = Scope(["x1"])
        half = scope.const(Fraction(1, 2))
        via_sum = scope.parse("1/2 - x1") + scope.var("x1")
        assert via_sum == half and hash(via_sum) == hash(half)
        assert scope.parse("1/2") == half == scope.parse("x1/2").diff("x1")
        assert _trees(half) == (sm.Rational(1, 2), 1)

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
        (an, ad), (bn, bd) = _trees(a), _trees(b)
        cases = {
            "+": (a + b, an * bd + bn * ad, ad * bd),
            "-": (a - b, an * bd - bn * ad, ad * bd),
            "*": (a * b, an * bn, ad * bd),
            "diff": (
                a.diff(var),
                sm.diff(an, var) * ad - an * sm.diff(ad, var),
                ad * ad,
            ),
        }
        if not b.is_zero():
            cases["/"] = (a / b, an * bd, ad * bn)
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
                tree = _from_trees(scope, num, den)
                assert result == tree, op
                assert _trees(result) == _trees(tree), op
                assert result.print() == tree.print(), op
                # kernel-free results hold elements of the scope's one ring,
                # which agree with their trees as the sparse ring and, term
                # by term, as sympy's dense Poly read them
                assert result._p.ring is ring and result._q.ring is ring, op
                for part, poly in zip(_trees(result), (result._p, result._q)):
                    assert poly == ring.from_expr(part), op
                    dense = sm.Poly(part, *ring.symbols, domain="QQ")
                    assert {m: sm.Rational(c) for m, c in poly.items()} == {
                        m: c for m, c in dense.terms() if c
                    }, op
                if _trees(a)[1] != 1 or _trees(b)[1] != 1:
                    seen.add(op)
        assert seen == {"+", "-", "*", "/", "diff"}

    def test_results_are_canonical_by_generic_sympy(self):
        """An oracle for the ring tail that uses only sympy's generic functions.

        Since ``_from_trees`` ends in the same ring tail, comparing with it
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
                result_num, result_den = _trees(result)
                assert not sm.gcd(result_num, result_den).free_symbols, op
                den_poly = sm.Poly(result_den, *gens, domain="QQ")
                coeffs = den_poly.coeffs()
                assert all(c.is_integer for c in coeffs), op
                assert math.gcd(*(int(c) for c in coeffs)) == 1, op
                assert den_poly.terms(order="grlex")[0][1] > 0, op
                assert sm.expand(result_num * den - num * result_den) == 0, op
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
        """Record every later ``from_expr``, ``as_expr``, ``lambdify`` and
        ``together`` call."""
        calls = []
        for owner, name in (
            (PolyRing, "from_expr"),
            (PolyElement, "as_expr"),
            (sm, "lambdify"),
            (sm, "together"),
        ):
            original = getattr(owner, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

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

        def results():
            return [
                a + b,
                a * b,
                a / b,
                b.diff("x1"),
                weighted / b,
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

    def test_lift_subs_and_evaluation_read_no_trees(self, monkeypatch):
        """Lifting across scopes, substitution and evaluation use ring elements."""
        source, target = Scope(["x", "y"]), Scope(["z", "y", "x"])
        p = source.parse
        values = [
            p("exp(x + y)/(exp(x - y) + x) - 3/2*y*exp(2*x)"),
            p("(x^2 - y)/(exp(y) - x*exp(x - y))"),
        ]
        bindings = {"x": p("2*y - 1"), "y": 3}
        point = Point({"x": Fraction(1, 3), "y": Fraction(-2, 5)})
        exact = p("(x^2 - y)/(x + 1)")
        fixture = load_fixture("ex_1_3")
        _, integrals = INVALID["ex_1_3-kernels"]
        candidates = [fixture.scope.parse(text) for text in integrals]
        steps = {
            "lift": lambda: [target.lift(value) for value in values],
            "subs": lambda: [value.subs(bindings) for value in values],
            "eval_float": lambda: [value.eval_float(point, 128) for value in values],
            "eval_exact": lambda: exact.eval_exact(point),
            "analyze": lambda: analyze(fixture, candidates),
        }
        calls = self._count_tree_reads(monkeypatch)
        results = {}
        for name, step in steps.items():
            results[name] = step()
            assert calls == [], name
        lifted, substituted, floats, rational, report = results.values()
        # the strings were printed by the tree-based reader these replace
        assert [str(value) for value in lifted] == [
            "(-3/2*y*x*exp(2*x) - 3/2*y*exp(-y + 3*x) + exp(y + x))"
            "/(x + exp(-y + x))",
            "(-1*x^2*exp(y - x) + y*exp(y - x))/(x - exp(2*y - x))",
        ]
        assert [str(value) for value in substituted] == [
            "(-9*y*exp(4*y - 2) + exp(2*y + 2) + 9/2*exp(4*y - 2)"
            " - 9/2*exp(6*y - 6))/(2*y + exp(2*y - 4) - 1)",
            "(-4*y^2*exp(-2*y + 4) + 4*y*exp(-2*y + 4) + 2*exp(-2*y + 4))"
            "/(2*y - exp(-2*y + 7) - 1)",
        ]
        assert [mpmath.nstr(value, 25) for value in floats] == [
            "1.555959000370849309692407",
            "-21.58136637167833768969028",
        ]
        assert rational == Fraction(23, 60)
        assert [target.parse(str(value)) for value in lifted] == lifted
        assert [c.valid for c in report.integrals] == [False, False]
        assert all(c.witness_value for c in report.integrals)

    def test_unexpanded_part_still_reads_correctly(self):
        scope = Scope(["x1", "x2"])
        x, y = scope.symbol("x1"), scope.symbol("x2")
        unexpanded = _from_trees(scope, x * (x + y), sm.Integer(1))
        assert unexpanded._p == scope.ring.from_expr(x**2 + x * y)
        assert unexpanded._q == 1 and _trees(unexpanded)[0] == x**2 + x * y
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
