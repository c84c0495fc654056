"""Vector fields, forms, brackets, exterior derivatives, wedges."""

import random

import pytest

from frobenius.expr import Scope
from frobenius.exterior import KForm, VectorField, differential, wedge, zero_form

from conftest import random_polynomial


@pytest.fixture
def xyz():
    return Scope(["x", "y", "z"])


def random_field(rng, scope, degree=2):
    return VectorField(
        scope,
        {name: random_polynomial(rng, scope, degree) for name in scope.names},
    )


def random_one_form(rng, scope, degree=2):
    return KForm(
        scope,
        1,
        {(name,): random_polynomial(rng, scope, degree) for name in scope.names},
    )


class TestApply:
    def test_annihilates_known_integral(self):
        scope = Scope(["t1", "t2", "x1", "x2", "x3"])
        field = VectorField(
            scope,
            {
                "t1": scope.one,
                "x1": scope.parse("x1/t1 + t1*x2"),
                "x2": scope.parse("-1 - x1/t1 + x1^2/t1^2 + x2^2"),
                "x3": scope.parse("x2*x3"),
            },
        )
        integral = scope.parse("(1 - x1^2/t1^2 - x2^2 - x3^2)*exp(-2*x1/t1)")
        assert field.apply(integral).is_zero()

    def test_zero_field_annihilates_everything(self, xyz):
        zero = VectorField(xyz, {})
        assert zero.is_zero()
        assert zero.apply(xyz.parse("x*y^2 + z")).is_zero()

    def test_euler_scaling(self, xyz):
        euler = VectorField(xyz, {"x": xyz.var("x")})
        assert euler.apply(xyz.parse("x^3")) == xyz.parse("3*x^3")

    def test_leibniz_rule(self, xyz):
        rng = random.Random(5)
        for _ in range(100):
            field = random_field(rng, xyz)
            e = random_polynomial(rng, xyz)
            f = random_polynomial(rng, xyz)
            lhs = field.apply(e * f)
            rhs = e * field.apply(f) + f * field.apply(e)
            assert (lhs - rhs).is_zero()


class TestBracket:
    def test_known_bracket(self):
        scope = Scope(["x1", "x2"])
        a1 = VectorField(
            scope, {"x1": scope.parse("x1"), "x2": scope.parse("1 + x1 + 2*x2")}
        )
        a2 = VectorField(
            scope, {"x1": scope.parse("3*x1"), "x2": scope.parse("x1 + 3*x2")}
        )
        expected = VectorField(scope, {"x2": scope.parse("3 - x1")})
        assert a1.bracket(a2) == expected

    def test_second_closure_generator(self):
        scope = Scope(["x1", "x2", "x3", "x4", "x5"])
        l1 = VectorField(
            scope, {"x1": scope.one, "x4": scope.var("x5"), "x5": -scope.var("x4")}
        )
        l2 = VectorField(
            scope,
            {
                "x2": scope.one,
                "x3": scope.parse("2*x3*x5"),
                "x4": scope.parse("2*x4*x5"),
                "x5": scope.parse("1 - x3^2 - x4^2 + x5^2"),
            },
        )
        expected = VectorField(
            scope,
            {
                "x3": scope.parse("2*x3*x4"),
                "x4": scope.parse("1 - x3^2 + x4^2 - x5^2"),
                "x5": scope.parse("2*x4*x5"),
            },
        )
        assert l2.bracket(l1) == expected

    def test_self_bracket_vanishes(self, xyz):
        rng = random.Random(7)
        for _ in range(50):
            field = random_field(rng, xyz)
            assert field.bracket(field).is_zero()

    def test_jacobi_identity(self):
        scope = Scope(["x1", "x2", "x3", "x4"])
        rng = random.Random(11)
        for _ in range(100):
            a = random_field(rng, scope)
            b = random_field(rng, scope)
            c = random_field(rng, scope)
            total = (
                a.bracket(b.bracket(c))
                + b.bracket(c.bracket(a))
                + c.bracket(a.bracket(b))
            )
            assert total.is_zero()

    def test_scaled_bracket_identity(self, xyz):
        # [fA, gB] = fg[A,B] + f A(g) B - g B(f) A
        rng = random.Random(13)
        for _ in range(60):
            a = random_field(rng, xyz, 1)
            b = random_field(rng, xyz, 1)
            f = random_polynomial(rng, xyz, 1)
            g = random_polynomial(rng, xyz, 1)
            lhs = a.scaled(f).bracket(b.scaled(g))
            rhs = (
                a.bracket(b).scaled(f * g)
                + b.scaled(f * a.apply(g))
                - a.scaled(g * b.apply(f))
            )
            assert (lhs - rhs).is_zero()

    def test_print_reparses(self):
        scope = Scope(["x1", "x2"])
        field = VectorField(
            scope, {"x1": scope.parse("3 - x1"), "x2": scope.parse("-x1^2/(x2+1)")}
        )
        from frobenius.dsl import _FIELD_MARKER, _parse_weighted_sum

        coeffs = _parse_weighted_sum(field.print(), scope, _FIELD_MARKER, 1)
        assert VectorField(scope, coeffs) == field


class TestOneCancelSum:
    """``apply`` and ``bracket`` equal their stepwise definitions exactly.

    Kernel-free operands sum once over the lcm of the denominators; the
    results must match the stepwise sums under ``==`` and ``print()``.
    """

    @staticmethod
    def _stepwise_apply(field, expression):
        total = field.scope.zero
        for name, coeff in field.coefficients.items():
            total = total + coeff * expression.diff(name)
        return total

    def _stepwise_bracket(self, first, second):
        names = set(first.coefficients) | set(second.coefficients)
        return VectorField(
            first.scope,
            {
                name: self._stepwise_apply(first, second.coefficient(name))
                - self._stepwise_apply(second, first.coefficient(name))
                for name in names
            },
        )

    @staticmethod
    def _field(rng, scope, kind):
        """A random field: polynomial, rational over shared factors, or exp."""
        p = scope.parse
        denominators = [p("t*(x + 1)"), p("t*(y - 2)"), p("(x + 1)*(y - 2)"), p("t^2")]
        weights = [p("exp(x - t)"), p("exp(2*y)"), p("x*exp(-t)")]
        coefficients = {}
        for name in scope.names:
            if rng.random() < 0.2:
                continue
            coeff = random_polynomial(rng, scope, 2)
            if kind != "polynomial" and rng.random() < 0.8:
                coeff = coeff / rng.choice(denominators)
            if kind == "exp" and rng.random() < 0.5:
                coeff = coeff * rng.choice(weights)
            coefficients[name] = coeff
        return VectorField(scope, coefficients)

    def _check(self, first, second):
        bracket = first.bracket(second)
        expected = self._stepwise_bracket(first, second)
        assert bracket == expected
        assert bracket.print() == expected.print()
        for field in (first, second):
            for target in second.coefficient_row():
                value = field.apply(target)
                stepwise = self._stepwise_apply(field, target)
                assert value == stepwise and value.print() == stepwise.print()
        return bracket

    @pytest.mark.parametrize("kind", ["polynomial", "rational", "exp"])
    def test_random_fields_match_stepwise(self, kind):
        scope = Scope(["t", "x", "y"])
        rng = random.Random({"polynomial": 3, "rational": 5, "exp": 7}[kind])
        kernels = 0
        for _ in range(20):
            first, second = self._field(rng, scope, kind), self._field(rng, scope, kind)
            bracket = self._check(first, second)
            kernels += any(c.has_kernels() for c in bracket.coefficient_row())
        assert kernels >= 5 if kind == "exp" else kernels == 0

    @pytest.mark.parametrize("kind", ["polynomial", "rational", "exp"])
    def test_brackets_that_cancel_to_zero(self, kind):
        scope = Scope(["t", "x", "y"])
        rng = random.Random(11)
        for _ in range(5):
            field = self._field(rng, scope, kind)
            for other in (field, field.scaled(scope.const(-3)), -field):
                assert self._check(field, other).is_zero()

    def test_applications_that_cancel_to_zero(self):
        scope = Scope(["t", "x", "y"])
        p = scope.parse
        radius = p("x^2 + y^2")
        for scale in (p("1/(x + 1)"), p("t/((x + 1)*(y - 2))"), p("exp(t)/(y - 2)")):
            rotation = VectorField(scope, {"x": scale * p("y"), "y": -scale * p("x")})
            for integral in (radius, radius / p("t + 1"), radius * p("exp(t)")):
                value = rotation.apply(integral)
                assert value.is_zero()
                assert value == self._stepwise_apply(rotation, integral)

    @staticmethod
    def _count_gcds(monkeypatch) -> list:
        """Record ``expr._cofactors`` calls made outside ``Expr.diff``."""
        import frobenius.expr as expr

        calls, inside_diff = [], []
        cofactors, diff = expr._cofactors, expr.Expr.diff

        def counting_cofactors(f, g):
            if not inside_diff:
                calls.append((f, g))
            return cofactors(f, g)

        def quiet_diff(self, var):
            inside_diff.append(var)
            try:
                return diff(self, var)
            finally:
                inside_diff.pop()

        monkeypatch.setattr(expr, "_cofactors", counting_cofactors)
        monkeypatch.setattr(expr.Expr, "diff", quiet_diff)
        return calls

    def test_polynomial_bracket_takes_no_gcd(self, monkeypatch):
        scope = Scope(["t", "x", "y"])
        first, second = (
            self._field(random.Random(seed), scope, "polynomial") for seed in (1, 2)
        )
        calls = self._count_gcds(monkeypatch)
        assert not first.bracket(second).is_zero()
        assert calls == []

    def test_rational_bracket_takes_one_gcd_per_group(self, monkeypatch):
        scope = Scope(["t", "x", "y"])
        p = scope.parse
        first = VectorField(
            scope, {"t": p("x/t"), "x": p("y^2/(t*(x + 1))"), "y": p("(t + y)/(x + 1)")}
        )
        second = VectorField(
            scope, {"t": p("1/t"), "x": p("(x - y)/(t*(x + 1))"), "y": p("x*y/t")}
        )
        bound = 0
        for name in scope.names:
            pairs = [
                (c, second.coefficient(name).diff(v))
                for v, c in first.coefficients.items()
            ]
            pairs += [
                (-c, first.coefficient(name).diff(v))
                for v, c in second.coefficients.items()
            ]
            groups = {a._q * b._q for a, b in pairs if not (a.is_zero() or b.is_zero())}
            bound += 1 + len(groups)
        calls = self._count_gcds(monkeypatch)
        bracket = first.bracket(second)
        assert 0 < len(calls) <= bound
        assert bracket == self._stepwise_bracket(first, second)


class TestExteriorDerivative:
    def test_d_of_differential_vanishes(self, xyz):
        form = differential(xyz.parse("x*y^2*z^3"))
        assert form.d().is_zero()

    def test_curl_values(self, xyz):
        form = KForm(
            xyz,
            1,
            {
                ("x",): xyz.parse("y*z"),
                ("y",): xyz.parse("2*x*z"),
                ("z",): xyz.parse("3*x*y"),
            },
        )
        d = form.d()
        # oracle: componentwise curl of (yz, 2xz, 3xy) is (x, -2y, z):
        # coefficient of d(y)^d(z) is curl_x, -(d(x)^d(z)) is curl_y,
        # d(x)^d(y) is curl_z
        assert d.coefficient(("y", "z")) == xyz.var("x")
        assert -d.coefficient(("x", "z")) == xyz.parse("-2*y")
        assert d.coefficient(("x", "y")) == xyz.var("z")
        curl = [
            xyz.parse("3*x*y").diff("y") - xyz.parse("2*x*z").diff("z"),
            xyz.parse("y*z").diff("z") - xyz.parse("3*x*y").diff("x"),
            xyz.parse("2*x*z").diff("x") - xyz.parse("y*z").diff("y"),
        ]
        assert curl[0] == d.coefficient(("y", "z"))
        assert curl[1] == -d.coefficient(("x", "z"))
        assert curl[2] == d.coefficient(("x", "y"))

    def test_constant_coefficients(self, xyz):
        form = KForm(xyz, 1, {("x",): xyz.const(2), ("y",): xyz.const(-5)})
        assert form.d().is_zero()

    def test_dd_is_zero_on_random_forms(self):
        scope = Scope(["x1", "x2", "x3", "x4"])
        rng = random.Random(17)
        for _ in range(100):
            form = random_one_form(rng, scope)
            assert form.d().d().is_zero()
        for _ in range(40):
            two_form = random_one_form(rng, scope).wedge(random_one_form(rng, scope))
            assert two_form.d().d().is_zero()


class TestWedge:
    def test_alternation(self, xyz):
        dx = KForm(xyz, 1, {("x",): xyz.one})
        assert dx.wedge(dx).is_zero()

    def test_anticommutativity_of_basis(self, xyz):
        dx = KForm(xyz, 1, {("x",): xyz.one})
        dy = KForm(xyz, 1, {("y",): xyz.one})
        assert dy.wedge(dx) == -(dx.wedge(dy))

    def test_closure_obstruction_vanishes(self, xyz):
        form = KForm(
            xyz,
            1,
            {
                ("x",): xyz.parse("y*z"),
                ("y",): xyz.parse("2*x*z"),
                ("z",): xyz.parse("3*x*y"),
            },
        )
        assert form.d().wedge(form).is_zero()

    def test_graded_anticommutativity(self):
        scope = Scope(["x1", "x2", "x3", "x4"])
        rng = random.Random(19)
        for _ in range(100):
            alpha = random_one_form(rng, scope)
            beta = random_one_form(rng, scope)
            assert alpha.wedge(beta) == -(beta.wedge(alpha))
            two = alpha.wedge(beta)
            gamma = random_one_form(rng, scope)
            assert two.wedge(gamma) == gamma.wedge(two)  # (-1)^{2*1}

    def test_product_rule_for_d(self):
        scope = Scope(["x1", "x2", "x3", "x4"])
        rng = random.Random(23)
        for _ in range(100):
            alpha = random_one_form(rng, scope, 1)
            beta = random_one_form(rng, scope, 1)
            lhs = alpha.wedge(beta).d()
            rhs = alpha.d().wedge(beta) - alpha.wedge(beta.d())
            assert (lhs - rhs).is_zero()

    def test_overflow_degree_is_zero(self, xyz):
        dx = KForm(xyz, 1, {("x",): xyz.one})
        dy = KForm(xyz, 1, {("y",): xyz.one})
        dz = KForm(xyz, 1, {("z",): xyz.one})
        top = dx.wedge(dy).wedge(dz)
        assert not top.is_zero()
        assert top.wedge(dx).is_zero()


class TestDifferential:
    def test_known_gradient(self):
        scope = Scope(["x1", "x2", "x3", "x4"])
        form = differential(scope.parse("2*x1^2 + (x3 + x4)^2"))
        assert form.coefficient(("x1",)) == scope.parse("4*x1")
        assert form.coefficient(("x3",)) == scope.parse("2*(x3 + x4)")
        assert form.coefficient(("x4",)) == scope.parse("2*(x3 + x4)")
        assert form.coefficient(("x2",)).is_zero()

    def test_constant_has_zero_differential(self, xyz):
        assert differential(xyz.const(7)).is_zero()

    def test_monomial_gradient_matches_term_derivatives(self, xyz):
        expr = xyz.parse("x*y^2*z^3")
        form = differential(expr)
        for name in xyz.names:
            assert form.coefficient((name,)) == expr.diff(name)

    def test_form_print_reparses(self, xyz):
        form = KForm(
            xyz,
            1,
            {("x",): xyz.parse("y*z"), ("z",): xyz.parse("-3*x/(y+2)")},
        )
        from frobenius.dsl import _FORM_MARKER, _parse_weighted_sum

        coeffs = _parse_weighted_sum(form.print(), xyz, _FORM_MARKER, 1)
        rebuilt = KForm(xyz, 1, {(n,): c for n, c in coeffs.items()})
        assert rebuilt == form
