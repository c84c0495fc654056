"""Seed-pinned randomized invariant suites shared by the property tests and
the acceptance gate.

Each suite raises AssertionError on the first violation and returns the
number of cases exercised. A suite is a pure function of its arguments, so a
passing result is cached: the property tests and the acceptance gate share one
run per session. A failing suite raises and is not cached.
"""

import functools
import random

from frobenius.analysis import pfaff_closure_check, verify_first_integral
from frobenius.exterior import KForm, VectorField, differential
from frobenius.expr import Scope
from frobenius.linalg import ExprMatrix, rank_echelon, sample_points
from frobenius.systems import (
    PfaffSystem,
    System,
    normal_pde_to_td,
    pde_normalize,
    pfaff_contragredient,
    pfaff_reduce_by_integrals,
    pfaff_to_td,
    td_defect_reduction,
    td_to_pde,
    td_to_pfaff,
)

from conftest import load_fixture, random_polynomial


def _random_field(rng, scope, degree=2):
    return VectorField(
        scope, {n: random_polynomial(rng, scope, degree) for n in scope.names}
    )


def _random_one_form(rng, scope, degree=2):
    return KForm(
        scope,
        1,
        {(n,): random_polynomial(rng, scope, degree) for n in scope.names},
    )


@functools.cache
def jacobi_identity_suite(cases: int = 100, seed: int = 101) -> int:
    scope = Scope(["x1", "x2", "x3", "x4"])
    rng = random.Random(seed)
    for _ in range(cases):
        a = _random_field(rng, scope)
        b = _random_field(rng, scope)
        c = _random_field(rng, scope)
        cyclic = (
            a.bracket(b.bracket(c))
            + b.bracket(c.bracket(a))
            + c.bracket(a.bracket(b))
        )
        assert cyclic.is_zero()
    return cases


@functools.cache
def dd_zero_suite(cases: int = 100, seed: int = 103) -> int:
    scope = Scope(["x1", "x2", "x3", "x4"])
    rng = random.Random(seed)
    for k in range(cases):
        form = _random_one_form(rng, scope)
        if k % 3 == 0:
            form = form.wedge(_random_one_form(rng, scope, 1))
        assert form.d().d().is_zero()
    return cases


@functools.cache
def wedge_identities_suite(cases: int = 100, seed: int = 107) -> int:
    scope = Scope(["x1", "x2", "x3", "x4"])
    rng = random.Random(seed)
    for _ in range(cases):
        alpha = _random_one_form(rng, scope, 1)
        beta = _random_one_form(rng, scope, 1)
        # graded anticommutativity for odd degrees
        assert alpha.wedge(beta) == -(beta.wedge(alpha))
        two = alpha.wedge(beta)
        gamma = _random_one_form(rng, scope, 1)
        assert two.wedge(gamma) == gamma.wedge(two)
        # graded Leibniz rule for the exterior derivative
        lhs = alpha.wedge(beta).d()
        rhs = alpha.d().wedge(beta) - alpha.wedge(beta.d())
        assert (lhs - rhs).is_zero()
    return cases


def _random_pfaff(rng, max_vars=4, degree=2, closed=False) -> PfaffSystem:
    n = rng.randint(2, max_vars)
    m = rng.randint(1, n - 1)
    scope = Scope([f"x{i + 1}" for i in range(n)])
    while True:
        if closed:
            forms = []
            for _ in range(m):
                function = random_polynomial(rng, scope, degree, terms=3)
                forms.append(differential(function))
        else:
            forms = [
                KForm(
                    scope,
                    1,
                    {
                        (name,): random_polynomial(rng, scope, degree)
                        for name in scope.names
                    },
                )
                for _ in range(m)
            ]
        candidate = [f for f in forms if not f.is_zero()]
        if len(candidate) < m:
            continue
        matrix = ExprMatrix.from_rows([f.coefficient_row() for f in candidate])
        if rank_echelon(matrix).rank == m:
            return PfaffSystem(scope, tuple(candidate))


def wedge_verdict(pf: PfaffSystem) -> bool:
    return pfaff_closure_check(pf, "wedge").closed


@functools.cache
def lemma_invariance_suite(cases: int = 100, seed: int = 109) -> int:
    """Nonsingular form recombination never changes the wedge verdict."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        pf = _random_pfaff(rng, degree=1, closed=bool(done % 2))
        scope = pf.scope
        m = pf.m
        transform = [
            [random_polynomial(rng, scope, 1) for _ in range(m)] for _ in range(m)
        ]
        if rank_echelon(ExprMatrix.from_rows(transform)).rank < m:
            continue
        new_forms = []
        for i in range(m):
            total = KForm(scope, 1, {})
            for j in range(m):
                total = total + pf.forms[j].scaled(transform[i][j])
            new_forms.append(total)
        if any(f.is_zero() for f in new_forms):
            continue
        transformed = PfaffSystem(scope, tuple(new_forms))
        assert wedge_verdict(pf) == wedge_verdict(transformed)
        done += 1
    return done


@functools.cache
def closure_method_agreement_suite(cases: int = 100, seed: int = 113) -> int:
    """Wedge products and dual-operator completeness always agree."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        pf = _random_pfaff(rng, degree=2, closed=bool(done % 4 == 0))
        check = pfaff_closure_check(pf, "both")  # raises on disagreement
        assert check.closed in (True, False)
        done += 1
    return done


@functools.cache
def rank_oracle_suite(cases: int = 100, seed: int = 127) -> int:
    scope = Scope(["x1", "x2", "x3"])
    rng = random.Random(seed)
    for _ in range(cases):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        matrix = ExprMatrix.from_rows(
            [
                [random_polynomial(rng, scope, 2) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        result = rank_echelon(matrix)
        points = sample_points(
            scope, 8, seed=rng.randint(0, 10**6), avoid=result.excluded
        )
        sampled = 0
        for point in points:
            sampled = max(sampled, _numeric_rank(matrix, point))
        assert result.rank == sampled
    return cases


def _numeric_rank(matrix: ExprMatrix, point) -> int:
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


FIXTURE_INTEGRALS = {
    "ex_1_3": ["(1 - x1^2/t1^2 - x2^2 - x3^2)*exp(-2*x1/t1)"],
    "ex_1_7": ["x1*exp(-(t1 + 3*t2))"],
    "ex_1_15": ["t1 - x1", "t2 - x2", "x1*x2 - x3"],
    "ex_2_10": ["x3/(1 + x3^2 + x4^2 + x5^2)"],
    "ex_2_23": ["x2/x1", "x3/x1"],
    "ex_2_31": ["t1 - x1", "t2 - x2", "x1*x2 - x3"],
    "ex_2_32": ["(x2 - x3)/(x1 - x2)"],
    "ex_3_2": [
        "x2*(x1 + 1)/x1^2",
        "(x1 + 1)/x1*exp(t1 + t2)",
        "x3/x1*exp(-2*(t1 + 2*t2))",
    ],
    "ex_3_9": ["x3/(1 + x3^2 + x4^2 + x5^2)"],
    "ex_3_14": ["x1*exp(-(t1 + 3*t2))"],
    "ex_4_1": [
        "2*x1^2 + (x3 + x4)^2",
        "2*x2^2 + (x3 - x4)^2",
        "x1^2 - x2^2 + 2*x3*x4",
    ],
    "ex_4_2": ["x1", "x2", "x3"],
    "ex_4_3": ["x1/(x3 - x4)", "x1^2*(x2^2 - (x3 + x4)^2)"],
    "ex_4_6": ["x*y^2*z^3"],
    "ex_4_7": ["x1 + x2 + x3 + x4"],
    "ex_4_8": ["2*x1^2 + 3*x3^2 + 3*x4^2", "2*x2^2 + x3^2 + x4^2"],
}


def _conversions_of(system: System):
    """Integrally equivalent counterparts reachable from a system."""
    out = []
    if system.kind == "td":
        td = system.td
        out.append(System(kind="pde", pde=td_to_pde(td, "nonautonomous")))
        out.append(System(kind="pfaff", pfaff=td_to_pfaff(td)))
        from frobenius.analysis import bracket_closure

        closure = bracket_closure(td_to_pde(td, "nonautonomous"))
        if 0 < closure.defect < td.n:
            reduced, _ = td_defect_reduction(td)
            out.append(System(kind="td", td=reduced))
    elif system.kind == "pde":
        from frobenius.analysis import bracket_closure

        pde = system.pde
        closure = bracket_closure(pde)
        completed = closure.completed
        out.append(System(kind="pde", pde=completed))
        if completed.m < len(completed.scope):
            normalized, _ = pde_normalize(completed)
            out.append(System(kind="pde", pde=normalized))
            out.append(System(kind="td", td=normal_pde_to_td(normalized)))
    else:
        pf = system.pfaff
        if pf.m < pf.n:
            td, _ = pfaff_to_td(pf)
            out.append(System(kind="td", td=td))
            out.append(
                System(kind="pde", pde=pfaff_contragredient(pf).pde)
            )
    return out


@functools.cache
def conversion_preserves_verification_suite() -> int:
    checked = 0
    for name, texts in sorted(FIXTURE_INTEGRALS.items()):
        system = load_fixture(name)
        integrals = [system.scope.parse(t) for t in texts]
        for integral in integrals:
            assert verify_first_integral(system, integral).valid, name
        for converted in _conversions_of(system):
            for integral in integrals:
                lifted = converted.scope.lift(integral)
                assert verify_first_integral(converted, lifted).valid, (
                    name,
                    converted.kind,
                )
                checked += 1
        if system.kind == "pfaff" and len(integrals) >= 1:
            reduced, _ = pfaff_reduce_by_integrals(
                system.pfaff, integrals[: system.pfaff.m]
            )
            reduced_system = System(kind="pfaff", pfaff=reduced)
            for integral in integrals:
                assert verify_first_integral(reduced_system, integral).valid
                checked += 1
    return checked
