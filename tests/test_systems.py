"""System model: DSL round trips, validation, and conversions."""

import random

import pytest

from frobenius.dsl import DslError, parse_system, serialize, system_to_dict
from frobenius.expr import Scope
from frobenius.exterior import KForm, VectorField, differential
from frobenius.systems import (
    PdeSystem,
    System,
    SystemError,
    normal_pde_to_td,
    pde_normalize,
    pfaff_contragredient,
    pfaff_reduce_by_integrals,
    pfaff_to_td,
    td_defect_reduction,
    td_to_pde,
    td_to_pfaff,
)

from conftest import FIXTURES, load_fixture, random_polynomial


class TestParsing:
    def test_td_fixture_shape(self):
        system = load_fixture("ex_1_7")
        assert system.kind == "td"
        assert system.td.m == 2 and system.td.n == 2

    def test_pde_fixture_shape(self):
        system = load_fixture("ex_2_10")
        assert system.kind == "pde"
        assert system.pde.m == 2 and system.pde.n == 5

    def test_duplicate_operator_names_rejected(self):
        pde = load_fixture("ex_2_10").pde
        with pytest.raises(SystemError, match="duplicate operator name"):
            PdeSystem(pde.scope, pde.operators, names=("g3", "g3"))

    def test_rank_deficient_forms_rejected(self):
        text = """
kind: pfaff
vars: x1 x2
form w1: x1*d(x1) + d(x2)
form w2: 2*x1*d(x1) + 2*d(x2)
"""
        with pytest.raises(SystemError, match="linearly bound"):
            parse_system(text)

    def test_duplicate_equation_rejected(self):
        text = """
kind: td
indep: t1
dep: x1
eq x1: 1
eq x1: 2
"""
        with pytest.raises(DslError, match="duplicate"):
            parse_system(text)

    def test_underdeclared_variable_rejected(self):
        text = """
kind: pde
vars: x1
op l1: @x1 + @x2
"""
        with pytest.raises(DslError, match="undeclared"):
            parse_system(text)

    def test_more_independents_warns(self):
        text = """
kind: td
indep: t1 t2
dep: x1
eq x1: 0 | 0
"""
        system = parse_system(text)
        assert system.warnings and "m=2" in system.warnings[0]

    def test_all_fixtures_round_trip(self):
        for path in sorted(FIXTURES.glob("*.dsys")):
            system = parse_system(path.read_text(encoding="utf-8"))
            again = parse_system(serialize(system))
            assert again.kind == system.kind
            if system.kind == "td":
                assert again.td.indep == system.td.indep
                assert again.td.dep == system.td.dep
                assert again.td.entries == system.td.entries
            elif system.kind == "pde":
                assert again.pde.operators == system.pde.operators
                assert again.pde.normal_pivots == system.pde.normal_pivots
            else:
                assert again.pfaff.forms == system.pfaff.forms
                assert again.pfaff.completion == system.pfaff.completion

    def test_json_serialization_structure(self):
        system = load_fixture("ex_4_6")
        payload = system_to_dict(system)
        assert payload["kind"] == "pfaff"
        assert len(payload["entries"]) == 1
        assert payload["vars"] == ["x", "y", "z"]
        assert "excluded_locus" in payload["metadata"]


class TestTdToPde:
    def test_nonautonomous_operator_shape(self):
        td = load_fixture("ex_1_15").td
        pde = td_to_pde(td)
        scope = pde.scope
        expected = [
            VectorField(
                scope, {"t1": scope.one, "x1": scope.one, "x3": scope.var("x2")}
            ),
            VectorField(
                scope, {"t2": scope.one, "x2": scope.one, "x3": scope.var("x1")}
            ),
        ]
        assert list(pde.operators) == expected

    def test_zero_matrix_gives_bare_translations(self):
        text = """
kind: td
indep: t1 t2
dep: x1
eq x1: 0 | 0
"""
        td = parse_system(text).td
        pde = td_to_pde(td)
        assert pde.operators[0] == VectorField(pde.scope, {"t1": pde.scope.one})
        assert pde.operators[1] == VectorField(pde.scope, {"t2": pde.scope.one})


class TestNormalization:
    def test_already_normal_is_unchanged(self):
        pde = load_fixture("ex_2_31").pde
        normalized, excluded = pde_normalize(pde)
        assert normalized is pde
        assert excluded == []

    def test_normalize_then_normalize_is_stable(self):
        from frobenius.analysis import bracket_closure

        closure = bracket_closure(load_fixture("ex_2_23").pde)
        once, _ = pde_normalize(closure.completed)
        twice, _ = pde_normalize(once)
        assert twice is once

    def test_round_trip_through_associated_td(self):
        # operators of the associated system reproduce the normal operators
        pde = load_fixture("ex_2_31").pde
        td = normal_pde_to_td(pde)
        back = td_to_pde(td)
        assert set(back.scope.names) == set(pde.scope.names)
        lifted = [
            VectorField(
                back.scope,
                {n: back.scope.lift(op.coefficient(n)) for n in pde.scope.names},
            )
            for op in pde.operators
        ]
        assert list(back.operators) == lifted

    def test_missing_normal_info_rejected(self):
        pde = load_fixture("ex_2_10").pde
        with pytest.raises(SystemError, match="normal"):
            normal_pde_to_td(pde)


class TestPfaffConversions:
    def test_td_to_pfaff_unit_coefficients(self):
        td = load_fixture("ex_1_7").td
        pf = td_to_pfaff(td)
        assert pf.m == 2
        for i, name in enumerate(td.dep):
            assert pf.forms[i].coefficient((name,)).is_one()
        assert pf.forms[0].coefficient(("t1",)) == -td.scope.var("x1")
        assert pf.forms[0].coefficient(("t2",)) == -td.scope.parse("3*x1")

    def test_pfaff_round_trip_restores_entries(self):
        for name in ("ex_1_7", "ex_1_15", "ex_3_9"):
            td = load_fixture(name).td
            pf = td_to_pfaff(td)
            back, _ = pfaff_to_td(pf, pivot_cols=list(td.dep))
            assert back.indep == td.indep
            assert back.dep == td.dep
            for row_a, row_b in zip(back.entries, td.entries):
                for a, b in zip(row_a, row_b):
                    assert (a - b).is_zero()

    def test_identity_forms_give_trivial_system(self):
        scope = Scope(["x1", "x2"])
        pf_system = parse_system(
            "kind: pfaff\nvars: x1 x2\nform w1: d(x1)\nform w2: d(x2)\n"
        )
        assert pf_system.pfaff.m == pf_system.pfaff.n

    def test_singular_pivot_choice_rejected(self):
        pf = load_fixture("ex_4_7").pfaff
        # columns x1, x4 of the two forms are [[1,1],[1,1]]: singular
        with pytest.raises(SystemError, match="singular"):
            pfaff_to_td(pf, pivot_cols=["x1", "x4"])

    def test_auto_pivot_preserves_integrals(self):
        system = load_fixture("ex_4_7")
        td, _ = pfaff_to_td(system.pfaff)
        from frobenius.analysis import verify_first_integral

        integral = system.scope.parse("x1 + x2 + x3 + x4")
        assert verify_first_integral(system, integral).valid
        td_system = System(kind="td", td=td)
        assert verify_first_integral(
            td_system, td.scope.lift(integral)
        ).valid


class TestContragredient:
    def test_duality_identity_on_random_functions(self):
        rng = random.Random(61)
        for name in ("ex_4_1", "ex_4_3", "ex_4_7", "ex_4_8"):
            pf = load_fixture(name).pfaff
            contragredient = pfaff_contragredient(pf)
            scope = pf.scope
            for _ in range(20):
                function = random_polynomial(rng, scope, 2, terms=3)
                total = KForm(scope, 1, {})
                for op, form in zip(
                    contragredient.operators, contragredient.extended_forms
                ):
                    total = total + form.scaled(op.apply(function))
                assert (total - differential(function)).is_zero()

    def test_codimension_one_single_operator(self):
        pf = load_fixture("ex_4_6").pfaff
        contragredient = pfaff_contragredient(pf)
        assert len(contragredient.operators) == 3
        assert contragredient.pde.m == 2

    def test_square_system_rejected(self):
        pf = load_fixture("ex_4_2").pfaff
        with pytest.raises(SystemError, match="m < n"):
            pfaff_contragredient(pf)


class TestReduceByIntegrals:
    def test_no_integrals_is_identity(self):
        pf = load_fixture("ex_4_1").pfaff
        reduced, excluded = pfaff_reduce_by_integrals(pf, [])
        assert reduced is pf
        assert excluded == []

    def test_invalid_integral_rejected(self):
        pf = load_fixture("ex_4_1").pfaff
        with pytest.raises(SystemError, match="not a first integral"):
            pfaff_reduce_by_integrals(pf, [pf.scope.var("x1")])

    def test_full_reduction_gives_exact_differentials(self):
        pf = load_fixture("ex_4_1").pfaff
        scope = pf.scope
        integrals = [
            scope.parse("2*x1^2 + (x3 + x4)^2"),
            scope.parse("2*x2^2 + (x3 - x4)^2"),
        ]
        reduced, _ = pfaff_reduce_by_integrals(pf, integrals)
        assert list(reduced.forms) == [differential(F) for F in integrals]


class TestDefectReduction:
    def test_solvable_input_unchanged(self):
        td = load_fixture("ex_3_2").td
        reduced, _ = td_defect_reduction(td)
        assert reduced is td

    def test_parameters_stay_independent(self):
        td = load_fixture("ex_1_7").td
        reduced, _ = td_defect_reduction(td)
        assert reduced.indep == ("t1", "t2", "x2")
        assert reduced.dep == ("x1",)

    def test_defect_equal_to_dependents_rejected(self):
        td = load_fixture("ex_3_7").td
        with pytest.raises(SystemError, match="no dependent"):
            td_defect_reduction(td)
