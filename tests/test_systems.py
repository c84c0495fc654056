"""System model: DSL round trips, validation, and conversions."""

import random
import re

import pytest

from frobenius.dsl import DslError, parse_system, serialize, system_to_dict
from frobenius.expr import Scope
from frobenius.exterior import KForm, VectorField, differential
from frobenius.linalg import ExprMatrix, LinalgError, echelon, invert
from frobenius.systems import (
    PdeSystem,
    PfaffSystem,
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


def _as_form(text: str) -> str:
    """An operator row's text with each @x, @y written d(x), d(y)."""
    return text.replace("@x", "d(x)").replace("@y", "d(y)")


def _two_row_system(row_kind: str, row: str) -> str:
    """A pde (``op``) or pfaff (``form``) system on x, y whose second row,
    on line 4, is ``row`` written in that kind's markers."""
    if row_kind == "op":
        return f"kind: pde\nvars: x y\nop l0: @x\nop l1: {row}\n"
    return f"kind: pfaff\nvars: x y\nform w0: d(x)\nform w1: {_as_form(row)}\n"


def _columns(pf, names) -> ExprMatrix:
    """The named columns of a Pfaff system's form matrix."""
    matrix = pf.coefficient_matrix()
    columns = [pf.scope.index(v) for v in names]
    return ExprMatrix.from_rows(
        [[matrix.at(i, c) for c in columns] for i in range(pf.m)]
    )


def _assert_inverts_pivot_block(pf, td, locus):
    """td's entries are -(A^-1 R) for the pivot block A and the rest R, and
    its locus is that of inverting A."""
    inverse, inverse_locus = invert(_columns(pf, td.dep))
    solved = inverse.mul(_columns(pf, td.indep))
    assert locus == inverse_locus
    for i, row in enumerate(td.entries):
        for j, entry in enumerate(row):
            assert entry == -td.scope.lift(solved.at(i, j))


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

    def test_duplicate_form_names_rejected(self):
        pf = load_fixture("ex_4_7").pfaff
        with pytest.raises(SystemError, match="duplicate form name"):
            PfaffSystem(pf.scope, pf.forms, names=("w", "w"))

    @pytest.mark.parametrize(
        "lines, line, message",
        [
            (["kind: pde", "vars: x1 x2", "op l1: @x1", "form w1: d(x2)"], 4,
             "a pde system takes no 'form' line"),
            (["kind: pde", "vars: x1 x2", "completion c1: d(x2)", "op l1: @x1"], 3,
             "a pde system takes no 'completion' line"),
            (["kind: td", "indep: t1", "dep: x1", "vars: t1 x1", "eq x1: 1"], 4,
             "a td system takes no 'vars' line"),
            (["kind: td", "indep: t1", "dep: x1", "eq x1: 1", "op l1: @x1"], 5,
             "a td system takes no 'op' line"),
            (["pivots: x1", "kind: pfaff", "vars: x1 x2", "form w1: d(x1)"], 1,
             "a pfaff system takes no 'pivots' line"),
            (["kind: pfaff", "vars: x1 x2", "form w1: d(x1)", "indep: x2"], 4,
             "a pfaff system takes no 'indep' line"),
            (["kind: pde", "vars: x1 x2", "vars: x1 x2 x3", "op l1: @x1"], 3,
             "repeated 'vars:' line"),
            (["kind: td", "indep: t1", "kind: pde", "vars: t1", "op l1: @t1"], 3,
             "repeated 'kind:' line"),
        ],
    )
    def test_lines_outside_the_kind_rejected(self, lines, line, message):
        with pytest.raises(DslError, match=f"line {line}: {message}"):
            parse_system("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "row, expected",
        [
            ("x^-1*@y", "1/x*@y"),
            ("x*-y*@y + @x", "@x - x*y*@y"),
            ("x*@x - y^-2*@y", "x*@x - 1/(y^2)*@y"),
            ("y/-2*@x + -(x)*@y", "-1/2*y*@x - x*@y"),
            ("x*@x - -@y", "x*@x + @y"),
        ],
    )
    @pytest.mark.parametrize("row_kind", ["op", "form"])
    def test_unary_signs_stay_in_their_term(self, row, expected, row_kind):
        """A sign after ^, *, / or another sign is part of a coefficient."""
        system = parse_system(_two_row_system(row_kind, row))
        if row_kind == "op":
            assert system.pde.operators[1].print() == expected
        else:
            assert system.pfaff.forms[1].print() == _as_form(expected)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x + @y", "term 'x' lacks a @var or d(var) marker"),
            ("(x*@y", "term '(x*@y' lacks a @var or d(var) marker"),
            ("x*@x*@y", "two markers in one term: 'x*@x*@y'"),
            ("x^*@y", "bad coefficient in 'x^*@y'"),
            ("@x +", "row ends in a dangling sign: '@x +'"),
            ("@x - ", "row ends in a dangling sign: '@x -'"),
            ("@x + +", "row ends in a dangling sign: '@x + +'"),
            ("@x + @y -", "row ends in a dangling sign: '@x + @y -'"),
            ("+", "row ends in a dangling sign: '+'"),
            ("-", "row ends in a dangling sign: '-'"),
            ("", "empty row"),
            ("   ", "empty row"),
        ],
    )
    @pytest.mark.parametrize("row_kind", ["op", "form"])
    def test_malformed_rows_rejected_at_their_line(self, row, message, row_kind):
        if row_kind == "form":
            message = _as_form(message)
        with pytest.raises(DslError, match=re.escape(f"line 4: {message}")):
            parse_system(_two_row_system(row_kind, row))

    def test_empty_completion_rejected_and_zero_accepted(self):
        text = "kind: pfaff\nvars: x y z\nform w1: d(x)\ncompletion c1: {}\n"
        with pytest.raises(DslError, match="line 4: empty row"):
            parse_system(text.format(""))
        completion = parse_system(text.format("0")).pfaff.completion
        assert len(completion) == 1 and completion[0].is_zero()

    @pytest.mark.parametrize(
        "lines, line, message",
        [
            (["eq x: x | y"], 6,
             "in equation for 'x': undeclared variable 'y'"),
            (["eq x: x^*t | 1"], 6, "in equation for 'x': "),
            (["eq x: x"], 6, "equation for 'x' needs 2 entries, got 1"),
            (["eq x: 1 | 2", "eq y: 1 | 2"], 7,
             "equation for undeclared dependent 'y'"),
            (["eq x: 1 | 2", "", "eq y: 1 | 2 | 3"], 8,
             "equation for undeclared dependent 'y'"),
            (["# no equations"], 3, "missing equations for ['x']"),
        ],
    )
    def test_equation_errors_at_their_line(self, lines, line, message):
        """Row errors carry the eq row's line, a missing equation the dep:
        line."""
        text = "\n".join(["kind: td", "indep: t s", "dep: x", "", "# c", *lines])
        with pytest.raises(DslError, match=re.escape(f"line {line}: {message}")):
            parse_system(text + "\n")

    @pytest.mark.parametrize(
        "pivots, message",
        [
            ("q", "variable 'q' not declared"),
            ("y", "operators are not in normal form"),
            ("x y", "normal form needs one pivot per operator"),
        ],
    )
    def test_pivot_errors_at_their_line(self, pivots, message):
        text = f"kind: pde\nvars: x y\n\npivots: {pivots}\nop l1: @x + y*@y\n"
        with pytest.raises(DslError, match=re.escape(f"line 4: {message}")):
            parse_system(text)

    @pytest.mark.parametrize("kind", ["td", "pde", "pfaff"])
    def test_kind_must_name_the_present_body(self, kind):
        td = load_fixture("ex_1_7").td
        bodies = {"td": td, "pde": td_to_pde(td), "pfaff": td_to_pfaff(td)}
        other = "pde" if kind == "td" else "td"
        with pytest.raises(SystemError, match=f"kind {kind!r} names a missing body"):
            System(kind=kind, **{other: bodies[other]})

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
        assert not excluded

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

    @pytest.mark.parametrize("name", ["ex_2_10", "ex_2_23", "ex_2_32"])
    def test_leading_pivots_read_the_cached_elimination(self, name, eliminations):
        """Pivots that begin the cached elimination's order, and no pivots,
        normalize without eliminating again."""
        pde = load_fixture(name).pde
        order = [pde.scope.names[c] for _, c in pde.span_solver.elimination.pivots]
        eliminations.clear()
        default = pde_normalize(pde)
        assert pde_normalize(pde, pivots=order[:1]) == default
        assert pde_normalize(pde, pivots=order) == default
        assert eliminations == []

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

    @pytest.mark.parametrize(
        "name", ["ex_4_1", "ex_4_3", "ex_4_6", "ex_4_7", "ex_4_8"]
    )
    def test_default_pivots_passed_explicitly_agree(self, name, eliminations):
        """The default pivots, named explicitly, give the same system and
        locus, read off the forms' cached elimination; both match -A^-1 R of
        the pivot block A by inversion."""
        pf = load_fixture(name).pfaff
        assert pf.m < pf.n
        eliminations.clear()
        td, locus = pfaff_to_td(pf)
        assert pfaff_to_td(pf, pivot_cols=list(td.dep)) == (td, locus)
        assert eliminations == []
        full = echelon(pf.coefficient_matrix())
        assert list(td.dep) == [pf.scope.names[c] for c in full.pivot_cols()]
        _assert_inverts_pivot_block(pf, td, locus)

    def test_every_pivot_set_matches_inversion(self):
        """Each nonsingular pivot pair of ex_4_7 solves to -A^-1 R; each
        singular one is rejected."""
        from itertools import combinations

        pf = load_fixture("ex_4_7").pfaff
        solved_sets = 0
        for pivots in combinations(pf.scope.names, pf.m):
            try:
                td, locus = pfaff_to_td(pf, pivot_cols=list(pivots))
            except SystemError as error:
                assert "singular pivot choice" in str(error)
                with pytest.raises(LinalgError, match="singular"):
                    invert(_columns(pf, pivots))
                continue
            _assert_inverts_pivot_block(pf, td, locus)
            solved_sets += 1
        assert 1 < solved_sets < 6

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
        assert not excluded

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
