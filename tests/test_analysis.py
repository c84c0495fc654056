"""Decision procedures on the worked-example corpus."""

import pytest

from frobenius.analysis import (
    analyze,
    bracket_closure,
    frobenius_td,
    functional_independence,
    integral_basis_dimension,
    operator_family,
    pde_completeness,
    pfaff_closure_check,
    verify_first_integral,
)
from frobenius.expr import Scope
from frobenius.exterior import VectorField
from frobenius.systems import System, pfaff_contragredient

from conftest import load_fixture


class TestFrobenius:
    def test_solvable_system(self):
        assert frobenius_td(load_fixture("ex_1_15").td).complete

    def test_witness_bracket(self):
        td = load_fixture("ex_1_7").td
        result = frobenius_td(td)
        assert not result.complete
        scope = td.scope
        assert result.witness_bracket == VectorField(
            scope, {"x2": scope.parse("3 - x1")}
        )

    def test_commuting_pair(self):
        assert frobenius_td(load_fixture("ex_3_2").td).complete


class TestCompleteness:
    def test_complete_with_certificate(self):
        pde = load_fixture("ex_2_32").pde
        result = pde_completeness(pde)
        assert result.complete and not result.jacobian
        certificate = result.certificates[(0, 1)]
        assert [c.print() for c in certificate.coefficients] == ["1", "0"]

    def test_incomplete_with_witness(self):
        pde = load_fixture("ex_2_10").pde
        result = pde_completeness(pde)
        assert not result.complete
        assert result.witness_pair == (0, 1)
        scope = pde.scope
        expected = VectorField(
            scope,
            {
                "x3": scope.parse("2*x3*x4"),
                "x4": scope.parse("1 - x3^2 + x4^2 - x5^2"),
                "x5": scope.parse("2*x4*x5"),
            },
        )
        assert result.witness_bracket == expected

    def test_completed_system_reports_locus(self):
        closure = bracket_closure(load_fixture("ex_2_10").pde)
        result = pde_completeness(closure.completed)
        assert result.complete
        scope = closure.completed.scope
        assert scope.parse("x3^2 + x4^2 + x5^2 - 1") in result.excluded

    def test_jacobian_flag(self):
        pde = load_fixture("ex_2_31").pde
        result = pde_completeness(pde)
        assert result.complete and result.jacobian


class TestBracketClosure:
    def test_two_step_closure_matches_named_generators(self):
        pde = load_fixture("ex_2_10").pde
        scope = pde.scope
        closure = bracket_closure(pde)
        assert closure.defect == 2
        first = VectorField(
            scope,
            {
                "x3": scope.parse("2*x3*x4"),
                "x4": scope.parse("1 - x3^2 + x4^2 - x5^2"),
                "x5": scope.parse("2*x4*x5"),
            },
        )
        second = VectorField(
            scope,
            {
                "x3": scope.parse("2*x3*x5"),
                "x4": scope.parse("2*x4*x5"),
                "x5": scope.parse("1 - x3^2 - x4^2 + x5^2"),
            },
        )
        assert closure.added[0].operator == first
        assert closure.added[0].describe() == "[l2,l1]"
        assert closure.added[1].operator == second
        assert closure.added[1].describe() == "[l1,g3]"

    def test_single_step_closure(self):
        pde = load_fixture("ex_2_23").pde
        closure = bracket_closure(pde)
        assert closure.defect == 1
        scope = pde.scope
        assert closure.added[0].operator == VectorField(
            scope, {"x4": scope.parse("x4^2"), "x5": scope.parse("x5^2")}
        )

    def test_complete_system_untouched(self):
        closure = bracket_closure(load_fixture("ex_2_32").pde)
        assert closure.defect == 0 and not closure.added

    def test_generator_cap(self):
        pde = load_fixture("ex_2_10").pde
        closure = bracket_closure(pde, max_generators=3)
        assert closure.defect == 1
        assert closure.capped
        # the completed family still holds the generator added at the cap
        assert closure.completed.names == pde.names + ("g3",)
        assert closure.completed.operators[-1] == closure.added[0].operator

    def test_full_rank_at_the_cap_is_not_capped(self):
        # 2 operators on 4 variables close by adding 2: the default cap of 4
        # generators is reached exactly when the family spans every direction
        family, _ = operator_family(load_fixture("ex_3_7"))
        closure = bracket_closure(family)
        assert closure.defect == 2 and len(closure.completed.operators) == 4
        assert not closure.capped

    def test_closure_preserves_verification(self):
        for name, texts in {
            "ex_2_10": ["x3/(1 + x3^2 + x4^2 + x5^2)"],
            "ex_2_23": ["x2/x1", "x3/x1"],
        }.items():
            system = load_fixture(name)
            closure = bracket_closure(system.pde)
            completed = System(kind="pde", pde=closure.completed)
            for text in texts:
                integral = system.scope.parse(text)
                assert verify_first_integral(system, integral).valid
                assert verify_first_integral(completed, integral).valid


class TestDimension:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("ex_1_3", 1),
            ("ex_1_7", 1),
            ("ex_1_15", 3),
            ("ex_2_10", 1),
            ("ex_2_23", 2),
            ("ex_2_31", 3),
            ("ex_2_32", 1),
            ("ex_3_2", 3),
            ("ex_3_7", 0),
            ("ex_3_9", 1),
            ("ex_3_14", 1),
            ("ex_4_1", 2),
            ("ex_4_2", 3),
            ("ex_4_3", 2),
            ("ex_4_6", 1),
            ("ex_4_7", 1),
            ("ex_4_8", 2),
        ],
    )
    def test_dimension_matches_expectations(self, name, expected):
        dimension, _ = integral_basis_dimension(load_fixture(name))
        assert dimension == expected

    def test_square_pde_has_constants_only(self):
        from frobenius.dsl import parse_system

        system = parse_system(
            "kind: pde\nvars: x1 x2\nop l1: @x1\nop l2: x1*@x1 + @x2\n"
        )
        dimension, note = integral_basis_dimension(system)
        assert dimension == 0 and "constants" in note


class TestVerification:
    def test_td_certificate_residuals(self):
        system = load_fixture("ex_1_3")
        integral = system.scope.parse(
            "(1 - x1^2/t1^2 - x2^2 - x3^2)*exp(-2*x1/t1)"
        )
        certificate = verify_first_integral(system, integral)
        assert certificate.valid
        assert len(certificate.residuals) == 2
        assert all(r.is_zero() for r in certificate.residuals)

    def test_invalid_integral_has_point_witness(self):
        system = load_fixture("ex_1_3")
        certificate = verify_first_integral(system, system.scope.var("x1"))
        assert not certificate.valid
        assert certificate.witness_point is not None
        assert certificate.witness_value not in (None, "0")

    def test_pfaff_multipliers(self):
        system = load_fixture("ex_4_1")
        scope = system.scope
        certificate = verify_first_integral(
            system, scope.parse("2*x1^2 + (x3 + x4)^2")
        )
        assert certificate.valid
        assert certificate.multipliers == [
            scope.const(2),
            scope.parse("2*(1 - x2)"),
        ]

    def test_pfaff_invalid_carries_minor(self):
        system = load_fixture("ex_4_6")
        certificate = verify_first_integral(system, system.scope.var("x"))
        assert not certificate.valid
        assert certificate.span is not None
        assert not certificate.span.witness_minor.is_zero()

    def test_scope_mismatch_rejected(self):
        system = load_fixture("ex_4_6")
        other = Scope(["q1"])
        with pytest.raises(Exception, match="undeclared"):
            verify_first_integral(system, other.var("q1"))


class TestFunctionalIndependence:
    def test_power_dependence(self):
        scope = Scope(["x1", "x2"])
        F = scope.parse("x1 + x2")
        rank, independent = functional_independence([F, F * F], scope)
        assert rank == 1 and not independent

    def test_fixture_basis_ranks(self):
        system = load_fixture("ex_2_23")
        scope = system.scope
        rank, independent = functional_independence(
            [scope.parse("x2/x1"), scope.parse("x3/x1")], scope
        )
        assert rank == 2 and independent

    def test_solvable_triple_basis_rank(self):
        system = load_fixture("ex_1_15")
        scope = system.scope
        integrals = [
            scope.parse("t1 - x1"),
            scope.parse("t2 - x2"),
            scope.parse("x1*x2 - x3"),
        ]
        for integral in integrals:
            assert verify_first_integral(system, integral).valid
        rank, independent = functional_independence(integrals, scope)
        assert rank == 3 and independent


class TestPfaffClosure:
    @pytest.mark.parametrize(
        "name,closed",
        [
            ("ex_4_1", True),
            ("ex_4_3", True),
            ("ex_4_6", True),
            ("ex_4_7", False),
            ("ex_4_8", True),
        ],
    )
    def test_methods_agree(self, name, closed):
        pf = load_fixture(name).pfaff
        for method in ("wedge", "contragredient", "both"):
            assert pfaff_closure_check(pf, method).closed is closed

    def test_wedge_witness_for_open_system(self):
        pf = load_fixture("ex_4_7").pfaff
        check = pfaff_closure_check(pf, "wedge")
        assert not check.closed
        j, obstruction = check.wedge_witness
        assert j == 1 and not obstruction.is_zero()

    def test_contragredient_witness_bracket(self):
        pf = load_fixture("ex_4_7").pfaff
        check = pfaff_closure_check(pf, "contragredient")
        scope = pf.scope
        # witnesses are sign normalized; the escaping bracket is +-(dx1 - dx2)
        expected = VectorField(scope, {"x1": -scope.one, "x2": scope.one})
        assert check.completeness.witness_bracket in (expected, -expected)

    def test_square_system_closed(self):
        pf = load_fixture("ex_4_2").pfaff
        check = pfaff_closure_check(pf, "both")
        assert check.closed and check.completeness is None

    def test_check_keeps_the_operator_family_it_closed(self):
        pf = load_fixture("ex_4_6").pfaff
        check = pfaff_closure_check(pf, "contragredient")
        family, excluded = operator_family(System("pfaff", pfaff=pf))
        assert family is pf.contragredient.pde
        assert all(e in check.excluded for e in excluded)

    def test_analyze_builds_one_contragredient(self, monkeypatch):
        import frobenius.systems as systems

        calls = []

        def counting(pf):
            calls.append(pf)
            return pfaff_contragredient(pf)

        monkeypatch.setattr(systems, "pfaff_contragredient", counting)
        report = analyze(load_fixture("ex_4_6"))
        assert report.verdict and len(calls) == 1

    def test_check_and_family_share_one_contragredient(self, monkeypatch):
        """The closure check and every operator_family call read the
        system's cached contragredient."""
        import frobenius.systems as systems

        calls = []

        def counting(pf):
            calls.append(pf)
            return pfaff_contragredient(pf)

        monkeypatch.setattr(systems, "pfaff_contragredient", counting)
        system = load_fixture("ex_4_7")
        pf = system.pfaff
        assert pf.m < pf.n
        pfaff_closure_check(pf, "contragredient")
        first, _ = operator_family(system)
        second, _ = operator_family(system)
        assert first is second is pf.contragredient.pde
        assert len(calls) == 1


class TestAnalyze:
    def test_td_report_fields(self):
        report = analyze(load_fixture("ex_3_2"))
        assert report.kind == "td"
        assert report.verdict_name == "solvable" and report.verdict
        assert report.defect == 0 and report.dimension == 3

    def test_pde_report_with_integral(self):
        system = load_fixture("ex_2_10")
        integral = system.scope.parse("x3/(1 + x3^2 + x4^2 + x5^2)")
        report = analyze(system, integrals=[integral])
        assert not report.verdict and report.defect == 2
        assert report.dimension == 1
        assert report.integrals[0].valid
        assert any(
            e.print() == "x3^2 + x4^2 + x5^2 - 1" for e in report.excluded_locus
        )

    def test_capped_closure_warns_of_bounds(self):
        system = load_fixture("ex_2_10")
        assert analyze(system).warnings == []
        report = analyze(system, max_generators=3)
        assert (report.defect, report.dimension) == (1, 2)
        assert report.warnings == [
            "bracket closure stopped at the generator cap: defect 1 is only "
            "a lower bound and dimension 2 an upper bound"
        ]

    def test_square_pfaff_has_no_operator_family(self):
        assert operator_family(load_fixture("ex_4_2")) == (None, frozenset())

    def test_pfaff_report_with_pivot_trace(self):
        report = analyze(load_fixture("ex_4_8"))
        assert report.verdict and report.dimension == 2

    def test_report_dict_schema(self):
        from frobenius.analysis import report_to_dict

        report = analyze(load_fixture("ex_1_7"))
        payload = report_to_dict(report)
        for key in (
            "kind",
            "vars",
            "rank_ok",
            "verdict",
            "jacobian",
            "defect",
            "dimension",
            "added_generators",
            "excluded_locus",
            "integrals",
            "seed",
        ):
            assert key in payload
        assert payload["verdict"] == {"solvable": False}


class TestBracketReuse:
    """``analyze`` scans each operator pair once: the solvability,
    completeness or closure check is the closure's first round, cached on
    the operator family."""

    @pytest.mark.parametrize("name", ["ex_1_3", "ex_2_10", "ex_2_32", "ex_4_6"])
    def test_each_pair_is_bracketed_once(self, name, monkeypatch):
        calls = []
        bracket = VectorField.bracket

        def counting(self, other):
            calls.append((self, other))
            return bracket(self, other)

        monkeypatch.setattr(VectorField, "bracket", counting)
        report = analyze(load_fixture(name))
        assert calls and len(calls) == len(set(calls))
        assert report.defect == len(report.added_generators)

    @pytest.mark.parametrize("name", ["ex_2_10", "ex_4_7"])
    def test_first_round_runs_once(self, name, eliminations, monkeypatch):
        """One elimination of the family's own operators, and no query twice."""
        from frobenius.linalg import SpanSolver

        queries = []
        query = SpanSolver.query

        def counting_query(self, target):
            generators = self.generators
            rows = tuple(tuple(generators.row(i)) for i in range(generators.rows))
            queries.append((rows, tuple(target)))
            return query(self, target)

        monkeypatch.setattr(SpanSolver, "query", counting_query)
        system = load_fixture(name)
        report = analyze(system)
        if system.kind == "pde":
            family = system.pde
        else:
            family = pfaff_contragredient(system.pfaff).pde
        matrix = family.coefficient_matrix()
        original = tuple(tuple(matrix.row(i)) for i in range(matrix.rows))
        assert report.added_generators
        assert eliminations.count(original) == 1
        assert queries and len(queries) == len(set(queries))

    def test_no_matrix_is_eliminated_twice(self, eliminations, monkeypatch):
        """Parsing and analysing a system eliminates each matrix once.

        Rank checks, default pivots and span queries of one system read the
        cached ``span_solver`` of its forms or operator family.  Covers the
        fixtures with their listed integrals and the seed-1 generated
        workloads with their planted ones.
        """
        import importlib.util
        import json
        import sys

        from conftest import FIXTURES
        from frobenius.dsl import parse_system

        path = FIXTURES.parent / "perfbench" / "generate.py"
        spec = importlib.util.spec_from_file_location("perfbench_generate", path)
        generate = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, generate)
        spec.loader.exec_module(generate)
        cases = []
        for dsys in sorted(FIXTURES.glob("*.dsys")):
            expected = json.loads(
                dsys.with_suffix(".expected.json").read_text(encoding="utf-8")
            )
            integrals = [item["expr"] for item in expected.get("integrals", [])]
            cases.append((dsys.stem, dsys.read_text(encoding="utf-8"), integrals))
        for workload in ("poly_closure", "rational_td"):
            for gen in generate.workload(workload, 1):
                cases.append((gen.name, gen.text, [p.dsl() for p in gen.integrals]))
        assert len(cases) == 17 + 27
        total = 0
        for name, text, integrals in cases:
            eliminations.clear()
            system = parse_system(text, name=name)
            analyze(system, [system.scope.parse(expr) for expr in integrals])
            assert len(eliminations) == len(set(eliminations)), name
            total += len(eliminations)
        assert total <= 98

    def test_pfaff_integrals_share_one_span_solver(self, monkeypatch):
        import frobenius.systems as systems

        built = []

        class Counting(systems.SpanSolver):
            def __init__(self, generators):
                built.append(generators)
                super().__init__(generators)

        monkeypatch.setattr(systems, "SpanSolver", Counting)
        system = load_fixture("ex_4_1")
        scope = system.scope
        verdicts = [
            verify_first_integral(system, scope.parse(text)).valid
            for text in ("2*x1^2 + (x3 + x4)^2", "x1", "x2*x3")
        ]
        assert verdicts == [True, False, False]
        assert len(built) == 1

    def test_td_analyze_builds_one_operator_family(self, monkeypatch):
        """Solvability, closure and every integral read the same operators."""
        import json

        import frobenius.systems as systems
        from conftest import FIXTURES

        built = []
        td_to_pde = systems.td_to_pde

        def counting(td):
            built.append(td)
            return td_to_pde(td)

        monkeypatch.setattr(systems, "td_to_pde", counting)
        system = load_fixture("ex_1_7")
        sidecar = json.loads((FIXTURES / "ex_1_7.expected.json").read_text())
        texts = [item["expr"] for item in sidecar["integrals"]] + ["x1"]
        report = analyze(system, [system.scope.parse(t) for t in texts])
        assert len(report.integrals) == len(texts) >= 2
        assert built == [system.td]


class TestDimensionBounds:
    def test_valid_independent_integrals_never_exceed_dimension(self):
        import property_suites as suites

        for name, texts in sorted(suites.FIXTURE_INTEGRALS.items()):
            system = load_fixture(name)
            integrals = [system.scope.parse(t) for t in texts]
            for integral in integrals:
                assert verify_first_integral(system, integral).valid
            rank, _ = functional_independence(integrals, system.scope)
            dimension, _ = integral_basis_dimension(system)
            assert rank <= dimension
            assert dimension >= 0


class TestSolvabilityTransfer:
    @pytest.mark.parametrize(
        "name",
        [
            "ex_1_3",
            "ex_1_7",
            "ex_1_15",
            "ex_3_2",
            "ex_3_7",
            "ex_3_9",
            "ex_3_14",
        ],
    )
    def test_td_solvable_iff_associated_pde_complete(self, name):
        from frobenius.systems import td_to_pde

        td = load_fixture(name).td
        solvable = frobenius_td(td).complete
        complete = pde_completeness(td_to_pde(td)).complete
        assert solvable == complete
