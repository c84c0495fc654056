"""Decision procedures: solvability, completeness, closure, defect,
integral-basis dimension, and first-integral verification with certificates.

Solvability, completeness and closure are one pairwise bracket scan
(``_scan``), which stops at the first bracket outside the operators' span.
Completeness is the scan of a PDE system's operators.  Complete solvability
is the scan of the operators of differentiation, whose brackets have no d/dt
part and so lie in their span only when they vanish.  Bracket closure adds
each failing bracket as a generator and rescans until complete (or the
variable-count cap), and the number added is the system's defect.  Each
``PdeSystem`` caches its first scan (``bracket_scan``), which a check and
the closure after it share, and its span solver, which every round's span
queries read.  Each round's family is built once, and the last is the
closure's ``completed`` family: no family's matrix is eliminated twice.
``operator_family`` is the one way to the PDE family whose closure gives the
defect: a Pfaff system's is its cached contragredient, which the closure
check, ``analyze`` and the CLI all read, so it is built once per system.
``dimension_from_defect`` holds the one dimension rule per kind: n - m - defect
for PDE systems (0 when m = n), n - defect for total differential systems,
m - defect for Pfaff systems (n when m = n).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import AbstractSet, Sequence

from .expr import Expr, Point, Scope
from .exterior import KForm, VectorField, differential
from .linalg import (
    ExprMatrix,
    SpanCertificate,
    generic_rank,
    locus_texts,
    nonzero_value,
    sample_points,
)
from .systems import (
    PdeSystem,
    PfaffSystem,
    System,
    SystemError,
    TdSystem,
)

__all__ = [
    "CompletenessResult",
    "ClosureResult",
    "ClosureStep",
    "IntegralCertificate",
    "ClosureCheck",
    "AnalysisReport",
    "MethodDisagreement",
    "frobenius_td",
    "pde_completeness",
    "bracket_closure",
    "operator_family",
    "dimension_from_defect",
    "integral_basis_dimension",
    "verify_first_integral",
    "functional_independence",
    "pfaff_closure_check",
    "analyze",
    "report_to_dict",
]


class MethodDisagreement(RuntimeError):
    """The wedge and contragredient closure checks disagreed (a bug)."""


def _orient(field_: VectorField) -> tuple[VectorField, bool]:
    """Flip a field's sign so its first nonzero coefficient leads positive."""
    for name in field_.scope.names:
        coeff = field_.coefficient(name)
        if coeff.is_zero():
            continue
        if coeff.leading_sign() > 0:
            return field_, False
        return -field_, True
    return field_, False


@dataclass(frozen=True)
class CompletenessResult:
    """Outcome of a pairwise bracket scan with validated certificates.

    ``certificates`` and ``brackets`` hold the span certificate and the
    bracket of each scanned pair, by operator index pair; a zero bracket is
    a member with zero coefficients.  An incomplete scan stops at its
    witness pair, and ``rank`` is the rank of the operators' span solver.
    """

    complete: bool
    jacobian: bool
    certificates: dict[tuple[int, int], SpanCertificate]
    witness_pair: tuple[int, int] | None = None
    witness_bracket: VectorField | None = None
    excluded: frozenset[Expr] = frozenset()
    brackets: dict[tuple[int, int], VectorField] = field(default_factory=dict)
    rank: int | None = None


def _scan(
    family: PdeSystem,
    resolved: AbstractSet[tuple[int, int]] = frozenset(),
) -> CompletenessResult:
    """Bracket a family's operators pairwise until one leaves their span.

    Pairs run in lexicographic order, skipping those in ``resolved``.  A
    nonzero bracket is queried against the family's cached solver
    (``PdeSystem.span_solver``), so the scan eliminates no matrix of its
    own.  The witness is the bracket as computed, [L_i, L_j]; jacobian
    means every scanned bracket is zero.
    """
    operators = family.operators
    zero = family.scope.zero
    certificates: dict[tuple[int, int], SpanCertificate] = {}
    brackets: dict[tuple[int, int], VectorField] = {}
    excluded: frozenset[Expr] = frozenset()
    for i in range(len(operators)):
        for j in range(i + 1, len(operators)):
            if (i, j) in resolved:
                continue
            bracket = brackets[(i, j)] = operators[i].bracket(operators[j])
            if bracket.is_zero():
                certificates[(i, j)] = SpanCertificate(
                    member=True, coefficients=[zero] * len(operators)
                )
                continue
            certificate = family.span_solver.query(bracket.coefficient_row())
            certificates[(i, j)] = certificate
            excluded |= certificate.excluded
            if not certificate.member:
                return CompletenessResult(
                    complete=False,
                    jacobian=False,
                    certificates=certificates,
                    witness_pair=(i, j),
                    witness_bracket=bracket,
                    excluded=excluded,
                    brackets=brackets,
                    rank=family.span_solver.rank,
                )
    jacobian = all(bracket.is_zero() for bracket in brackets.values())
    return CompletenessResult(
        True, jacobian, certificates, excluded=excluded, brackets=brackets
    )


def frobenius_td(td: TdSystem) -> CompletenessResult:
    """Complete solvability: all pairwise brackets must vanish.

    A bracket of operators of differentiation has no d/dt part, so it lies
    in their span only when it is zero: the family's cached bracket scan
    decides, and its witness is the bracket as computed.
    """
    return td.family.bracket_scan


def pde_completeness(pde: PdeSystem) -> CompletenessResult:
    """Each bracket must be a combination of the system's operators.

    The system's cached bracket scan, with the witness sign normalised.
    """
    scan = pde.bracket_scan
    if scan.witness_bracket is None:
        return scan
    return replace(scan, witness_bracket=_orient(scan.witness_bracket)[0])


@dataclass
class ClosureStep:
    """One generator added during closure: the bracket [left, right] of two
    earlier generators, ordered so its first nonzero coefficient leads
    positive."""

    name: str
    pair_names: tuple[str, str]
    operator: VectorField

    def describe(self) -> str:
        return "[{},{}]".format(*self.pair_names)

    def to_dict(self) -> dict:
        """The JSON entry under ``added_generators``."""
        return {
            "name": self.name,
            "from": self.describe(),
            "operator": self.operator.print(),
        }


@dataclass
class ClosureResult:
    """Outcome of bracket closure.

    ``completed`` is the last round's family: the input's operators and
    names followed by each added generator, with its span solver already
    built when that round's scan queried it.
    """

    added: list[ClosureStep]
    defect: int
    completed: PdeSystem
    excluded: frozenset[Expr] = frozenset()
    capped: bool = False


def bracket_closure(
    pde: PdeSystem, max_generators: int | None = None
) -> ClosureResult:
    """Add failing brackets as generators until complete (or capped).

    Each round is a bracket scan of the current family that skips the pairs
    earlier rounds resolved (membership survives span growth), and the first
    round is pde's cached scan, so each pair is bracketed once.  A round's
    witness, sign normalized (first nonzero coefficient leads positive),
    extends the family by one generator, built once as a ``PdeSystem`` whose
    solver the next round's scan reads; the last family is ``completed``.
    An added generator is named g{k} for the first k >= the new generator
    count whose name the family has not taken.
    """
    scope = pde.scope
    cap = max_generators if max_generators is not None else len(scope)
    cap = max(cap, pde.m)
    family = PdeSystem(scope, pde.operators, names=pde.names)
    added: list[ClosureStep] = []
    excluded: frozenset[Expr] = frozenset()
    resolved: set[tuple[int, int]] = set()
    capped = False
    scan = pde.bracket_scan
    while True:
        excluded |= scan.excluded
        if scan.complete:
            break
        i, j = scan.witness_pair
        operator, negated = _orient(scan.witness_bracket)
        names = family.names
        k = len(names) + 1
        while f"g{k}" in names:
            k += 1
        name = f"g{k}"
        pair = (names[j], names[i]) if negated else (names[i], names[j])
        added.append(ClosureStep(name, pair, operator))
        family = PdeSystem(
            scope, family.operators + (operator,), names=names + (name,)
        )
        if family.m >= cap:
            # cut off unless the family already spans all n directions
            capped = scan.rank + 1 < len(scope)
            break
        resolved.update(scan.certificates)
        scan = _scan(family, resolved)
    return ClosureResult(
        added=added,
        defect=len(added),
        completed=family,
        excluded=excluded,
        capped=capped,
    )


def operator_family(system: System) -> tuple[PdeSystem | None, frozenset[Expr]]:
    """The PDE family whose common solutions are the system's first integrals.

    A PDE system is its own family, a total differential system gives its
    operators of differentiation (``TdSystem.family``), and a Pfaff system
    with m < n the operators dual to a frame completion (its cached
    ``PfaffSystem.contragredient``).  The family's excluded locus comes
    alongside: empty unless the family divides by the frame's pivots.  A
    square Pfaff system has no family: its coordinates are integrals.
    """
    if system.kind == "pde":
        return system.pde, frozenset()
    if system.kind == "td":
        return system.td.family, frozenset()
    pf = system.pfaff
    if pf.m == pf.n:
        return None, frozenset()
    contragredient = pf.contragredient
    return contragredient.pde, contragredient.excluded


def dimension_from_defect(system: System, defect: int) -> tuple[int, str]:
    """Dimension of the basis of first integrals, with a derivation note."""
    if system.kind == "td":
        td = system.td
        return td.n - defect, f"{td.n} dependents - defect {defect}"
    if system.kind == "pde":
        pde = system.pde
        if pde.m == pde.n:
            return 0, "as many operators as variables: constants only"
        return pde.n - pde.m - defect, (
            f"{pde.n} variables - {pde.m} operators - defect {defect}"
        )
    pf = system.pfaff
    if pf.m == pf.n:
        return pf.n, "square nonsingular system: coordinate integrals"
    return pf.m - defect, f"{pf.m} forms - dual-system defect {defect}"


def integral_basis_dimension(system: System) -> tuple[int, str]:
    """Dimension of the basis of first integrals, with a derivation note.

    Runs its own bracket closure of the system's operator family; only the
    family's cached first scan is shared with ``analyze``.
    """
    family, _ = operator_family(system)
    defect = bracket_closure(family).defect if family is not None else 0
    return dimension_from_defect(system, defect)


@dataclass
class IntegralCertificate:
    """Validated verdict on a candidate first integral."""

    integral: Expr
    valid: bool
    residuals: list[Expr] | None = None  # td / pde
    multipliers: list[Expr] | None = None  # pfaff expansion coefficients
    span: SpanCertificate | None = None
    witness_point: Point | None = None
    witness_value: str | None = None
    excluded: frozenset[Expr] = frozenset()

    def to_dict(self) -> dict:
        """The JSON entry under ``integrals``, for ``analyze`` and ``verify``."""
        entry: dict = {
            "expr": self.integral.print(),
            "verdict": "valid" if self.valid else "invalid",
        }
        if self.residuals is not None:
            entry["residuals"] = [r.print() for r in self.residuals]
        if self.multipliers is not None:
            entry["multipliers"] = [c.print() for c in self.multipliers]
        if self.witness_point is not None:
            entry["witness_point"] = {
                name: str(value)
                for name, value in sorted(self.witness_point.assignment.items())
            }
            entry["witness_value"] = self.witness_value
        if self.span is not None and not self.span.member:
            entry["witness_minor"] = {
                "rows": self.span.witness_rows,
                "cols": self.span.witness_cols,
                "minor": self.span.witness_minor.print(),
            }
        return entry


def verify_first_integral(
    system: System, integral: Expr, seed: int = 0
) -> IntegralCertificate:
    """Check annihilation (td/pde) or span membership of dF (pfaff)."""
    scope = system.scope
    unknown = integral.variables() - set(scope.names)
    if unknown:
        raise SystemError(f"integral references undeclared {sorted(unknown)}")
    integral = scope.lift(integral)
    if system.kind in ("td", "pde"):
        family, _ = operator_family(system)
        residuals = [op.apply(integral) for op in family.operators]
        if all(r.is_zero() for r in residuals):
            return IntegralCertificate(integral, True, residuals=residuals)
        point, value = _nonzero_witness(residuals, scope, seed)
        return IntegralCertificate(
            integral,
            False,
            residuals=residuals,
            witness_point=point,
            witness_value=value,
        )
    pf = system.pfaff
    target = differential(integral).coefficient_row()
    certificate = pf.span_solver.query(target)
    return IntegralCertificate(
        integral,
        certificate.member,
        multipliers=certificate.coefficients,  # None off the span
        span=certificate,
        excluded=certificate.excluded,
    )


def _nonzero_witness(
    residuals: Sequence[Expr], scope: Scope, seed: int = 0
) -> tuple[Point | None, str | None]:
    """A sample point where some residual provably does not vanish."""
    nonzero = [r for r in residuals if not r.is_zero()]
    avoid = {r.denominator() for r in nonzero}  # a constant never vanishes
    for attempt in range(8):
        for point in sample_points(scope, 4, seed=seed * 997 + attempt, avoid=avoid):
            for r in nonzero:
                value = nonzero_value(r, point)
                if value is not None:
                    return point, value
    return None, None


def functional_independence(
    integrals: Sequence[Expr], scope: Scope
) -> tuple[int, bool]:
    """Generic rank of the Jacobi matrix of the given functions."""
    if not integrals:
        return 0, True
    rows = []
    for integral in integrals:
        lifted = scope.lift(integral)
        rows.append([lifted.diff(name) for name in scope.names])
    rank = generic_rank(ExprMatrix.from_rows(rows))
    return rank, rank == len(integrals)


@dataclass
class ClosureCheck:
    """Pfaff closure verdict with per-method witnesses.

    ``completeness`` is the contragredient route's scan (None for the wedge
    route alone or a square system), and ``excluded`` that route's locus.
    """

    closed: bool
    wedge_witness: tuple[int, KForm] | None = None
    completeness: CompletenessResult | None = None
    excluded: frozenset[Expr] = frozenset()


def pfaff_closure_check(pf: PfaffSystem, method: str = "both") -> ClosureCheck:
    """Closure via exterior products, the dual operators, or both.

    The wedge route tests d(w_j) ^ w_1 ^ ... ^ w_m = 0 for every j; the
    contragredient route tests completeness of the dual operator system,
    read from ``pf.contragredient`` (a square system is closed).  With
    method='both' any disagreement raises, since the two criteria are
    equivalent.
    """
    if method not in ("wedge", "contragredient", "both"):
        raise SystemError(f"unknown closure method {method!r}")
    wedge_verdict = None
    wedge_witness = None
    if method in ("wedge", "both"):
        wedge_verdict = True
        product = pf.forms[0]
        for form in pf.forms[1:]:
            product = product.wedge(form)
        for j, form in enumerate(pf.forms):
            obstruction = form.d().wedge(product)
            if not obstruction.is_zero():
                wedge_verdict = False
                wedge_witness = (j, obstruction)
                break
    contra_verdict = None
    completeness = None
    excluded: frozenset[Expr] = frozenset()
    if method in ("contragredient", "both"):
        if pf.m == pf.n:
            contra_verdict = True  # square case: coordinate integrals exist
        else:
            completeness = pde_completeness(pf.contragredient.pde)
            excluded = pf.contragredient.excluded | completeness.excluded
            contra_verdict = completeness.complete
    if method == "both" and wedge_verdict != contra_verdict:
        raise MethodDisagreement(
            f"wedge says {'closed' if wedge_verdict else 'not closed'}, "
            f"dual operators say {'closed' if contra_verdict else 'not closed'}"
        )
    return ClosureCheck(
        contra_verdict if wedge_verdict is None else wedge_verdict,
        wedge_witness=wedge_witness,
        completeness=completeness,
        excluded=excluded,
    )


@dataclass
class AnalysisReport:
    """Machine-readable verdict for one system."""

    kind: str
    variables: list[str]
    rank_ok: bool
    verdict_name: str  # solvable | complete | closed
    verdict: bool
    jacobian: bool | None
    defect: int
    dimension: int
    dimension_note: str
    added_generators: list[ClosureStep]
    excluded_locus: frozenset[Expr]
    integrals: list[IntegralCertificate]
    seed: int
    warnings: list[str] = field(default_factory=list)
    witness: str | None = None


def analyze(
    system: System,
    integrals: Sequence[Expr] = (),
    seed: int = 0,
    method: str = "both",
    max_generators: int | None = None,
) -> AnalysisReport:
    """Run the kind-appropriate battery and aggregate certified results."""
    family, excluded = operator_family(system)
    excluded |= system.excluded_locus
    warnings = list(system.warnings)
    witness = None
    jacobian: bool | None = None

    if system.kind == "td":
        rank_ok = True
        check = frobenius_td(system.td)
        verdict_name, verdict = "solvable", check.complete
        jacobian = check.complete
        if check.witness_bracket is not None:
            witness = check.witness_bracket.print()
    elif system.kind == "pde":
        rank_ok = system.pde.validate_rank()
        check = pde_completeness(system.pde)
        verdict_name, verdict = "complete", check.complete
        jacobian = check.jacobian
        if check.witness_bracket is not None:
            witness = check.witness_bracket.print()
    else:
        pf = system.pfaff
        rank_ok = pf.validate_rank()
        check = pfaff_closure_check(pf, method=method)
        verdict_name, verdict = "closed", check.closed
        if check.wedge_witness is not None:
            j, obstruction = check.wedge_witness
            witness = f"d({pf.names[j]}) wedge forms = {obstruction.print()}"
        elif check.completeness and check.completeness.witness_bracket is not None:
            witness = check.completeness.witness_bracket.print()

    defect, added, capped = 0, [], False
    if family is not None:
        closure = bracket_closure(family, max_generators=max_generators)
        excluded |= closure.excluded
        defect, added, capped = closure.defect, closure.added, closure.capped
    dimension, note = dimension_from_defect(system, defect)
    if capped:
        warnings.append(
            f"bracket closure stopped at the generator cap: defect {defect} "
            f"is only a lower bound and dimension {dimension} an upper bound"
        )

    certificates = []
    for integral in integrals:
        certificate = verify_first_integral(system, integral, seed=seed)
        excluded |= certificate.excluded
        certificates.append(certificate)

    return AnalysisReport(
        kind=system.kind,
        variables=list(system.scope.names),
        rank_ok=rank_ok,
        verdict_name=verdict_name,
        verdict=verdict,
        jacobian=jacobian,
        defect=defect,
        dimension=dimension,
        dimension_note=note,
        added_generators=added,
        excluded_locus=excluded,
        integrals=certificates,
        seed=seed,
        warnings=warnings,
        witness=witness,
    )


def report_to_dict(report: AnalysisReport) -> dict:
    """Stable JSON-ready rendering of an analysis report."""
    return {
        "kind": report.kind,
        "vars": report.variables,
        "rank_ok": report.rank_ok,
        "verdict": {report.verdict_name: report.verdict},
        "jacobian": report.jacobian,
        "defect": report.defect,
        "dimension": report.dimension,
        "dimension_note": report.dimension_note,
        "witness": report.witness,
        "added_generators": [step.to_dict() for step in report.added_generators],
        "excluded_locus": locus_texts(report.excluded_locus),
        "integrals": [certificate.to_dict() for certificate in report.integrals],
        "seed": report.seed,
        "warnings": report.warnings,
    }
