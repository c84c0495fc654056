"""The three system kinds and the integrally equivalent conversions.

A total differential system relates dependent differentials to independent
ones (dx = X dt); a PDE system is a list of first-order operators annihilating
an unknown scalar; a Pfaff system is a list of 1-form equations.  Conversions
preserve first integrals; every pivot choice they make is recorded in an
excluded locus attached to the result.  A PDE or Pfaff system's coefficient
matrix is eliminated once, by its cached ``span_solver``: the rank check,
the default pivots, the solved total differential form and every span query
read that one result, and a normal form reads it whenever it is built.  A
Pfaff system's dual operator family is built once as well, by its cached
``contragredient``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .expr import Expr, ExprError, Scope
from .exterior import KForm, VectorField, differential
from .linalg import (
    ExprMatrix,
    LinalgError,
    SpanSolver,
    echelon,
    invert,
)

if TYPE_CHECKING:
    from .analysis import CompletenessResult

__all__ = [
    "TdSystem",
    "PdeSystem",
    "PfaffSystem",
    "System",
    "SystemError",
    "Contragredient",
    "td_to_pde",
    "pde_normalize",
    "normal_pde_to_td",
    "td_to_pfaff",
    "pfaff_to_td",
    "pfaff_contragredient",
    "pfaff_reduce_by_integrals",
    "td_defect_reduction",
]


class SystemError(ValueError):
    """Structurally invalid system or conversion request."""


@dataclass(frozen=True)
class TdSystem:
    """dx_i = sum_j X[i][j] dt_j with scope ordered independents-first."""

    indep: tuple[str, ...]
    dep: tuple[str, ...]
    entries: tuple[tuple[Expr, ...], ...]  # dep rows x indep columns

    def __post_init__(self):
        if not self.indep or not self.dep:
            raise SystemError("need at least one independent and one dependent")
        if set(self.indep) & set(self.dep):
            raise SystemError("independent and dependent variables overlap")
        if len(self.entries) != len(self.dep) or any(
            len(row) != len(self.indep) for row in self.entries
        ):
            raise SystemError("entry shape does not match variable lists")

    @property
    def scope(self) -> Scope:
        return self.entries[0][0].scope

    @property
    def m(self) -> int:
        return len(self.indep)

    @property
    def n(self) -> int:
        return len(self.dep)

    def warnings(self) -> list[str]:
        if self.m > self.n:
            return [
                "more independent than dependent variables "
                f"(m={self.m} > n={self.n})"
            ]
        return []

    @cached_property
    def family(self) -> PdeSystem:
        """The operators of differentiation (``td_to_pde``), built once."""
        return td_to_pde(self)


@dataclass(frozen=True)
class PdeSystem:
    """First-order operators L_j annihilating an unknown scalar.

    The operators' coefficient matrix is eliminated once (``span_solver``);
    the rank check, the normal form (``pde_normalize``) and the bracket
    scan's span queries read that solver.
    """

    scope: Scope
    operators: tuple[VectorField, ...]
    names: tuple[str, ...] = ()
    normal_pivots: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.operators:
            raise SystemError("a PDE system needs at least one operator")
        if not self.names:
            object.__setattr__(
                self,
                "names",
                tuple(f"l{j + 1}" for j in range(len(self.operators))),
            )
        if len(self.names) != len(self.operators):
            raise SystemError("operator name count mismatch")
        if len(set(self.names)) != len(self.names):
            raise SystemError("duplicate operator name")
        if self.normal_pivots is not None:
            self._check_normal()

    def _check_normal(self):
        pivots = self.normal_pivots
        if len(pivots) != len(self.operators):
            raise SystemError("normal form needs one pivot per operator")
        for j, op in enumerate(self.operators):
            for i, pivot in enumerate(pivots):
                expected = self.scope.one if i == j else self.scope.zero
                if not (op.coefficient(pivot) - expected).is_zero():
                    raise SystemError("operators are not in normal form")

    @property
    def m(self) -> int:
        return len(self.operators)

    @property
    def n(self) -> int:
        return len(self.scope)

    def coefficient_matrix(self) -> ExprMatrix:
        return ExprMatrix.from_rows([op.coefficient_row() for op in self.operators])

    @cached_property
    def span_solver(self) -> SpanSolver:
        """The solver of span queries against the operators, built once."""
        return SpanSolver(self.coefficient_matrix())

    @cached_property
    def bracket_scan(self) -> CompletenessResult:
        """The pairwise bracket scan of the operators, run once.

        Completeness, solvability and the first round of bracket closure
        all read it (``frobenius.analysis``).
        """
        from .analysis import _scan

        return _scan(self)

    def validate_rank(self) -> bool:
        return self.span_solver.rank == self.m

    def normal_rhs(self) -> dict[str, dict[str, Expr]]:
        """Solved form per pivot: pivot -> {other var -> coefficient}.

        The solved equation reads d_pivot y = sum(coeff * d_var y), i.e. the
        coefficients are the negated non-pivot operator coefficients.
        """
        if self.normal_pivots is None:
            raise SystemError("system is not in normal form")
        out: dict[str, dict[str, Expr]] = {}
        for pivot, op in zip(self.normal_pivots, self.operators):
            row = {}
            for name in self.scope.names:
                if name in self.normal_pivots:
                    continue
                coeff = op.coefficient(name)
                if not coeff.is_zero():
                    row[name] = -coeff
            out[pivot] = row
        return out


@dataclass(frozen=True)
class PfaffSystem:
    """1-form equations w_j = 0.

    The forms' coefficient matrix is eliminated once (``span_solver``); the
    rank check, the contragredient's default completion, the solved total
    differential form (``pfaff_to_td``) and every span query of a first
    integral's differential read that solver.  The dual operator family is
    built once too (``contragredient``): the closure check reads it, and
    ``analyze`` and the CLI reach it through ``analysis.operator_family``.
    """

    scope: Scope
    forms: tuple[KForm, ...]
    names: tuple[str, ...] = ()
    completion: tuple[KForm, ...] | None = None

    def __post_init__(self):
        if not self.forms:
            raise SystemError("a Pfaff system needs at least one form")
        for form in self.forms:
            if form.degree != 1:
                raise SystemError("Pfaff systems are built from 1-forms")
        if not self.names:
            object.__setattr__(
                self,
                "names",
                tuple(f"w{j + 1}" for j in range(len(self.forms))),
            )
        if len(self.names) != len(self.forms):
            raise SystemError("form name count mismatch")
        if len(set(self.names)) != len(self.names):
            raise SystemError("duplicate form name")

    @property
    def m(self) -> int:
        return len(self.forms)

    @property
    def n(self) -> int:
        return len(self.scope)

    def coefficient_matrix(self) -> ExprMatrix:
        return ExprMatrix.from_rows([form.coefficient_row() for form in self.forms])

    @cached_property
    def span_solver(self) -> SpanSolver:
        """The solver of span queries against the forms, built once."""
        return SpanSolver(self.coefficient_matrix())

    def validate_rank(self) -> bool:
        return self.span_solver.rank == self.m

    @cached_property
    def contragredient(self) -> Contragredient:
        """The completed frame and its dual operators, built once (m < n)."""
        return pfaff_contragredient(self)


@dataclass
class System:
    """Tagged union of the three kinds plus source metadata."""

    kind: str  # td | pde | pfaff
    td: TdSystem | None = None
    pde: PdeSystem | None = None
    pfaff: PfaffSystem | None = None
    name: str = ""
    source: str = ""
    excluded_locus: frozenset[Expr] = frozenset()
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        bodies = [self.td, self.pde, self.pfaff]
        if sum(body is not None for body in bodies) != 1:
            raise SystemError("exactly one system variant must be present")
        if self.kind not in ("td", "pde", "pfaff"):
            raise SystemError(f"unknown system kind {self.kind!r}")
        if getattr(self, self.kind) is None:
            raise SystemError(f"kind {self.kind!r} names a missing body")

    @property
    def body(self) -> TdSystem | PdeSystem | PfaffSystem:
        return self.td or self.pde or self.pfaff

    @property
    def scope(self) -> Scope:
        return self.body.scope


def td_to_pde(td: TdSystem) -> PdeSystem:
    """Operators of differentiation d/dt_j + sum_i X[i][j] d/dx_i on the
    joint scope."""
    scope = td.scope
    operators = []
    for j, t_name in enumerate(td.indep):
        coeffs = {t_name: scope.one}
        for i, x_name in enumerate(td.dep):
            coeffs[x_name] = td.entries[i][j]
        operators.append(VectorField(scope, coeffs))
    return PdeSystem(scope, tuple(operators))


def pde_normalize(
    pde: PdeSystem, pivots: Sequence[str] | None = None
) -> tuple[PdeSystem, frozenset[Expr]]:
    """Solve the operators for a nonsingular pivot set (normal form).

    Returns the normalized system (operators reordered by pivot variable)
    and the excluded locus of the elimination.  Already-normal systems pass
    through untouched when no pivot preference is given.  A family whose
    ``span_solver`` is built (parsing and closure scans build it) is read
    when the pivots begin its order, as no pivots do: forcing the pivot
    rule's own pick changes nothing.  Otherwise only the operator matrix is
    eliminated, and no solver is built.
    """
    if pde.normal_pivots is not None and pivots is None:
        return pde, frozenset()
    if pde.m > pde.n:
        raise SystemError("cannot normalize: more operators than variables")
    scope = pde.scope
    prefer = []
    if pivots is not None:
        undeclared = [name for name in pivots if name not in scope.names]
        if undeclared:
            raise SystemError(f"pivots name undeclared variables {undeclared}")
        if len(set(pivots)) != len(pivots):
            raise SystemError("pivots must be distinct")
        if len(pivots) > pde.m:
            raise SystemError(f"{len(pivots)} pivots for {pde.m} operators")
        prefer = [scope.index(name) for name in pivots]
    # the cached elimination, if the family holds one
    result = getattr(pde.__dict__.get("span_solver"), "elimination", None)
    if result is None or [c for _, c in result.pivots[: len(prefer)]] != prefer:
        try:
            result = echelon(pde.coefficient_matrix(), prefer_cols=prefer)
        except LinalgError as error:
            raise SystemError(str(error)) from error
    if result.rank < pde.m:
        raise SystemError(
            "no generically nonsingular pivot minor (operators linearly bound)"
        )
    ordered = sorted(result.pivots, key=lambda rc: rc[1])
    operators = []
    pivot_names = []
    for r, c in ordered:
        pivot_names.append(scope.names[c])
        coeffs = {
            name: result.work[r][i] for i, name in enumerate(scope.names)
        }
        operators.append(VectorField(scope, coeffs))
    normalized = PdeSystem(
        scope,
        tuple(operators),
        names=tuple(f"n{k + 1}" for k in range(len(operators))),
        normal_pivots=tuple(pivot_names),
    )
    return normalized, result.excluded


def normal_pde_to_td(pde: PdeSystem) -> TdSystem:
    """Associated total differential system of a normal PDE system."""
    if pde.normal_pivots is None:
        raise SystemError("conversion requires a normal-form system")
    pivots = list(pde.normal_pivots)
    indep = [name for name in pde.scope.names if name in pivots]
    dep = [name for name in pde.scope.names if name not in pivots]
    if not dep:
        raise SystemError("normal system has no non-pivot variables")
    scope = Scope(tuple(indep) + tuple(dep))
    op_for_pivot = dict(zip(pivots, pde.operators))
    rows = []
    for x_name in dep:
        row = []
        for t_name in indep:
            row.append(scope.lift(op_for_pivot[t_name].coefficient(x_name)))
        rows.append(tuple(row))
    return TdSystem(tuple(indep), tuple(dep), tuple(rows))


def td_to_pfaff(td: TdSystem) -> PfaffSystem:
    """Forms d(x_i) - sum_j X[i][j] d(t_j) on the joint scope."""
    scope = td.scope
    forms = []
    for i, x_name in enumerate(td.dep):
        terms = {(x_name,): scope.one}
        for j, t_name in enumerate(td.indep):
            terms[(t_name,)] = -td.entries[i][j]
        forms.append(KForm(scope, 1, terms))
    return PfaffSystem(scope, tuple(forms))


def pfaff_to_td(
    pf: PfaffSystem, pivot_cols: Sequence[str] | None = None
) -> tuple[TdSystem, frozenset[Expr]]:
    """Solve the forms for m differentials, yielding dx_pivot = X d(rest).

    Eliminating the form matrix with pivots in the pivot columns only leaves
    A^-1 R in the rest columns of the reduced rows: A is the pivot block and
    R the rest.  The default pivots are those of the forms' cached
    elimination (``span_solver``), which is read whenever the pivot set is
    its own: pivoting in its pivot columns only picks the same pivots.
    """
    scope = pf.scope
    solver = pf.span_solver
    if pivot_cols is None:
        if solver.rank < pf.m:
            raise SystemError("forms are linearly bound; cannot solve")
        pivot_names = [scope.names[c] for _, c in solver.pivots]
    else:
        if len(pivot_cols) != pf.m:
            raise SystemError(f"need exactly {pf.m} pivot columns")
        pivot_names = [name for name in scope.names if name in pivot_cols]
        if len(pivot_names) != len(pivot_cols):
            raise SystemError("pivot columns must be distinct declared variables")
    rest_names = [name for name in scope.names if name not in pivot_names]
    if not rest_names:
        raise SystemError("no remaining columns to act as independents")
    columns = [scope.index(name) for name in pivot_names]
    result = solver.elimination
    if columns != [c for _, c in solver.pivots]:
        result = echelon(pf.coefficient_matrix(), eligible=columns)
    if result.rank < pf.m:
        raise SystemError(
            "singular pivot choice: matrix is singular over the function field"
        )
    row_of = {c: r for r, c in result.pivots}
    rest = [scope.index(name) for name in rest_names]
    new_scope = Scope(tuple(rest_names) + tuple(pivot_names))
    rows = tuple(
        tuple(-new_scope.lift(result.work[row_of[c]][j]) for j in rest)
        for c in columns
    )
    td = TdSystem(tuple(rest_names), tuple(pivot_names), rows)
    return td, result.excluded


@dataclass
class Contragredient:
    """Completion of a Pfaff system to a frame plus the dual operators."""

    extended_forms: tuple[KForm, ...]
    operators: tuple[VectorField, ...]
    pde: PdeSystem
    excluded: frozenset[Expr]


def pfaff_contragredient(pf: PfaffSystem) -> Contragredient:
    """Extend the forms to a coframe and invert to get dual operators.

    The completion is the system's own (``completion`` lines of its file),
    else coordinate differentials on the columns left free by the pivots of
    its cached ``span_solver``.  The returned PDE system consists of the
    operators dual to the added forms; a scalar is a first integral of the
    Pfaff system exactly when those operators annihilate it.  Callers read
    it once per system through ``PfaffSystem.contragredient``.
    """
    scope = pf.scope
    if pf.m >= pf.n:
        raise SystemError("contragredient construction needs m < n")
    completion = pf.completion
    if completion is None:
        if pf.span_solver.rank < pf.m:
            raise SystemError("forms are linearly bound")
        pivot_cols = {c for _, c in pf.span_solver.pivots}
        completion = [
            KForm(scope, 1, {(name,): scope.one})
            for i, name in enumerate(scope.names)
            if i not in pivot_cols
        ]
    if len(completion) != pf.n - pf.m:
        raise SystemError(
            f"completion must supply {pf.n - pf.m} forms, got {len(completion)}"
        )
    extended = (*pf.forms, *completion)
    frame = ExprMatrix.from_rows([form.coefficient_row() for form in extended])
    try:
        inverse, excluded = invert(frame)
    except LinalgError as error:
        raise SystemError(f"completion does not span: {error}") from error
    operators = []
    for i in range(pf.n):
        coeffs = {
            name: inverse.at(scope.index(name), i) for name in scope.names
        }
        operators.append(VectorField(scope, coeffs))
    pde = PdeSystem(
        scope,
        tuple(operators[pf.m :]),
        names=tuple(f"g{i + 1}" for i in range(pf.m, pf.n)),
    )
    return Contragredient(extended, tuple(operators), pde, excluded)


def pfaff_reduce_by_integrals(
    pf: PfaffSystem, integrals: Sequence[Expr]
) -> tuple[PfaffSystem, frozenset[Expr]]:
    """Replace k forms by the differentials of verified first integrals.

    Each integral must expand as dF = sum(b_j * w_j); the certificates build
    a nonsingular transformation whose first k rows are those expansions and
    whose remaining rows keep original forms.
    """
    scope = pf.scope
    if not integrals:
        return pf, frozenset()
    expansion_rows: list[list[Expr]] = []
    for integral in integrals:
        target = [
            scope.lift(c) for c in differential(scope.lift(integral)).coefficient_row()
        ]
        certificate = pf.span_solver.query(target)
        if not certificate.member:
            raise SystemError(
                f"{integral} is not a first integral of the Pfaff system"
            )
        expansion_rows.append(certificate.coefficients)
    multiplier = ExprMatrix.from_rows(expansion_rows)
    result = echelon(multiplier)
    if result.rank < len(integrals):
        raise SystemError("integrals are functionally dependent on the forms")
    consumed = set(result.pivot_cols())
    new_forms = [differential(scope.lift(F)) for F in integrals]
    new_names = [f"df{k + 1}" for k in range(len(integrals))]
    for j in range(pf.m):
        if j not in consumed:
            new_forms.append(pf.forms[j])
            new_names.append(pf.names[j])
    reduced = PfaffSystem(scope, tuple(new_forms), names=tuple(new_names))
    if not reduced.validate_rank():
        raise SystemError("reduced system lost rank")
    # every span certificate carries the solver's locus
    return reduced, pf.span_solver.excluded | result.excluded


def td_defect_reduction(td: TdSystem) -> tuple[TdSystem, frozenset[Expr]]:
    """Rename defect-many dependents as independents to reach solvability.

    Runs bracket closure on the operators of differentiation, normalizes the
    closure's last family with the independents pinned as pivots, and reads
    the associated total differential system back off.  The independents
    begin that family's pivot order (each d/dt_j row has a lone 1 in its
    column, and no bracket has a d/dt part), so normalizing reads the
    solver the last round's scan built.  Completely solvable input passes
    through unchanged.
    """
    from .analysis import bracket_closure, frobenius_td

    closure = bracket_closure(td.family)
    if closure.defect == 0:
        return td, closure.excluded
    if closure.defect >= td.n:
        raise SystemError(
            "defect equals the dependent count; no dependent variables remain"
        )
    normalized, norm_excluded = pde_normalize(
        closure.completed, pivots=list(td.indep)
    )
    reduced = normal_pde_to_td(normalized)
    check = frobenius_td(reduced)
    if not check.complete:
        raise SystemError("reduction failed the solvability self-check")
    return reduced, closure.excluded | norm_excluded
