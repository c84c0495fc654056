"""Vector fields and exterior differential forms over the symbolic core.

A :class:`VectorField` is a first-order linear differential operator stored
sparsely (variable name -> nonzero coefficient).  A :class:`KForm` is an
exterior form of uniform degree with strictly increasing index tuples; sign
normalization happens eagerly at construction so zero-testing is a map
emptiness check.

One cancel per coefficient: ``VectorField.apply``, each coefficient of
``VectorField.bracket``, and each coefficient of ``KForm.d`` and
``KForm.wedge`` is one sum of products, formed on ring elements, grouped by
denominator, merged over the lcm and cancelled once
(``Expr._sum_over_lcm``); sums of polynomials need no gcd.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .expr import Expr, ExprError, Scope

__all__ = [
    "VectorField",
    "KForm",
    "differential",
]


def _sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort index tuple, returning the permutation sign (0 on repeats)."""
    order = list(indices)
    sign = 1
    for i in range(1, len(order)):
        j = i
        while j > 0 and order[j - 1] > order[j]:
            order[j - 1], order[j] = order[j], order[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(order)):
        if order[i - 1] == order[i]:
            return tuple(order), 0
    return tuple(order), sign


class VectorField:
    """First-order operator sum(coefficient_i * d/d x_i); immutable."""

    __slots__ = ("_scope", "_coefficients")

    def __init__(self, scope: Scope, coefficients: Mapping[str, Expr]):
        cleaned: dict[str, Expr] = {}
        for name, coeff in coefficients.items():
            if name not in scope:
                raise ExprError(f"coefficient on undeclared variable {name!r}")
            if coeff.scope != scope:
                coeff = scope.lift(coeff)
            if not coeff.is_zero():
                cleaned[name] = coeff
        self._scope = scope
        self._coefficients = cleaned

    @property
    def scope(self) -> Scope:
        return self._scope

    @property
    def coefficients(self) -> dict[str, Expr]:
        return dict(self._coefficients)

    def coefficient(self, name: str) -> Expr:
        if name not in self._scope:
            raise ExprError(f"variable {name!r} not declared")
        return self._coefficients.get(name, self._scope.zero)

    def coefficient_row(self) -> list[Expr]:
        return [self.coefficient(name) for name in self._scope.names]

    def is_zero(self) -> bool:
        return not self._coefficients

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self._scope == other._scope and self._coefficients == other._coefficients

    def __hash__(self) -> int:
        return hash((self._scope, frozenset(self._coefficients.items())))

    def _terms(self, expression: Expr) -> list[tuple[Expr, Expr]]:
        """The pairs (c_i, d(expression)/d x_i) of the directional derivative."""
        return [
            (coeff, expression.diff(name)) for name, coeff in self._coefficients.items()
        ]

    def apply(self, expression: Expr) -> Expr:
        """Directional derivative sum(c_i * d(expression)/d x_i), one cancel."""
        if expression.scope != self._scope:
            expression = self._scope.lift(expression)
        return Expr._sum_over_lcm(self._scope, self._terms(expression))

    def bracket(self, other: "VectorField") -> "VectorField":
        """Commutator [self, other] as a first-order operator.

        Its k-th coefficient is sum(X_i dY_k/dx_i) - sum(Y_i dX_k/dx_i), one
        sum of those 2n products over the lcm of their denominators, with
        one cancel (``Expr._sum_over_lcm``); polynomial operands need no gcd.
        """
        if other.scope != self._scope:
            raise ExprError("scope mismatch in bracket")
        negated = -other
        return VectorField(
            self._scope,
            {
                name: Expr._sum_over_lcm(
                    self._scope,
                    self._terms(other.coefficient(name))
                    + negated._terms(self.coefficient(name)),
                )
                for name in set(self._coefficients) | set(other._coefficients)
            },
        )

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.scope != self._scope:
            raise ExprError("scope mismatch")
        names = set(self._coefficients) | set(other._coefficients)
        return VectorField(
            self._scope,
            {n: self.coefficient(n) + other.coefficient(n) for n in names},
        )

    def __neg__(self) -> "VectorField":
        return VectorField(
            self._scope, {n: -c for n, c in self._coefficients.items()}
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def scaled(self, factor: Expr) -> "VectorField":
        return VectorField(
            self._scope, {n: factor * c for n, c in self._coefficients.items()}
        )

    def __str__(self) -> str:
        return self.print()

    def print(self) -> str:
        if not self._coefficients:
            return "0"
        out = ""
        for name in self._scope.names:
            coeff = self._coefficients.get(name)
            if coeff is None:
                continue
            sign, body = _coefficient_prefix(coeff)
            marker = f"@{name}" if body is None else f"{body}*@{name}"
            if not out:
                out = marker if sign > 0 else f"-{marker}"
            else:
                out += f" + {marker}" if sign > 0 else f" - {marker}"
        return out

    def __repr__(self) -> str:
        return f"VectorField({self})"


def _coefficient_prefix(coeff: Expr) -> tuple[int, str | None]:
    """Render a coefficient for weighted-sum printing.

    Returns (sign, body) where body is None for a bare unit coefficient and
    otherwise a string which, multiplied by a marker, re-parses exactly.
    """
    if coeff.is_one():
        return 1, None
    if (-coeff).is_one():
        return -1, None
    text = coeff.print()
    if text.startswith("-") and _is_tight_factor(text[1:]):
        return -1, text[1:]
    if _is_tight_factor(text):
        return 1, text
    return 1, f"({text})"


def _is_tight_factor(text: str) -> bool:
    """True when text can prefix '*marker' without changing grouping."""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+-":
            return False
    return depth == 0


class KForm:
    """Exterior differential form of uniform degree with sparse terms."""

    __slots__ = ("_scope", "_degree", "_terms")

    def __init__(
        self,
        scope: Scope,
        degree: int,
        terms: Mapping[Sequence[str], Expr],
    ):
        if degree < 0:
            raise ExprError("form degree must be nonnegative")
        collected: dict[tuple[int, ...], Expr] = {}
        for key, coeff in terms.items():
            names = tuple(key)
            if len(names) != degree:
                raise ExprError(
                    f"term {names} has length {len(names)}, expected {degree}"
                )
            indices = tuple(scope.index(n) for n in names)
            sorted_indices, sign = _sort_with_sign(indices)
            if sign == 0:
                continue
            if coeff.scope != scope:
                coeff = scope.lift(coeff)
            if sign < 0:
                coeff = -coeff
            if sorted_indices in collected:
                coeff = collected[sorted_indices] + coeff
            collected[sorted_indices] = coeff
        self._scope = scope
        self._degree = degree
        self._terms = {idx: c for idx, c in collected.items() if not c.is_zero()}

    @property
    def scope(self) -> Scope:
        return self._scope

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def terms(self) -> dict[tuple[str, ...], Expr]:
        names = self._scope.names
        return {
            tuple(names[i] for i in idx): coeff
            for idx, coeff in sorted(self._terms.items())
        }

    def coefficient(self, key: Sequence[str]) -> Expr:
        indices = tuple(self._scope.index(n) for n in key)
        sorted_indices, sign = _sort_with_sign(indices)
        if sign == 0:
            return self._scope.zero
        coeff = self._terms.get(sorted_indices, self._scope.zero)
        return coeff if sign > 0 else -coeff

    def coefficient_row(self) -> list[Expr]:
        """Degree-1 coefficients in declared variable order."""
        if self._degree != 1:
            raise ExprError("coefficient_row requires a 1-form")
        return [self.coefficient((name,)) for name in self._scope.names]

    def is_zero(self) -> bool:
        return not self._terms

    def as_expr(self) -> Expr:
        if self._degree != 0:
            raise ExprError("as_expr requires a 0-form")
        return self._terms.get((), self._scope.zero)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        return (
            self._scope == other._scope
            and self._degree == other._degree
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self._scope, self._degree, frozenset(self._terms.items())))

    def __add__(self, other: "KForm") -> "KForm":
        if other.scope != self._scope or other.degree != self._degree:
            raise ExprError("can only add forms of equal scope and degree")
        merged = dict(self._terms)
        for idx, coeff in other._terms.items():
            merged[idx] = merged.get(idx, self._scope.zero) + coeff
        return self._from_indices(self._scope, self._degree, merged)

    def __neg__(self) -> "KForm":
        return self._from_indices(
            self._scope, self._degree, {i: -c for i, c in self._terms.items()}
        )

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def scaled(self, factor: Expr) -> "KForm":
        return self._from_indices(
            self._scope,
            self._degree,
            {i: factor * c for i, c in self._terms.items()},
        )

    @classmethod
    def _from_indices(
        cls, scope: Scope, degree: int, terms: Mapping[tuple[int, ...], Expr]
    ) -> "KForm":
        self = object.__new__(cls)
        self._scope = scope
        self._degree = degree
        self._terms = {i: c for i, c in terms.items() if not c.is_zero()}
        return self

    def d(self) -> "KForm":
        """Exterior derivative, one degree higher."""
        scope = self._scope
        unit = {1: scope.one, -1: -scope.one}
        pairs: dict[tuple[int, ...], list[tuple[Expr, Expr]]] = {}
        for idx, coeff in self._terms.items():
            for position, name in enumerate(scope.names):
                extended, sign = _sort_with_sign((position,) + idx)
                if sign:
                    pairs.setdefault(extended, []).append(
                        (unit[sign], coeff.diff(name))
                    )
        return self._from_indices(
            scope,
            self._degree + 1,
            {i: Expr._sum_over_lcm(scope, group) for i, group in pairs.items()},
        )

    def wedge(self, other: "KForm") -> "KForm":
        if other.scope != self._scope:
            raise ExprError("scope mismatch in wedge")
        pairs: dict[tuple[int, ...], list[tuple[Expr, Expr]]] = {}
        for left_idx, left_coeff in self._terms.items():
            for right_idx, right_coeff in other._terms.items():
                combined, sign = _sort_with_sign(left_idx + right_idx)
                if sign:
                    pairs.setdefault(combined, []).append(
                        (left_coeff, right_coeff if sign > 0 else -right_coeff)
                    )
        return self._from_indices(
            self._scope,
            self._degree + other._degree,
            {i: Expr._sum_over_lcm(self._scope, group) for i, group in pairs.items()},
        )

    def __str__(self) -> str:
        return self.print()

    def print(self) -> str:
        if not self._terms:
            return "0"
        names = self._scope.names
        out = ""
        for idx in sorted(self._terms):
            coeff = self._terms[idx]
            marker = "^".join(f"d({names[i]})" for i in idx)
            sign, body = _coefficient_prefix(coeff)
            if idx:
                piece = marker if body is None else f"{body}*{marker}"
            else:
                piece = body if body is not None else "1"
            if not out:
                out = piece if sign > 0 else f"-{piece}"
            else:
                out += f" + {piece}" if sign > 0 else f" - {piece}"
        return out

    def __repr__(self) -> str:
        return f"KForm({self})"


def differential(function: Expr) -> KForm:
    """The 1-form with coefficients d(function)/d x_i."""
    scope = function.scope
    return KForm(
        scope,
        1,
        {(name,): function.diff(name) for name in scope.names},
    )
