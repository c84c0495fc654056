"""Exact scalar expressions: rational functions over Q extended by exp kernels.

An :class:`Expr` is stored as a reduced fraction of multivariate polynomials
whose generators are the declared variables plus interned exponential kernels.
Every constructor and arithmetic operation re-canonicalizes, so structural
equality of the stored numerator/denominator decides mathematical equality
(within the supported class) and ``is_zero`` is a plain syntactic check.

Storage: a kernel-free expression stores its numerator and denominator as
sparse polynomials (``PolyElement``) of its scope's ring, the grlex ring over
QQ on all declared variables (``Scope.ring``).  ``==``, ``hash``, printing
and arithmetic read these ring elements; sympy expression trees of the parts
are built only on demand, for the consumers that need trees (the kernel path,
locus factoring, evaluation, substitution, lifting and kernel interning).  An
expression that holds an exp kernel stores sympy trees; its arithmetic reads
them into a grlex ring on the declared variables it uses plus its kernels,
ordered last.  The canonical tail (cancel, then normalize the denominator)
runs on ring elements for every operation, with or without kernels, and a
result in which no kernel survives is stored in ring form.

Canonical form invariants:

* numerator and denominator are coprime polynomials over Q (kernel-bearing
  parts as expanded sums of monomials, ``PolyElement.as_expr()`` output);
* the denominator is primitive with integer coefficients and its leading
  coefficient (graded lexicographic, declared variable order, kernels last)
  is positive, so a rational constant p/q is stored as ``(p/q, 1)``, whichever
  operation made it;
* a monomial carries at most one kernel symbol, to the first power: products
  and powers of kernels are merged additively (``exp(a)*exp(b) -> exp(a+b)``);
* ``exp(0)`` never survives (rewritten to 1), and kernels with equal
  canonical arguments share one interned symbol.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import sympy as sm
from sympy.polys.domains import QQ
from sympy.polys.orderings import grlex
from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.rings import PolyElement, PolyRing

__all__ = [
    "Scope",
    "Expr",
    "Point",
    "ExprError",
    "ParseError",
    "EvalError",
    "parse_expr",
]

_NAME_RE = re.compile(r"\A[a-z][a-z0-9_]*\Z")
_RESERVED = {"exp"}

Rat = Union[int, Fraction, sm.Rational]


class ExprError(ValueError):
    """Invalid expression-level operation."""


class ParseError(ExprError):
    """Syntax or scoping error while parsing; carries a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    """Evaluation failed (vanishing denominator, wrong mode)."""


class _KernelTable:
    """Process-wide interner mapping canonical exp arguments to symbols.

    Shared so that equal arguments get one symbol across scopes; guarded by a
    lock since interning is the only mutation in the whole expression layer.
    Kernels are ordered by their argument's printed canonical form, so the
    order (and every output that depends on it) does not depend on which
    kernels a process happened to intern first.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_arg: dict[tuple[sm.Expr, sm.Expr], sm.Symbol] = {}
        self._args: dict[sm.Symbol, "Expr"] = {}
        self._rank: dict[sm.Symbol, str] = {}

    def intern(self, argument: "Expr") -> sm.Symbol:
        if argument.has_kernels():
            raise ExprError("exp argument must itself be free of exp")
        key = (argument._num, argument._den)
        with self._lock:
            symbol = self._by_arg.get(key)
            if symbol is None:
                symbol = sm.Symbol(f"_e{len(self._by_arg)}")
                self._by_arg[key] = symbol
                self._args[symbol] = argument
                self._rank[symbol] = argument.print()
            return symbol

    def argument(self, symbol: sm.Symbol) -> "Expr":
        return self._args[symbol]

    def rank(self, symbol: sm.Symbol) -> str:
        return self._rank[symbol]

    def is_kernel(self, symbol: sm.Symbol) -> bool:
        return symbol in self._args


_KERNELS = _KernelTable()


class Scope:
    """An ordered set of declared variable names.

    ``ring`` is the grlex polynomial ring over QQ on the declared variables,
    in declared order; every kernel-free expression of the scope stores its
    numerator and denominator as elements of it.
    """

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise ExprError(f"invalid variable name {name!r}")
            if name in _RESERVED:
                raise ExprError(f"{name!r} is reserved")
            if name in seen:
                raise ExprError(f"duplicate variable name {name!r}")
            seen.add(name)
        self._names = names
        self._symbols = {n: sm.Symbol(n) for n in names}
        self.ring = _ring(tuple(self._symbols.values()))

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scope) and other._names == self._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"Scope({', '.join(self._names)})"

    def symbol(self, name: str) -> sm.Symbol:
        try:
            return self._symbols[name]
        except KeyError:
            raise ExprError(f"variable {name!r} not declared in {self!r}") from None

    def index(self, name: str) -> int:
        return self._names.index(name)

    def var(self, name: str) -> "Expr":
        self.symbol(name)
        return Expr._of(self, self.ring.gens[self.index(name)], self.ring.one)

    def const(self, value: Rat) -> "Expr":
        ground = self.ring.ground_new(QQ.from_sympy(sm.Rational(value)))
        return Expr._of(self, ground, self.ring.one)

    @property
    def zero(self) -> "Expr":
        return Expr._of(self, self.ring.zero, self.ring.one)

    @property
    def one(self) -> "Expr":
        return Expr._of(self, self.ring.one, self.ring.one)

    def exp(self, argument: "Expr") -> "Expr":
        """The kernel exp(argument); merges with existing equal arguments."""
        if argument.scope != self:
            argument = self.lift(argument)
        if argument.is_zero():
            return self.one
        symbol = _KERNELS.intern(argument)
        return Expr._of_trees(self, symbol, sm.Integer(1))

    def parse(self, text: str) -> "Expr":
        return _Parser(text, self).parse()

    def lift(self, expr: "Expr") -> "Expr":
        """Reinterpret an expression from another scope over this one."""
        if expr.scope == self:
            return expr
        for symbol in expr.variable_symbols():
            if str(symbol) not in self._symbols:
                raise ExprError(
                    f"variable {symbol} not declared in target {self!r}"
                )
        return Expr._canonical(self, expr._num, expr._den)

    def extended(self, extra: Sequence[str]) -> "Scope":
        return Scope(self._names + tuple(extra))


def _kernel_symbols(expression: sm.Expr) -> list[sm.Symbol]:
    found = [s for s in expression.free_symbols if _KERNELS.is_kernel(s)]
    found.sort(key=_KERNELS.rank)
    return found


def _merge_kernel_monomials(poly: sm.Expr, scope: Scope) -> sm.Expr:
    """Rewrite each monomial so it carries at most one first-power kernel."""
    kernels = _kernel_symbols(poly)
    if not kernels:
        return poly
    poly = sm.expand(poly)
    terms_out = []
    for term in sm.Add.make_args(poly):
        rest = []
        arg_sum: "Expr | None" = None
        plain = True
        for factor in sm.Mul.make_args(term):
            base, power = factor.as_base_exp()
            if isinstance(base, sm.Symbol) and _KERNELS.is_kernel(base):
                if not (power.is_Integer):
                    raise ExprError("non-integer power of an exp kernel")
                if power == 1 and arg_sum is None and plain:
                    # tentatively fine; flag combination lazily
                    arg_sum = scope.lift(_KERNELS.argument(base))
                    plain = True
                    continue
                contribution = scope.lift(_KERNELS.argument(base)) * int(power)
                arg_sum = contribution if arg_sum is None else arg_sum + contribution
                plain = False
            else:
                rest.append(factor)
        if arg_sum is None:
            terms_out.append(term)
            continue
        if not plain:
            kernel_factor = (
                sm.Integer(1)
                if arg_sum.is_zero()
                else _KERNELS.intern(scope.lift(arg_sum))
            )
        else:
            kernel_factor = _KERNELS.intern(scope.lift(arg_sum))
        terms_out.append(sm.Mul(*rest) * kernel_factor)
    return sm.expand(sm.Add(*terms_out))


_RINGS: dict[tuple[sm.Symbol, ...], PolyRing] = {}


def _ring(gens: tuple[sm.Symbol, ...]) -> PolyRing:
    """The grlex polynomial ring over QQ on gens, so ``LC`` leads in grlex."""
    ring = _RINGS.get(gens)
    if ring is None:
        ring = _RINGS.setdefault(gens, PolyRing(gens, QQ, grlex))
    return ring


def _cofactors(
    f: PolyElement, g: PolyElement
) -> tuple[PolyElement, PolyElement, PolyElement]:
    """``(h, f/h, g/h)`` with h = gcd(f, g), as ``PolyElement.cofactors``.

    sympy's sparse gcd over ZZ is the heuristic ``heugcd`` alone, which
    raises ``HeuristicGCDFailed`` on unlucky inputs; then this falls back to
    the dense gcd, which has a PRS fallback of its own, and makes h monic in
    the ring's (grlex) order as the sparse gcd over QQ does.
    """
    try:
        return f.cofactors(g)
    except HeuristicGCDFailed:
        h, cff, cfg = f.ring.dmp_inner_gcd(f, g)
        lead = h.LC
        return h.monic(), cff.mul_ground(lead), cfg.mul_ground(lead)


def _grlex_term_key(term: tuple[tuple[int, ...], object]) -> tuple:
    return (sum(term[0]), term[0])


def _tree_terms(poly: sm.Expr, gens: Sequence[sm.Symbol]) -> list[tuple]:
    """(exponents, coefficient) pairs of an expanded polynomial tree."""
    index = {g: i for i, g in enumerate(gens)}
    terms = []
    for term in sm.Add.make_args(poly):
        coeff, monomial = term.as_coeff_Mul()
        exponents = [0] * len(gens)
        if monomial != 1:
            for factor in sm.Mul.make_args(monomial):
                base, power = factor.as_base_exp()
                exponents[index[base]] = int(power)
        terms.append((tuple(exponents), coeff))
    return terms


class Expr:
    """Immutable exact expression in canonical fractional form."""

    __slots__ = ("_scope", "_p", "_q", "_trees", "_print_memo")

    def __init__(self, *args, **kwargs):
        raise TypeError("use Scope.parse/var/const or arithmetic to build Expr")

    # -- construction ---------------------------------------------------

    @classmethod
    def _of(cls, scope: Scope, p: PolyElement, q: PolyElement) -> "Expr":
        """A kernel-free expression from canonical elements of ``scope.ring``."""
        self = object.__new__(cls)
        self._scope = scope
        self._p = p
        self._q = q
        self._trees = None
        self._print_memo = None
        return self

    @classmethod
    def _of_trees(cls, scope: Scope, num: sm.Expr, den: sm.Expr) -> "Expr":
        """A kernel-bearing expression from canonical trees."""
        self = object.__new__(cls)
        self._scope = scope
        self._p = self._q = None
        self._trees = (num, den)
        self._print_memo = None
        return self

    @classmethod
    def _make(cls, scope: Scope, num: sm.Expr, den: sm.Expr) -> "Expr":
        """An expression from trees already in canonical form."""
        if _kernel_symbols(num) or _kernel_symbols(den):
            return cls._of_trees(scope, num, den)
        return cls._of(scope, scope.ring.from_expr(num), scope.ring.from_expr(den))

    @property
    def _num(self) -> sm.Expr:
        return self._tree_parts()[0]

    @property
    def _den(self) -> sm.Expr:
        return self._tree_parts()[1]

    def _tree_parts(self) -> tuple[sm.Expr, sm.Expr]:
        """Numerator and denominator trees, built on first use when kernel-free."""
        trees = self._trees
        if trees is None:
            trees = self._trees = (self._p.as_expr(), self._q.as_expr())
        return trees

    @classmethod
    def _from_polys(cls, scope: Scope, num: PolyElement, den: PolyElement) -> "Expr":
        """Cancel num/den and normalize the denominator (the canonical tail).

        num and den belong to ``scope.ring``, or to a kernel ring (declared
        variables, then kernels); a kernel-ring result whose kernels all
        cancelled moves to ``scope.ring``.
        """
        if not den:
            raise ExprError("zero denominator")
        if not num:
            return scope.zero
        _, num, den = _cofactors(num, den)
        # over QQ the content is gcd(numerators)/lcm(denominators), so dividing
        # by it leaves an integer, primitive denominator; its sign makes the
        # grlex leading coefficient positive
        content = den.content()
        if den.LC < 0:
            content = -content
        num = num.quo_ground(content)
        den = den.quo_ground(content)
        ring = num.ring
        if ring is not scope.ring:
            first_kernel = next(
                i for i, g in enumerate(ring.symbols) if _KERNELS.is_kernel(g)
            )
            if any(any(m[first_kernel:]) for part in (num, den) for m in part):
                return cls._of_trees(scope, num.as_expr(), den.as_expr())
            num, den = num.set_ring(scope.ring), den.set_ring(scope.ring)
        return cls._of(scope, num, den)

    @classmethod
    def _canonical(cls, scope: Scope, num: sm.Expr, den: sm.Expr) -> "Expr":
        num = _merge_kernel_monomials(num, scope)
        den = _merge_kernel_monomials(den, scope)
        den, unit = cls._clear_kernel_unit(scope, den)
        if unit != 1:
            num = _merge_kernel_monomials(num * unit, scope)
        ring = cls._ring_for(scope, num, den)
        try:
            num_poly, den_poly = ring.from_expr(num), ring.from_expr(den)
        except ValueError:
            # rational subtrees (e.g. kernel chain rule): flatten to one
            # fraction with polynomial numerator and denominator, re-merge
            num, den = sm.fraction(sm.together(num / den))
            num = _merge_kernel_monomials(num, scope)
            den = _merge_kernel_monomials(den, scope)
            den, unit = cls._clear_kernel_unit(scope, den)
            if unit != 1:
                num = _merge_kernel_monomials(num * unit, scope)
            ring = cls._ring_for(scope, num, den)
            num_poly, den_poly = ring.from_expr(num), ring.from_expr(den)
        return cls._from_polys(scope, num_poly, den_poly)

    @classmethod
    def _ring_for(cls, scope: Scope, num: sm.Expr, den: sm.Expr) -> PolyRing:
        """``scope.ring``, or the kernel ring when a kernel occurs in the trees."""
        gens = cls._gens_for(scope, num, den)
        if gens and _KERNELS.is_kernel(gens[-1]):
            return _ring(gens)
        return scope.ring

    @staticmethod
    def _clear_kernel_unit(scope: Scope, den: sm.Expr) -> tuple[sm.Expr, sm.Expr]:
        """Return (den', unit) with den = den' * unit^{-1}... unit a kernel.

        If every monomial of the denominator carries a kernel, divide out the
        least one (kernels are units); returns the adjusted denominator and
        the kernel factor to multiply into the numerator.
        """
        kernels = _kernel_symbols(den)
        if not kernels:
            return den, sm.Integer(1)
        per_term = []
        for term in sm.Add.make_args(sm.expand(den)):
            symbols = [
                f.as_base_exp()[0]
                for f in sm.Mul.make_args(term)
                if isinstance(f.as_base_exp()[0], sm.Symbol)
                and _KERNELS.is_kernel(f.as_base_exp()[0])
            ]
            if not symbols:
                return den, sm.Integer(1)
            per_term.append(min(symbols, key=_KERNELS.rank))
        pivot = min(per_term, key=_KERNELS.rank)
        inverse_arg = _KERNELS.argument(pivot) * (-1)
        if inverse_arg.is_zero():
            inverse = sm.Integer(1)
        else:
            inverse = _KERNELS.intern(scope.lift(inverse_arg))
        den = _merge_kernel_monomials(sm.expand(den * inverse), scope)
        return den, inverse

    @classmethod
    def _gens_for(cls, scope: Scope, *polys: sm.Expr) -> tuple[sm.Symbol, ...]:
        free: set[sm.Symbol] = set()
        for p in polys:
            free |= p.free_symbols
        base = [scope.symbol(n) for n in scope.names if scope.symbol(n) in free]
        kernels = sorted(
            (s for s in free if _KERNELS.is_kernel(s)), key=_KERNELS.rank
        )
        stray = free - set(base) - set(kernels)
        if stray:
            raise ExprError(f"symbols {stray} not declared in {scope!r}")
        return tuple(base + kernels)

    # -- basic protocol --------------------------------------------------

    @property
    def scope(self) -> Scope:
        return self._scope

    def is_zero(self) -> bool:
        return self._p is not None and not self._p

    def is_one(self) -> bool:
        return self._p is not None and self._p.is_one and self._q.is_one

    def is_constant(self) -> bool:
        return self._p is not None and self._p.is_ground and self._q.is_ground

    def leading_sign(self) -> int:
        """Sign of the numerator's grlex-leading coefficient (kernels last).

        The denominator leads positive, so this orients the whole expression;
        zero counts as negative.
        """
        if self._p is not None:
            lead = self._p.LC
        else:
            gens = self._gens_for(self._scope, self._num, self._den)
            lead = max(_tree_terms(self._num, gens), key=_grlex_term_key)[1]
        return 1 if lead > 0 else -1

    def has_kernels(self) -> bool:
        return self._p is None

    def denominator(self) -> "Expr":
        """The denominator, as a polynomial expression."""
        if self._p is not None:
            return Expr._of(self._scope, self._q, self._scope.ring.one)
        return Expr._canonical(self._scope, self._den, sm.Integer(1))

    def variable_symbols(self) -> set[sm.Symbol]:
        if self._p is not None:
            monomials = list(self._p) + list(self._q)
            return {
                symbol
                for symbol, column in zip(self._scope.ring.symbols, zip(*monomials))
                if any(column)
            }
        symbols: set[sm.Symbol] = set()
        for part in (self._num, self._den):
            for s in part.free_symbols:
                if _KERNELS.is_kernel(s):
                    symbols |= _KERNELS.argument(s).variable_symbols()
                else:
                    symbols.add(s)
        return symbols

    def variables(self) -> set[str]:
        return {str(s) for s in self.variable_symbols()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        if self._scope != other._scope:
            return False
        if self._p is not None:
            return other._p is not None and self._p == other._p and self._q == other._q
        return other._p is None and self._trees == other._trees

    def __hash__(self) -> int:
        if self._p is not None:
            return hash((self._scope, self._p, self._q))
        return hash((self._scope, self._trees))

    def __repr__(self) -> str:
        return f"Expr({self})"

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other._scope != self._scope:
                raise ExprError("scope mismatch in arithmetic")
            return other
        if isinstance(other, (int, Fraction, sm.Rational)):
            return self._scope.const(other)
        raise TypeError(f"cannot combine Expr with {type(other).__name__}")

    def __add__(self, other) -> "Expr":
        other = self._coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self._p is not None and other._p is not None:
            p, q, r, s = self._p, self._q, other._p, other._q
            if q.is_one and s.is_one:
                return Expr._of(self._scope, p + r, q)
            return Expr._from_polys(self._scope, p * s + r * q, q * s)
        if self._den == 1 and other._den == 1:
            # sums of expanded polynomials collect terms without expand
            num = self._num + other._num
            if num == 0:
                return self._scope.zero
            return Expr._make(self._scope, num, sm.Integer(1))
        return Expr._canonical(
            self._scope,
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        if self._p is not None:
            return Expr._of(self._scope, -self._p, self._q)
        return Expr._of_trees(self._scope, sm.expand(-self._num), self._den)

    def __sub__(self, other) -> "Expr":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Expr":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "Expr":
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return self._scope.zero
        if self.is_one():
            return other
        if other.is_one():
            return self
        if self._p is not None and other._p is not None:
            p, q, r, s = self._p, self._q, other._p, other._q
            if q.is_one and s.is_one:
                # a product of polynomials is already canonical
                return Expr._of(self._scope, p * r, q)
            return Expr._from_polys(self._scope, p * r, q * s)
        if self._den == 1 and other._den == 1:
            num = _merge_kernel_monomials(
                sm.expand(self._num * other._num), self._scope
            )
            if num == 0:
                return self._scope.zero
            return Expr._make(self._scope, num, sm.Integer(1))
        return Expr._canonical(
            self._scope, self._num * other._num, self._den * other._den
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        other = self._coerce(other)
        if other.is_zero():
            raise ExprError("division by zero expression")
        if self.is_zero() or other.is_one():
            return self
        if self._p is not None and other._p is not None:
            return Expr._from_polys(
                self._scope, self._p * other._q, self._q * other._p
            )
        return Expr._canonical(
            self._scope, self._num * other._den, self._den * other._num
        )

    def __rtruediv__(self, other) -> "Expr":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent == 0:
            return self._scope.one
        if exponent < 0:
            return self._scope.one / self ** (-exponent)
        if self._p is not None:
            # powers of coprime parts stay coprime, and by Gauss's lemma the
            # denominator stays primitive with a positive leading coefficient
            return Expr._of(self._scope, self._p**exponent, self._q**exponent)
        return Expr._canonical(self._scope, self._num**exponent, self._den**exponent)

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "Expr":
        """Exact partial derivative; kernels follow the chain rule."""
        symbol = self._scope.symbol(var)
        if self._p is not None:
            index = self._scope.index(var)
            p, q = self._p, self._q
            if q.is_one:
                return Expr._of(self._scope, p.diff(index), q)
            num = p.diff(index) * q - p * q.diff(index)
            if not num:
                return self._scope.zero
            return Expr._from_polys(self._scope, num, q * q)
        num_d = self._part_diff(self._num, symbol)
        den_d = self._part_diff(self._den, symbol)
        return Expr._canonical(
            self._scope,
            num_d * self._den - self._num * den_d,
            self._den * self._den,
        )

    def _part_diff(self, poly: sm.Expr, symbol: sm.Symbol) -> sm.Expr:
        result = sm.diff(poly, symbol)
        for kernel in _kernel_symbols(poly):
            argument = self._scope.lift(_KERNELS.argument(kernel))
            arg_d = argument.diff(str(symbol))
            if arg_d.is_zero():
                continue
            result += sm.diff(poly, kernel) * kernel * arg_d._num / arg_d._den
        return result

    def subs(self, bindings: Mapping[str, "Expr"]) -> "Expr":
        """Substitute expressions for variables; kernels re-normalize."""
        replacements: dict[sm.Symbol, sm.Expr] = {}
        for name, value in bindings.items():
            if not isinstance(value, Expr):
                value = self._scope.const(value)
            if value._scope != self._scope:
                value = self._scope.lift(value)
            replacements[self._scope.symbol(name)] = value._num / value._den
        kernel_map: dict[sm.Symbol, sm.Expr] = {}
        for part in (self._num, self._den):
            for kernel in _kernel_symbols(part):
                if kernel in kernel_map:
                    continue
                argument = self._scope.lift(_KERNELS.argument(kernel))
                if not (argument.variables() & set(bindings)):
                    continue
                new_argument = argument.subs(bindings)
                if new_argument.has_kernels():
                    raise ExprError("substitution would nest exp inside exp")
                if new_argument.is_zero():
                    kernel_map[kernel] = sm.Integer(1)
                else:
                    kernel_map[kernel] = _KERNELS.intern(
                        self._scope.lift(new_argument)
                    )
        num = self._num.xreplace(kernel_map).xreplace(replacements)
        den = self._den.xreplace(kernel_map).xreplace(replacements)
        num, den = sm.together(num / den).as_numer_denom()
        return Expr._canonical(self._scope, sm.expand(num), sm.expand(den))

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, point: "Point") -> Fraction:
        if self.has_kernels():
            raise EvalError("exact evaluation requires an exp-free expression")
        subs = point.substitutions(self._scope)
        den = self._den.xreplace(subs)
        if den == 0:
            raise EvalError("denominator vanishes at the point")
        num = self._num.xreplace(subs)
        value = sm.Rational(num) / sm.Rational(den)
        return Fraction(int(value.p), int(value.q))

    def eval_float(self, point: "Point", precision_bits: int = 64):
        import mpmath

        if precision_bits < 64:
            raise EvalError("float evaluation requires precision_bits >= 64")
        subs = point.substitutions(self._scope)
        expression = self.as_sympy_exp()
        try:
            with mpmath.workprec(precision_bits + 16):
                value = sm.lambdify([], expression.xreplace(subs), "mpmath")()
                if not mpmath.isfinite(value):
                    raise EvalError("denominator vanishes at the point")
        except ZeroDivisionError:
            raise EvalError("denominator vanishes at the point") from None
        with mpmath.workprec(precision_bits):
            return mpmath.mpf(value)

    def as_sympy_exp(self) -> sm.Expr:
        """Render with real sympy exp calls (for numeric work only)."""
        mapping = {
            k: sm.exp(_KERNELS.argument(k).as_sympy_exp())
            for k in _kernel_symbols(self._num) + _kernel_symbols(self._den)
        }
        return (self._num / self._den).xreplace(mapping)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return self.print()

    def print(self) -> str:
        if self._print_memo is not None:
            return self._print_memo
        if self._p is not None:
            names = self._scope.names
            parts = [(list(self._p.items()), names), (list(self._q.items()), names)]
        else:
            parts = [self._printable_terms(self._num), self._printable_terms(self._den)]
        (num_terms, _), (den_terms, _) = parts
        text = _print_terms(*parts[0])
        if len(den_terms) > 1 or any(den_terms[0][0]):  # the denominator is not 1
            if len(num_terms) > 1:
                text = f"({text})"
            den = _print_terms(*parts[1])
            if len(den_terms) > 1 or _is_product(den_terms[0]) or den.startswith("-"):
                den = f"({den})"
            text = f"{text}/{den}"
        self._print_memo = text
        return text

    def _printable_terms(self, poly: sm.Expr) -> tuple[list[tuple], list[str]]:
        """A kernel-bearing part's terms, and the printed name of each generator."""
        gens = self._gens_for(self._scope, poly)
        names = [
            f"exp({_KERNELS.argument(g).print()})" if _KERNELS.is_kernel(g) else str(g)
            for g in gens
        ]
        return _tree_terms(poly, gens), names


def _print_terms(terms: list[tuple], names: Sequence[str]) -> str:
    """Print (exponents, coefficient) pairs in descending grlex order."""
    if not terms:
        return "0"
    pieces: list[str] = []
    for exponents, coeff in sorted(terms, key=_grlex_term_key, reverse=True):
        factors = [
            name if power == 1 else f"{name}^{power}"
            for name, power in zip(names, exponents)
            if power
        ]
        magnitude = abs(coeff)
        if not factors:
            body = _print_rational(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_print_rational(magnitude)] + factors)
        if not pieces:
            if coeff > 0:
                pieces.append(body)
            elif magnitude == 1 and factors and _top_level_caret(factors[0]):
                # unary minus binds before '^', so -x^2 would negate x only
                pieces.append(f"-1*{body}")
            else:
                pieces.append(f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)


def _print_rational(value) -> str:
    numerator, denominator = value.numerator, value.denominator
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


def _top_level_caret(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "^" and depth == 0:
            return True
    return False


def _is_product(term: tuple) -> bool:
    """Whether a one-term part prints as a product or a power."""
    exponents, coeff = term
    degree = sum(exponents)
    return degree > 1 or (degree == 1 and coeff != 1)


@dataclass(frozen=True)
class Point:
    """A rational assignment to every variable of a scope."""

    assignment: Mapping[str, Fraction]

    def substitutions(self, scope: Scope) -> dict[sm.Symbol, sm.Rational]:
        missing = set(scope.names) - set(self.assignment)
        if missing:
            raise EvalError(f"point does not assign {sorted(missing)}")
        return {
            scope.symbol(name): sm.Rational(value)
            for name, value in self.assignment.items()
            if name in scope
        }

    def __getitem__(self, name: str) -> Fraction:
        return self.assignment[name]


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := rational | varid | 'exp' '(' expr ')' | '(' expr ')' | '-' base
    """

    def __init__(self, text: str, scope: Scope):
        self.text = text
        self.scope = scope
        self.pos = 0

    def parse(self) -> Expr:
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return value

    def _skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "#":
                newline = self.text.find("\n", self.pos)
                self.pos = len(self.text) if newline < 0 else newline
            elif ch.isspace():
                self.pos += 1
            else:
                return

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> Expr:
        value = self._term()
        while True:
            op = self._peek()
            if op == "+":
                self.pos += 1
                value = value + self._term()
            elif op == "-":
                self.pos += 1
                value = value - self._term()
            else:
                return value

    def _term(self) -> Expr:
        value = self._factor()
        while True:
            op = self._peek()
            if op == "*":
                self.pos += 1
                value = value * self._factor()
            elif op == "/":
                self.pos += 1
                divisor = self._factor()
                if divisor.is_zero():
                    raise ParseError("division by zero", self.pos)
                value = value / divisor
            else:
                return value

    def _factor(self) -> Expr:
        value = self._base()
        if self._peek() == "^":
            self.pos += 1
            value = value ** self._integer()
        return value

    def _base(self) -> Expr:
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            return -self._base()
        if ch == "(":
            self.pos += 1
            value = self._expr()
            self._expect(")")
            return value
        if ch.isdigit():
            return self.scope.const(self._integer())
        if ch.isalpha():
            name = self._identifier()
            if name == "exp":
                self._expect("(")
                argument = self._expr()
                self._expect(")")
                if argument.has_kernels():
                    raise ParseError("exp nested inside exp", self.pos)
                return self.scope.exp(argument)
            if name not in self.scope:
                raise ParseError(f"undeclared variable {name!r}", self.pos)
            return self.scope.var(name)
        raise ParseError("expected a value", self.pos)

    def _expect(self, token: str) -> None:
        if self._peek() != token:
            raise ParseError(f"expected {token!r}", self.pos)
        self.pos += 1

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def _identifier(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


# Operation-style entry points mirroring the public contract.

def parse_expr(text: str, scope: Scope) -> Expr:
    return scope.parse(text)

