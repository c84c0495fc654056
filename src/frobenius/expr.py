"""Exact scalar expressions: rational functions over Q extended by exp kernels.

An :class:`Expr` is stored as a reduced fraction of multivariate polynomials
whose generators are the declared variables plus interned exponential kernels.
Every constructor and arithmetic operation re-canonicalizes, so structural
equality of the stored numerator/denominator decides mathematical equality
(within the supported class) and ``is_zero`` is a plain syntactic check.

Storage: every expression stores its numerator and denominator as sparse
polynomials (``PolyElement``) of one grlex ring over QQ, whose generators are
the scope's declared variables, in declared order, and then exactly the
kernels the value uses, in the scope's kernel order.  A kernel-free value's
ring is ``Scope.ring``.  These two ring elements are the only form of a
value: ``==``, ``hash``, printing, arithmetic, lifting between scopes,
substitution and evaluation all read them, no sympy expression tree is ever
built, and ``Expr._from_polys`` is the one canonical tail.

Canonical form invariants:

* numerator and denominator are coprime polynomials over Q;
* the denominator is primitive with integer coefficients and its leading
  coefficient (graded lexicographic, declared variables first, kernels last)
  is positive, so a rational constant p/q is stored as ``(p/q, 1)``, whichever
  operation made it;
* a monomial carries at most one kernel, to the first power: products
  and powers of kernels are merged additively (``exp(a)*exp(b) -> exp(a+b)``),
  and ``exp(0)`` never survives (rewritten to 1);
* a denominator in which every monomial carries a kernel is divided by its
  least kernel (kernels are units), so it keeps a kernel-free monomial;
* kernels with equal canonical arguments share one interned symbol, and a
  scope orders its kernels by their argument's printed canonical form in
  that scope (``Scope._kernel_argument``), which is also how they print.

Kernels with commensurable arguments, such as ``exp(x)`` and ``exp(2*x)``,
are independent generators, so a fraction over them may be left unreduced.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import mpmath
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

    An argument is keyed by its canonical numerator and denominator as sets
    of terms over variable names, so equal arguments get one symbol across
    scopes; guarded by a lock since interning is the only mutation shared
    between scopes.  The table holds no order and no printed form: a scope
    orders and prints kernels by their arguments over itself, so no output
    depends on which scope interned a kernel first.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_arg: dict[tuple, sm.Symbol] = {}
        self._args: dict[sm.Symbol, "Expr"] = {}

    def intern(self, argument: "Expr") -> sm.Symbol:
        if argument.has_kernels():
            raise ExprError("exp argument must itself be free of exp")
        symbols = argument.scope.ring.symbols
        key = tuple(
            frozenset(
                (frozenset((s, e) for s, e in zip(symbols, monom) if e), coeff)
                for monom, coeff in part.items()
            )
            for part in (argument._p, argument._q)
        )
        with self._lock:
            symbol = self._by_arg.get(key)
            if symbol is None:
                symbol = sm.Symbol(f"_e{len(self._by_arg)}")
                self._by_arg[key] = symbol
                self._args[symbol] = argument
            return symbol

    def argument(self, symbol: sm.Symbol) -> "Expr":
        return self._args[symbol]


_KERNELS = _KernelTable()


class Scope:
    """An ordered set of declared variable names.

    ``ring`` is the grlex polynomial ring over QQ on the declared variables,
    in declared order; every kernel-free expression of the scope stores its
    numerator and denominator as elements of it.  A kernel-bearing value's
    ring appends the kernels it uses, ordered by their argument's printed
    canonical form over this scope.  ``zero`` and ``one`` are the scope's
    constant expressions, built once.
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
        # memos: each kernel's argument over this scope, and the one kernel
        # (or None for exp(0)) that each product of kernel powers merges into;
        # both are functions of their keys, so a race only recomputes a value
        self._kernel_args: dict[sm.Symbol, Expr] = {}
        self._kernel_products: dict[tuple, sm.Symbol | None] = {}
        # an Expr is immutable, so one zero and one one serve the scope
        self.zero = Expr._of(self, self.ring.zero, self.ring.one)
        self.one = Expr._of(self, self.ring.one, self.ring.one)

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
        return Expr._of(self, self.ring.ground_new(_rational(value)), self.ring.one)

    def exp(self, argument: "Expr") -> "Expr":
        """The kernel exp(argument); merges with existing equal arguments."""
        if argument.scope != self:
            argument = self.lift(argument)
        if argument.is_zero():
            return self.one
        ring = self._kernel_ring([self._kernel(argument)])
        return Expr._of(self, ring.gens[-1], ring.one)

    def parse(self, text: str) -> "Expr":
        return _Parser(text, self).parse()

    def lift(self, expr: "Expr") -> "Expr":
        """Reinterpret an expression from another scope over this one.

        ``Expr._from_polys`` redoes the sign, content and kernel order here.
        """
        if expr.scope == self:
            return expr
        for name in sorted(expr.variables()):
            if name not in self._symbols:
                raise ExprError(f"variable {name} not declared in target {self!r}")
        ring = _ring(self.ring.symbols + expr._p.ring.symbols[len(expr.scope):])
        return Expr._from_polys(self, expr._p.set_ring(ring), expr._q.set_ring(ring))

    # -- kernels ------------------------------------------------------------

    def _kernel(self, argument: "Expr") -> sm.Symbol:
        """The kernel symbol of exp(argument), for a nonzero argument here."""
        symbol = _KERNELS.intern(argument)
        self._kernel_args.setdefault(symbol, argument)
        return symbol

    def _kernel_argument(self, kernel: sm.Symbol) -> "Expr":
        """A kernel's argument over this scope."""
        argument = self._kernel_args.get(kernel)
        if argument is None:
            argument = self.lift(_KERNELS.argument(kernel))
            self._kernel_args[kernel] = argument
        return argument

    def _kernel_rank(self, kernel: sm.Symbol) -> str:
        return self._kernel_argument(kernel).print()

    def _kernel_ring(self, kernels: Iterable[sm.Symbol]) -> PolyRing:
        """The ring on the declared variables and the kernels, in kernel order."""
        ordered = sorted(kernels, key=self._kernel_rank)
        return _ring(self.ring.symbols + tuple(ordered))

    def _kernel_product(
        self, powers: tuple[tuple[sm.Symbol, int], ...]
    ) -> sm.Symbol | None:
        """The kernel that a product of kernel powers merges into.

        exp(a)^i * exp(b)^j = exp(i*a + j*b); None when that argument is 0.
        The kernels may come from any scope.
        """
        products = self._kernel_products
        if powers not in products:
            argument = self.zero
            for kernel, power in powers:
                if power:
                    argument = argument + self._kernel_argument(kernel) * power
            products[powers] = None if argument.is_zero() else self._kernel(argument)
        return products[powers]


def _rational(value: Rat):
    """An int, Fraction or sympy Rational as an element of QQ."""
    return QQ(int(value.numerator), int(value.denominator))


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


def _merge_kernels(
    scope: Scope, num: PolyElement, den: PolyElement
) -> tuple[PolyElement, PolyElement]:
    """num and den with each monomial's kernels merged into at most one.

    The parts belong to one ring on the scope's variables and then kernels
    of any scope, to any powers.  Each monomial's kernel powers become the
    one first-power kernel of their summed argument, or none when that sum
    is 0.  If then every monomial of den carries a kernel, both parts are
    divided by den's least kernel.  The results belong to the ring on the
    scope's variables and the kernels they use.
    """
    n = len(scope)
    kernels = num.ring.symbols[n:]

    def merged(poly: PolyElement, divisor: tuple = ()) -> dict[tuple, object]:
        """{(variable exponents, kernel or None): coefficient} of poly/divisor."""
        terms: dict[tuple, object] = {}
        for monom, coeff in poly.items():
            powers = tuple(zip(kernels, monom[n:])) + divisor
            key = (monom[:n], scope._kernel_product(powers))
            terms[key] = terms.get(key, 0) + coeff
        return {key: coeff for key, coeff in terms.items() if coeff}

    num_terms, den_terms = merged(num), merged(den)
    if den_terms and all(kernel is not None for _, kernel in den_terms):
        least = min((kernel for _, kernel in den_terms), key=scope._kernel_rank)
        divisor = ((least, -1),)
        num_terms, den_terms = merged(num, divisor), merged(den, divisor)
    used = {kernel for _, kernel in [*num_terms, *den_terms] if kernel is not None}
    ring = scope._kernel_ring(used)
    exponents = {
        kernel: tuple(int(kernel == other) for other in ring.symbols[n:])
        for kernel in [None, *used]
    }

    def element(terms: dict) -> PolyElement:
        return ring.from_dict(
            {
                variables + exponents[kernel]: coeff
                for (variables, kernel), coeff in terms.items()
            }
        )

    return element(num_terms), element(den_terms)


def _kernel_part(f: PolyElement, position: int) -> PolyElement:
    """The terms of f that carry the generator at position."""
    return f.ring.from_dict({m: c for m, c in f.items() if m[position]})


def _at_point(f: PolyElement, values: Sequence) -> dict[tuple, object]:
    """{kernel monomial: exact coefficient} of f with the variables at values."""
    n = len(values)
    terms: dict[tuple, object] = {}
    for monom, coeff in f.items():
        for value, power in zip(values, monom):
            if power:
                coeff *= value**power
        terms[monom[n:]] = terms.get(monom[n:], QQ.zero) + coeff
    return terms


def _by_exponent(f: PolyElement, values: Sequence, rates: Sequence) -> dict:
    """{s: c} with f at the point equal to the sum of c*exp(s), each c nonzero.

    values are the variables' coordinates and rates the kernels' arguments
    at the point, all in QQ.
    """
    sums: dict = {}
    for kernels, coeff in _at_point(f, values).items():
        s = sum((power * rate for power, rate in zip(kernels, rates)), QQ.zero)
        sums[s] = sums.get(s, QQ.zero) + coeff
    return {s: c for s, c in sums.items() if c}


def _substituted(scope: Scope, f: PolyElement, values: Sequence["Expr"]) -> "Expr":
    """f with each generator of its ring replaced by the value at its position."""
    pairs = []
    for monom, coeff in f.items():
        term = scope.one
        for value, power in zip(values, monom):
            if power:
                term = term * value**power
        pairs.append((scope.const(coeff), term))
    return Expr._sum_of_products(scope, pairs)


class Expr:
    """Immutable exact expression in canonical fractional form."""

    __slots__ = ("_scope", "_p", "_q", "_print_memo")

    def __init__(self, *args, **kwargs):
        raise TypeError("use Scope.parse/var/const or arithmetic to build Expr")

    # -- construction ---------------------------------------------------

    @classmethod
    def _of(cls, scope: Scope, p: PolyElement, q: PolyElement) -> "Expr":
        """An expression from canonical parts in one ring of the scope.

        The stored ring drops the kernels that neither part uses.
        """
        ring = p.ring
        if ring is not scope.ring:
            n = len(scope)
            used = [
                kernel
                for i, kernel in enumerate(ring.symbols[n:], n)
                if any(m[i] for m in p) or any(m[i] for m in q)
            ]
            if len(used) < ring.ngens - n:
                ring = scope._kernel_ring(used)
                p, q = p.set_ring(ring), q.set_ring(ring)
        self = object.__new__(cls)
        self._scope = scope
        self._p = p
        self._q = q
        self._print_memo = None
        return self

    @classmethod
    def _from_polys(cls, scope: Scope, num: PolyElement, den: PolyElement) -> "Expr":
        """The canonical form of num/den (the canonical tail).

        num and den belong to ``scope.ring``, or to a ring on the scope's
        variables and then any kernels, whose monomials ``_merge_kernels``
        normalizes first.  Then cancel num/den and normalize the denominator.
        """
        if num.ring is not scope.ring:
            num, den = _merge_kernels(scope, num, den)
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
        return cls._of(scope, num, den)

    @staticmethod
    def _product_groups(
        scope: Scope, pairs: Iterable[tuple["Expr", "Expr"]]
    ) -> tuple[PolyRing, list[tuple[PolyElement, PolyElement]]]:
        """The joint ring of the products a*b, and their (den, num) groups.

        The products are formed on ring elements in the operands' joint
        ring, without cancelling, and products with equal denominators are
        summed as polynomials.  Groups whose numerators sum to 0 are dropped.
        """
        pairs = [(a, b) for a, b in pairs if not (a.is_zero() or b.is_zero())]
        n = len(scope)
        kernels = {k for pair in pairs for e in pair for k in e._p.ring.symbols[n:]}
        ring = scope._kernel_ring(kernels) if kernels else scope.ring
        groups: dict[PolyElement, PolyElement] = {}
        for a, b in pairs:
            p, q, r, s = (part.set_ring(ring) for part in (a._p, a._q, b._p, b._q))
            den = q * s
            groups[den] = groups.get(den, ring.zero) + p * r
        return ring, [(den, num) for den, num in groups.items() if num]

    @classmethod
    def _summed(
        cls, scope: Scope, ring: PolyRing, num: PolyElement, den: PolyElement
    ) -> "Expr":
        """The canonical form of a merged sum num/den in ring."""
        if not num:
            return scope.zero
        if den.is_one and ring is scope.ring:
            # a kernel-free polynomial is canonical
            return cls._of(scope, num, den)
        return cls._from_polys(scope, num, den)

    @classmethod
    def _sum_of_products(
        cls, scope: Scope, pairs: Iterable[tuple["Expr", "Expr"]]
    ) -> "Expr":
        """The canonical form of the sum of a*b over pairs of the scope.

        Each ``_product_groups`` group's numerator is multiplied by the
        other groups' denominators, and one ``_from_polys`` call merges the
        kernels and cancels once.  A sum that is zero returns before any gcd,
        which suits the self-checks of certificates: their sums are zero.
        It stays beside ``_sum_over_lcm`` because a zero test needs no gcd,
        while the lcm merge takes one per group; a sum that is a value to
        keep, such as a bracket coefficient, takes ``_sum_over_lcm``.
        """
        ring, groups = cls._product_groups(scope, pairs)
        if not groups:
            return scope.zero
        den, num = groups[0]
        for group_den, group_num in groups[1:]:
            num, den = num * group_den + group_num * den, den * group_den
        return cls._summed(scope, ring, num, den)

    @classmethod
    def _sum_over_lcm(
        cls, scope: Scope, pairs: Iterable[tuple["Expr", "Expr"]]
    ) -> "Expr":
        """The canonical form of the sum of a*b, merged over the lcm.

        The ``_product_groups`` groups merge one at a time: with den = g*a
        and group_den = g*b, g = gcd(den, group_den), the sum is
        (num*b + group_num*a)/(den*b).  That costs one gcd of two
        denominators per merge and one cancel at the end, and keeps the
        merged denominator from growing by the shared factors.  Sums of
        polynomials need no gcd at all.  This is the sum for values that are
        kept (every coefficient the exterior layer forms): they stay small
        over the lcm.  A sum that is only tested for zero takes the
        gcd-free ``_sum_of_products``.
        """
        ring, groups = cls._product_groups(scope, pairs)
        if not groups:
            return scope.zero
        den, num = groups[0]
        for group_den, group_num in groups[1:]:
            _, a, b = _cofactors(den, group_den)
            num, den = num * b + group_num * a, den * b
        return cls._summed(scope, ring, num, den)

    # -- basic protocol --------------------------------------------------

    @property
    def scope(self) -> Scope:
        return self._scope

    def is_zero(self) -> bool:
        return not self._p

    def is_one(self) -> bool:
        return self._p.is_one and self._q.is_one

    def is_constant(self) -> bool:
        return self._p.is_ground and self._q.is_ground

    def leading_sign(self) -> int:
        """Sign of the numerator's grlex-leading coefficient (kernels last).

        The denominator leads positive, so this orients the whole expression;
        zero counts as negative.
        """
        return 1 if self._p.LC > 0 else -1

    def has_kernels(self) -> bool:
        return self._p.ring is not self._scope.ring

    def denominator(self) -> "Expr":
        """The denominator, as a polynomial expression."""
        return Expr._of(self._scope, self._q, self._q.ring.one)

    def variables(self) -> set[str]:
        scope = self._scope
        names: set[str] = set()
        columns = zip(*self._p.keys(), *self._q.keys())
        for i, (symbol, column) in enumerate(zip(self._p.ring.symbols, columns)):
            if not any(column):
                continue
            if i < len(scope):
                names.add(scope.names[i])
            else:
                names |= scope._kernel_argument(symbol).variables()
        return names

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return (
            self._scope == other._scope
            and self._p.ring is other._p.ring
            and self._p == other._p
            and self._q == other._q
        )

    def __hash__(self) -> int:
        return hash((self._scope, self._p, self._q))

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

    def _joint(self, other: "Expr") -> tuple[PolyElement, ...]:
        """Both operands' numerators and denominators in one ring."""
        p, q, r, s = self._p, self._q, other._p, other._q
        if p.ring is r.ring:
            return p, q, r, s
        n = len(self._scope)
        kernels = set(p.ring.symbols[n:]) | set(r.ring.symbols[n:])
        ring = self._scope._kernel_ring(kernels)
        return p.set_ring(ring), q.set_ring(ring), r.set_ring(ring), s.set_ring(ring)

    def __add__(self, other) -> "Expr":
        other = self._coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        p, q, r, s = self._joint(other)
        if q.is_one and s.is_one:
            # a sum of canonical polynomials is canonical
            return Expr._of(self._scope, p + r, q)
        return Expr._from_polys(self._scope, p * s + r * q, q * s)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr._of(self._scope, -self._p, self._q)

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
        p, q, r, s = self._joint(other)
        if q.is_one and s.is_one and p.ring is self._scope.ring:
            # a product of kernel-free polynomials is already canonical
            return Expr._of(self._scope, p * r, q)
        return Expr._from_polys(self._scope, p * r, q * s)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        other = self._coerce(other)
        if other.is_zero():
            raise ExprError("division by zero expression")
        if self.is_zero() or other.is_one():
            return self
        p, q, r, s = self._joint(other)
        return Expr._from_polys(self._scope, p * s, q * r)

    def __rtruediv__(self, other) -> "Expr":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent == 0:
            return self._scope.one
        if exponent < 0:
            return self._scope.one / self ** (-exponent)
        p, q = self._p**exponent, self._q**exponent
        if not self.has_kernels():
            # powers of coprime parts stay coprime, and by Gauss's lemma the
            # denominator stays primitive with a positive leading coefficient
            return Expr._of(self._scope, p, q)
        return Expr._from_polys(self._scope, p, q)

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "Expr":
        """Exact partial derivative; kernels follow the chain rule.

        d exp(a) = exp(a) da, so the part of the numerator and of the
        denominator that carries a kernel gains that kernel's rate da/dvar;
        the quotient rule runs on ring elements, over the product of the
        rates' denominators.
        """
        scope = self._scope
        scope.symbol(var)
        index = scope.index(var)
        p, q = self._p, self._q
        ring = p.ring
        rates = []
        for position in range(scope.ring.ngens, ring.ngens):
            rate = scope._kernel_argument(ring.symbols[position]).diff(var)
            if not rate.is_zero():
                rates.append((position, rate._p.set_ring(ring), rate._q.set_ring(ring)))
        if q.is_one and not rates:
            return Expr._of(scope, p.diff(index), q)
        # num/den is the derivative so far; den = q^2 * scale
        num = p.diff(index) * q - p * q.diff(index)
        den, scale = q * q, ring.one
        for position, u, v in rates:
            gained = _kernel_part(p, position) * q - p * _kernel_part(q, position)
            num = num * v + gained * u * scale
            den, scale = den * v, scale * v
        if not num:
            return scope.zero
        return Expr._from_polys(scope, num, den)

    def subs(self, bindings: Mapping[str, "Expr"]) -> "Expr":
        """Substitute expressions for variables; kernels re-normalize.

        Each kernel becomes ``scope.exp`` of its argument with the bindings
        substituted.
        """
        scope = self._scope
        values = [scope.var(name) for name in scope.names]
        for name, value in bindings.items():
            scope.symbol(name)
            if not isinstance(value, Expr):
                value = scope.const(value)
            values[scope.index(name)] = scope.lift(value)
        for kernel in self._p.ring.symbols[len(scope):]:
            argument = scope._kernel_argument(kernel).subs(bindings)
            if argument.has_kernels():
                raise ExprError("substitution would nest exp inside exp")
            values.append(scope.exp(argument))
        num = _substituted(scope, self._p, values)
        return num / _substituted(scope, self._q, values)

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, point: "Point") -> Fraction:
        if self.has_kernels():
            raise EvalError("exact evaluation requires an exp-free expression")
        values = _coordinates(point, self._scope)
        num, den = (_at_point(f, values).get((), QQ.zero) for f in (self._p, self._q))
        if not den:
            raise EvalError("denominator vanishes at the point")
        value = num / den
        return Fraction(int(value.numerator), int(value.denominator))

    def _exponential_sums(self, point: "Point") -> tuple[dict, dict]:
        """Numerator and denominator at point, each as {s: c}: sum(c*exp(s)).

        At a rational point every kernel's argument is a rational s, so each
        part is a sum of c*exp(s) with rational c.  By Lindemann-Weierstrass,
        the exponentials of distinct algebraic numbers are linearly
        independent over the algebraic numbers, so a part is 0 exactly when
        each c is, that is when its dict is empty.  Raises EvalError at a
        pole.
        """
        scope = self._scope
        values = _coordinates(point, scope)
        rates = [
            _rational(scope._kernel_argument(kernel).eval_exact(point))
            for kernel in self._p.ring.symbols[len(scope):]
        ]
        num, den = (_by_exponent(f, values, rates) for f in (self._p, self._q))
        if not den:
            raise EvalError("denominator vanishes at the point")
        return num, den

    def vanishes_at(self, point: "Point") -> bool:
        """Whether the value at point is exactly 0, kernels included.

        Decided in QQ alone (see ``_exponential_sums``); raises EvalError
        at a pole.
        """
        return not self._exponential_sums(point)[0]

    def eval_float(self, point: "Point", precision_bits: int = 64):
        """The value at point; kernels are ``mpmath.exp`` of exact arguments.

        Poles are decided exactly, and raise EvalError.
        """
        if precision_bits < 64:
            raise EvalError("float evaluation requires precision_bits >= 64")
        exact = self._exponential_sums(point)

        def mpf(value):
            return mpmath.mpf(int(value.numerator)) / int(value.denominator)

        with mpmath.workprec(precision_bits + 16):
            num, den = (
                mpmath.fsum(mpf(c) * mpmath.exp(mpf(s)) for s, c in part.items())
                for part in exact
            )
            value = num / den
        with mpmath.workprec(precision_bits):
            return mpmath.mpf(value)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return self.print()

    def print(self) -> str:
        if self._print_memo is not None:
            return self._print_memo
        scope = self._scope
        names = scope.names + tuple(
            [
                f"exp({scope._kernel_argument(kernel).print()})"
                for kernel in self._p.ring.symbols[scope.ring.ngens:]
            ]
        )
        num_terms, den_terms = list(self._p.items()), list(self._q.items())
        text = _print_terms(num_terms, names)
        if len(den_terms) > 1 or any(den_terms[0][0]):  # the denominator is not 1
            if len(num_terms) > 1:
                text = f"({text})"
            den = _print_terms(den_terms, names)
            if len(den_terms) > 1 or _is_product(den_terms[0]) or den.startswith("-"):
                den = f"({den})"
            text = f"{text}/{den}"
        self._print_memo = text
        return text


def _grlex_term_key(term: tuple[tuple[int, ...], object]) -> tuple:
    return (sum(term[0]), term[0])


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
                # -1*x^2, not -x^2: the form the pinned outputs print, and
                # one that reads the same whichever of '-' and '^' binds first
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

    def __getitem__(self, name: str) -> Fraction:
        return self.assignment[name]


def _coordinates(point: Point, scope: Scope) -> list:
    """The point's values of the scope's variables as QQ, in declared order."""
    missing = set(scope.names) - set(point.assignment)
    if missing:
        raise EvalError(f"point does not assign {sorted(missing)}")
    return [_rational(point[name]) for name in scope.names]


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' integer)?
    base   := rational | varid | 'exp' '(' expr ')' | '(' expr ')'

    ``^`` binds tighter than unary minus: ``-x^2`` is ``-(x^2)``.
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
        if self._peek() == "-":
            self.pos += 1
            return -self._factor()
        value = self._base()
        if self._peek() == "^":
            self.pos += 1
            value = value ** self._integer()
        return value

    def _base(self) -> Expr:
        ch = self._peek()
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

