"""Line-oriented system description language and serializers.

Format (``#`` starts a comment anywhere):

.. code-block:: text

    kind: td|pde|pfaff
    indep: t1 t2            # td only
    dep: x1 x2 x3           # td only
    vars: x1 x2 x3          # pde/pfaff
    eq x1: <expr> | <expr>  # td: one expression per independent variable
    op l1: <expr>*@x1 + ... # pde operator rows
    form w1: <expr>*d(x1) + ...
    completion w3: ...      # pfaff only, optional frame completion forms
    pivots: x1 x4           # pde only, marks an already-normal system

Differentials are written ``d(x1)`` and operator slots ``@x1``; both accept
an optional ``*``-joined coefficient expression on the left.  Each header
line (``kind``, ``indep``, ``dep``, ``vars``, ``pivots``) appears at most
once, and a line of another kind's is an error.
"""

from __future__ import annotations

import re
from typing import Sequence

from .expr import Expr, ExprError, ParseError, Scope
from .exterior import KForm, VectorField
from .linalg import locus_texts
from .systems import PdeSystem, PfaffSystem, System, SystemError, TdSystem

__all__ = ["parse_system", "serialize", "DslError"]

_NAME_RE = re.compile(r"\A[a-z][a-z0-9_]*\Z")

# header lines, each of which may appear once, and the lines each kind takes
_HEADERS = ("kind", "indep", "dep", "vars", "pivots")
_DIRECTIVES = {
    "td": ("kind", "indep", "dep", "eq"),
    "pde": ("kind", "vars", "pivots", "op"),
    "pfaff": ("kind", "vars", "form", "completion"),
}


class DslError(SystemError):
    """Malformed system description; carries a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _strip_comment(text: str) -> str:
    cut = text.find("#")
    return text if cut < 0 else text[:cut]


def _split_top_level(text: str) -> list[tuple[str, str]]:
    """Split a sum into (sign, term) pieces at top-level binary + and -.

    A sign after ``^``, ``*``, ``/`` or another sign is unary and stays in
    its term (``x^-1``, ``x*-y``); signs that open a term fold into its sign.
    """
    pieces: list[tuple[str, str]] = []
    depth = 0
    current: list[str] = []
    sign = "+"
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-":
            piece = "".join(current).strip()
            if not piece:
                sign = "+" if sign == ch else "-"
                continue
            if piece[-1] not in "^*/+-":
                pieces.append((sign, piece))
                current = []
                sign = ch
                continue
        current.append(ch)
    piece = "".join(current).strip()
    if piece:
        pieces.append((sign, piece))
    return pieces


def _split_factors(text: str) -> list[str]:
    factors: list[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            factors.append("".join(current).strip())
            current = []
            continue
        current.append(ch)
    factors.append("".join(current).strip())
    return [f for f in factors if f]


_FIELD_MARKER = re.compile(r"\A@([a-z][a-z0-9_]*)\Z")
_FORM_MARKER = re.compile(r"\Ad\(\s*([a-z][a-z0-9_]*)\s*\)\Z")


def _parse_weighted_sum(
    text: str, scope: Scope, marker_re: re.Pattern, line: int
) -> dict[str, Expr]:
    """Parse ``coeff*@v`` / ``coeff*d(v)`` sums into name -> coefficient."""
    collected: dict[str, Expr] = {}
    if not text.strip():
        raise DslError("empty row (write 0 for a zero row)", line)
    if text.strip() == "0":
        return collected
    if text.rstrip().endswith(("+", "-")):
        raise DslError(f"row ends in a dangling sign: {text.strip()!r}", line)
    for sign, piece in _split_top_level(text):
        factors = _split_factors(piece)
        marker_name = None
        coeff_factors = []
        for factor in factors:
            match = marker_re.match(factor)
            if match:
                if marker_name is not None:
                    raise DslError(f"two markers in one term: {piece!r}", line)
                marker_name = match.group(1)
            else:
                coeff_factors.append(factor)
        if marker_name is None:
            raise DslError(f"term {piece!r} lacks a @var or d(var) marker", line)
        if marker_name not in scope:
            raise DslError(f"undeclared variable {marker_name!r}", line)
        try:
            coeff = (
                scope.parse("*".join(coeff_factors)) if coeff_factors else scope.one
            )
        except ParseError as error:
            raise DslError(f"bad coefficient in {piece!r}: {error}", line) from None
        if sign == "-":
            coeff = -coeff
        if marker_name in collected:
            coeff = collected[marker_name] + coeff
        collected[marker_name] = coeff
    return {name: coeff for name, coeff in collected.items() if not coeff.is_zero()}


def _parse_names(value: str, line: int) -> list[str]:
    names = value.split()
    if not names:
        raise DslError("empty variable list", line)
    for name in names:
        if not _NAME_RE.match(name):
            raise DslError(f"invalid variable name {name!r}", line)
    if len(set(names)) != len(names):
        raise DslError("duplicate variable name", line)
    return names


def parse_system(text: str, name: str = "", source: str = "") -> System:
    """Parse and fully validate a system description."""
    kind = None
    indep: list[str] | None = None
    dep: list[str] | None = None
    variables: list[str] | None = None
    pivots: list[str] | None = None
    eq_rows: dict[str, tuple[list[str], int]] = {}
    op_rows: list[tuple[str, str, int]] = []
    form_rows: list[tuple[str, str, int]] = []
    completion_rows: list[tuple[str, str, int]] = []
    first_line: dict[str, int] = {}  # directive -> line of its first use

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if ":" not in line:
            raise DslError(f"expected 'key: value', got {line!r}", line_no)
        head, value = line.split(":", 1)
        head = head.strip()
        value = value.strip()
        directive = head if head in _HEADERS else head.split(" ", 1)[0]
        if head in _HEADERS and head in first_line:
            raise DslError(f"repeated '{head}:' line", line_no)
        first_line.setdefault(directive, line_no)
        if head == "kind":
            if value not in ("td", "pde", "pfaff"):
                raise DslError(f"unknown kind {value!r}", line_no)
            kind = value
        elif head == "indep":
            indep = _parse_names(value, line_no)
        elif head == "dep":
            dep = _parse_names(value, line_no)
        elif head == "vars":
            variables = _parse_names(value, line_no)
        elif head == "pivots":
            pivots = _parse_names(value, line_no)
        elif head.startswith("eq "):
            target = head[3:].strip()
            if target in eq_rows:
                raise DslError(f"duplicate equation for {target!r}", line_no)
            eq_rows[target] = ([p.strip() for p in value.split("|")], line_no)
        elif head.startswith("op "):
            op_rows.append((head[3:].strip(), value, line_no))
        elif head.startswith("form "):
            form_rows.append((head[5:].strip(), value, line_no))
        elif head.startswith("completion "):
            completion_rows.append((head[11:].strip(), value, line_no))
        else:
            raise DslError(f"unknown directive {head!r}", line_no)

    if kind is None:
        raise DslError("missing 'kind:' line", 1)
    misplaced = sorted(
        (line_no, directive)
        for directive, line_no in first_line.items()
        if directive not in _DIRECTIVES[kind]
    )
    if misplaced:
        line_no, directive = misplaced[0]
        raise DslError(f"a {kind} system takes no '{directive}' line", line_no)
    if kind == "td":
        return _build_td(indep, dep, eq_rows, first_line, name, source)
    if kind == "pde":
        return _build_pde(variables, op_rows, pivots, first_line, name, source)
    return _build_pfaff(variables, form_rows, completion_rows, name, source)


def _build_td(indep, dep, eq_rows, first_line, name, source) -> System:
    """A td system; an equation's errors carry its line, a missing
    equation's the ``dep:`` line."""
    if indep is None or dep is None:
        raise DslError("td systems need 'indep:' and 'dep:' lines", 1)
    if set(indep) & set(dep):
        raise DslError("independent and dependent variables overlap", 1)
    scope = Scope(tuple(indep) + tuple(dep))
    missing = set(dep) - set(eq_rows)
    if missing:
        raise DslError(f"missing equations for {sorted(missing)}", first_line["dep"])
    rows = {}
    for x_name, (texts, line_no) in eq_rows.items():
        if x_name not in dep:
            raise DslError(f"equation for undeclared dependent {x_name!r}", line_no)
        if len(texts) != len(indep):
            raise DslError(
                f"equation for {x_name!r} needs {len(indep)} entries, "
                f"got {len(texts)}",
                line_no,
            )
        try:
            rows[x_name] = tuple(scope.parse(t) for t in texts)
        except ParseError as error:
            raise DslError(f"in equation for {x_name!r}: {error}", line_no) from None
    td = TdSystem(tuple(indep), tuple(dep), tuple(rows[x] for x in dep))
    return System(
        kind="td", td=td, name=name, source=source, warnings=td.warnings()
    )


def _build_pde(variables, op_rows, pivots, first_line, name, source) -> System:
    if variables is None:
        raise DslError("pde systems need a 'vars:' line", 1)
    if not op_rows:
        raise DslError("pde systems need at least one 'op' line", 1)
    scope = Scope(tuple(variables))
    names = []
    operators = []
    for op_name, value, line_no in op_rows:
        if op_name in names:
            raise DslError(f"duplicate operator name {op_name!r}", line_no)
        names.append(op_name)
        coeffs = _parse_weighted_sum(value, scope, _FIELD_MARKER, line_no)
        operators.append(VectorField(scope, coeffs))
    try:
        pde = PdeSystem(
            scope,
            tuple(operators),
            names=tuple(names),
            normal_pivots=tuple(pivots) if pivots else None,
        )
    except (SystemError, ExprError) as error:  # the pivots' normal-form check
        raise DslError(str(error), first_line["pivots"]) from None
    if not pde.validate_rank():
        raise SystemError("operators are linearly bound (rank deficient)")
    return System(kind="pde", pde=pde, name=name, source=source)


def _build_pfaff(variables, form_rows, completion_rows, name, source) -> System:
    if variables is None:
        raise DslError("pfaff systems need a 'vars:' line", 1)
    if not form_rows:
        raise DslError("pfaff systems need at least one 'form' line", 1)
    scope = Scope(tuple(variables))
    names = []
    forms = []
    for form_name, value, line_no in form_rows:
        if form_name in names:
            raise DslError(f"duplicate form name {form_name!r}", line_no)
        names.append(form_name)
        coeffs = _parse_weighted_sum(value, scope, _FORM_MARKER, line_no)
        forms.append(KForm(scope, 1, {(n,): c for n, c in coeffs.items()}))
    completion = []
    for _, value, line_no in completion_rows:
        coeffs = _parse_weighted_sum(value, scope, _FORM_MARKER, line_no)
        completion.append(KForm(scope, 1, {(n,): c for n, c in coeffs.items()}))
    pfaff = PfaffSystem(
        scope,
        tuple(forms),
        names=tuple(names),
        completion=tuple(completion) if completion else None,
    )
    if not pfaff.validate_rank():
        raise SystemError("forms are linearly bound (rank deficient)")
    return System(kind="pfaff", pfaff=pfaff, name=name, source=source)


def serialize(system: System) -> str:
    """The system in the file format, which ``parse_system`` reads back."""
    lines = [f"kind: {system.kind}"]
    if system.kind == "td":
        td = system.td
        lines.append(f"indep: {' '.join(td.indep)}")
        lines.append(f"dep: {' '.join(td.dep)}")
        for i, x_name in enumerate(td.dep):
            row = " | ".join(entry.print() for entry in td.entries[i])
            lines.append(f"eq {x_name}: {row}")
    elif system.kind == "pde":
        pde = system.pde
        lines.append(f"vars: {' '.join(pde.scope.names)}")
        if pde.normal_pivots is not None:
            lines.append(f"pivots: {' '.join(pde.normal_pivots)}")
        for op_name, op in zip(pde.names, pde.operators):
            lines.append(f"op {op_name}: {op.print()}")
    else:
        pfaff = system.pfaff
        lines.append(f"vars: {' '.join(pfaff.scope.names)}")
        for form_name, form in zip(pfaff.names, pfaff.forms):
            lines.append(f"form {form_name}: {form.print()}")
        if pfaff.completion:
            for k, form in enumerate(pfaff.completion, start=1):
                lines.append(f"completion c{k}: {form.print()}")
    return "\n".join(lines) + "\n"


def system_to_dict(system: System) -> dict:
    """JSON-facing structural description of a system."""
    out: dict = {"kind": system.kind}
    if system.name:
        out["name"] = system.name
    if system.kind == "td":
        td = system.td
        out["indep"] = list(td.indep)
        out["dep"] = list(td.dep)
        out["entries"] = [
            [entry.print() for entry in row] for row in td.entries
        ]
    elif system.kind == "pde":
        pde = system.pde
        out["vars"] = list(pde.scope.names)
        out["entries"] = [op.print() for op in pde.operators]
        if pde.normal_pivots is not None:
            out["pivots"] = list(pde.normal_pivots)
    else:
        pfaff = system.pfaff
        out["vars"] = list(pfaff.scope.names)
        out["entries"] = [form.print() for form in pfaff.forms]
        if pfaff.completion:
            out["completion"] = [form.print() for form in pfaff.completion]
    out["metadata"] = {
        "source": system.source,
        "excluded_locus": locus_texts(system.excluded_locus),
        "warnings": list(system.warnings),
    }
    return out
