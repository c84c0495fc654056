"""Command-line front end: analyze, verify, convert, complete, bracket,
check-fixtures.

Exit codes: 0 success, 1 verification or fixture failure, 2 input errors.
Output is deterministic for identical invocations; ``--seed`` (analyze,
verify, check-fixtures) seeds the sampling oracles, not the exact verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    CompletenessResult,
    MethodDisagreement,
    analyze,
    bracket_closure,
    operator_family,
    pde_completeness,
    report_to_dict,
    verify_first_integral,
)
from .dsl import parse_system, serialize, system_to_dict
from .expr import Expr, ExprError, ParseError
from .linalg import locus_texts
from .systems import (
    System,
    SystemError,
    normal_pde_to_td,
    pde_normalize,
    pfaff_to_td,
    td_defect_reduction,
    td_to_pfaff,
)

USAGE_ERROR = 2
VERIFY_FAILURE = 1


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _load_system(path: str) -> System:
    file_path = Path(path)
    if not file_path.exists():
        raise CliError(f"input file not found: {path}")
    try:
        return parse_system(
            file_path.read_text(encoding="utf-8"),
            name=file_path.stem,
            source=str(file_path),
        )
    except (SystemError, ExprError) as error:
        raise CliError(f"{path}: {error}") from error


def _parse_integrals(system: System, texts: list[str]) -> list[Expr]:
    integrals = []
    for text in texts:
        try:
            integrals.append(system.scope.parse(text))
        except ParseError as error:
            raise CliError(f"bad --integral {text!r}: {error}") from error
    return integrals


def _emit(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(human if human.endswith("\n") else human + "\n")


def _human_report(report) -> str:
    lines = [
        f"kind: {report.kind}",
        f"vars: {' '.join(report.variables)}",
        f"rank: {'ok' if report.rank_ok else 'DEFICIENT'}",
    ]
    verdict = "yes" if report.verdict else "no"
    witness = f"   (witness: {report.witness})" if report.witness else ""
    lines.append(f"{report.verdict_name}: {verdict}{witness}")
    if report.jacobian is not None:
        lines.append(f"jacobian: {'yes' if report.jacobian else 'no'}")
    lines.append(f"defect: {report.defect}")
    lines.append(f"dimension: {report.dimension}   ({report.dimension_note})")
    if report.added_generators:
        lines.append("added generators:")
        for step in report.added_generators:
            lines.append(
                f"  {step.name} = {step.describe()} -> {step.operator.print()}"
            )
    if report.excluded_locus:
        loci = ", ".join(locus_texts(report.excluded_locus))
        lines.append(f"excluded locus: {loci}")
    for certificate in report.integrals:
        status = "valid" if certificate.valid else "INVALID"
        lines.append(f"integral {certificate.integral.print()}: {status}")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    system = _load_system(args.input)
    integrals = _parse_integrals(system, args.integral)
    try:
        report = analyze(
            system,
            integrals=integrals,
            seed=args.seed,
            method=args.method,
            max_generators=args.max_generators,
        )
    except MethodDisagreement as error:
        raise CliError(f"internal method disagreement: {error}", code=USAGE_ERROR)
    _emit(report_to_dict(report), args.json, _human_report(report))
    if args.expect_valid and any(not c.valid for c in report.integrals):
        return VERIFY_FAILURE
    return 0


def _cmd_verify(args) -> int:
    system = _load_system(args.input)
    if not args.integral:
        raise CliError("verify requires at least one --integral")
    integrals = _parse_integrals(system, args.integral)
    certificates = [
        verify_first_integral(system, integral, seed=args.seed)
        for integral in integrals
    ]
    results = [certificate.to_dict() for certificate in certificates]
    payload = {"kind": system.kind, "integrals": results, "seed": args.seed}
    human = "\n".join(
        f"{entry['expr']}: {entry['verdict']}" for entry in results
    )
    _emit(payload, args.json, human)
    if args.expect_valid and any(not c.valid for c in certificates):
        return VERIFY_FAILURE
    return 0


def _convert(system: System, target: str, pivots: list[str] | None):
    kind = system.kind
    if pivots and (target == "pde" or (kind == "td" and target != "normal")):
        raise CliError(
            f"--pivots does not apply to {kind} -> {target}: only pfaff -> td, "
            "td -> normal and pde -> normal, td or pfaff take pivots"
        )
    if target == "pde" and kind != "pde":
        pde, excluded = operator_family(system)
        if pde is None:
            raise CliError(
                "a square Pfaff system has no operator family: "
                "its coordinates are first integrals"
            )
        return System(kind="pde", pde=pde), excluded
    if kind == "td" and target == "pfaff":
        return System(kind="pfaff", pfaff=td_to_pfaff(system.td)), frozenset()
    if kind == "td" and target == "td":
        reduced, excluded = td_defect_reduction(system.td)
        return System(kind="td", td=reduced), excluded
    if kind == "pfaff" and target == "td":
        td, excluded = pfaff_to_td(system.pfaff, pivot_cols=pivots)
        return System(kind="td", td=td), excluded
    if kind != "pfaff" and target != "pde":  # td -> normal, pde -> normal/td/pfaff
        normalized, excluded = pde_normalize(
            operator_family(system)[0], pivots=pivots
        )
        if target == "normal":
            return System(kind="pde", pde=normalized), excluded
        td = normal_pde_to_td(normalized)
        if target == "td":
            return System(kind="td", td=td), excluded
        return System(kind="pfaff", pfaff=td_to_pfaff(td)), excluded
    raise CliError(f"cannot convert a {kind} system to {target!r}")


def _cmd_convert(args) -> int:
    system = _load_system(args.input)
    pivots = args.pivots.split(",") if args.pivots else None
    try:
        converted, excluded = _convert(system, args.to, pivots)
    except (SystemError, ExprError) as error:
        raise CliError(str(error)) from error
    converted.excluded_locus = excluded
    converted.name = system.name
    converted.source = system.source
    if args.json:
        _emit(system_to_dict(converted), True, "")
    else:
        sys.stdout.write(serialize(converted))
    return 0


def _cmd_complete(args) -> int:
    system = _load_system(args.input)
    pde, family_excluded = operator_family(system)
    if pde is None:  # a square Pfaff system is complete as it stands
        added, excluded, capped = [], frozenset(), False
        completed = System(kind=system.kind, pfaff=system.pfaff, name=system.name)
    else:
        closure = bracket_closure(pde, max_generators=args.max_generators)
        added, capped = closure.added, closure.capped
        # the completed operators divide by the contragredient's frame pivots
        excluded = family_excluded | closure.excluded
        completed = System(kind="pde", pde=closure.completed, name=system.name)
    payload = {
        "kind": system.kind,
        "defect": len(added),
        "capped": capped,
        "added_generators": [step.to_dict() for step in added],
        "excluded_locus": locus_texts(excluded),
        "system": system_to_dict(completed),
    }
    human_lines = [f"defect: {len(added)}"]
    for step in added:
        human_lines.append(
            f"added {step.name} = {step.describe()} -> {step.operator.print()}"
        )
    human_lines.append(serialize(completed).rstrip("\n"))
    _emit(payload, args.json, "\n".join(human_lines))
    return 0


def _cmd_bracket(args) -> int:
    system = _load_system(args.input)
    pde, _ = operator_family(system)
    if pde is None:  # a square Pfaff system has no operators to bracket
        result = CompletenessResult(complete=True, jacobian=True, certificates={})
    else:
        result = pde_completeness(pde)
    rows = []
    for (i, j), certificate in sorted(result.certificates.items()):
        bracket = result.brackets[(i, j)]
        entry = {
            "pair": f"[{pde.names[i]},{pde.names[j]}]",
            "bracket": bracket.print(),
            "in_span": certificate.member,
        }
        if certificate.member and certificate.coefficients is not None:
            entry["coefficients"] = [c.print() for c in certificate.coefficients]
        rows.append(entry)
    payload = {
        "kind": system.kind,
        "complete": result.complete,
        "jacobian": result.jacobian,
        "brackets": rows,
        "witness": result.witness_bracket.print()
        if result.witness_bracket is not None
        else None,
    }
    human = "\n".join(
        f"{row['pair']} = {row['bracket']}"
        + ("  (in span)" if row["in_span"] else "  (NOT in span)")
        for row in rows
    ) or "no bracket pairs"
    human += f"\ncomplete: {'yes' if result.complete else 'no'}"
    _emit(payload, args.json, human)
    return 0


_EXPECTED_KEYS = ("solvable", "complete", "closed")


def _check_one_fixture(path: Path, seed: int) -> tuple[bool, dict]:
    sidecar = path.with_suffix(".expected.json")
    if not sidecar.exists():
        raise CliError(f"missing sidecar {sidecar.name}")
    expected = json.loads(sidecar.read_text(encoding="utf-8"))
    system = parse_system(
        path.read_text(encoding="utf-8"), name=path.stem, source=str(path)
    )
    integrals = [
        system.scope.parse(item["expr"]) for item in expected.get("integrals", [])
    ]
    report = analyze(system, integrals=integrals, seed=seed)
    actual = {
        "defect": report.defect,
        "dimension": report.dimension,
        report.verdict_name: report.verdict,
        "integrals": [
            {"expr": item["expr"], "valid": certificate.valid}
            for item, certificate in zip(
                expected.get("integrals", []), report.integrals
            )
        ],
    }
    mismatches = {}
    for key in _EXPECTED_KEYS + ("defect", "dimension"):
        if key in expected and expected[key] != actual.get(key):
            mismatches[key] = {"expected": expected[key], "actual": actual.get(key)}
    for item, got in zip(expected.get("integrals", []), actual["integrals"]):
        if item["valid"] != got["valid"]:
            mismatches.setdefault("integrals", []).append(
                {"expr": item["expr"], "expected": item["valid"], "actual": got["valid"]}
            )
    passed = not mismatches
    record = {
        "name": path.stem,
        "status": "ok" if passed else "mismatch",
    }
    if mismatches:
        record["diff"] = mismatches
    return passed, record


def _cmd_check_fixtures(args) -> int:
    directory = Path(args.input)
    if not directory.is_dir():
        raise CliError(f"not a directory: {args.input}")
    paths = sorted(directory.glob("*.dsys"))
    if not paths:
        raise CliError(f"no .dsys fixtures in {args.input}")
    records = []
    all_passed = True
    for path in paths:
        try:
            passed, record = _check_one_fixture(path, args.seed)
        except (SystemError, ExprError) as error:
            raise CliError(f"{path.name}: {error}") from error
        records.append(record)
        all_passed = all_passed and passed
    payload = {
        "fixtures": records,
        "passed": sum(1 for r in records if r["status"] == "ok"),
        "failed": sum(1 for r in records if r["status"] != "ok"),
        "seed": args.seed,
    }
    human = "\n".join(
        f"{record['name']}: {record['status']}"
        + (f"  {json.dumps(record['diff'])}" if "diff" in record else "")
        for record in records
    )
    human += f"\n{payload['passed']} passed, {payload['failed']} failed"
    _emit(payload, args.json, human)
    return 0 if all_passed else VERIFY_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobenius",
        description=(
            "Integrability analysis of total differential, linear PDE, "
            "and Pfaff systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("input", help="system file (.dsys) or directory")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="oracle sampling seed")

    p_analyze = sub.add_parser("analyze", help="full integrability report")
    common(p_analyze, seeded=True)
    p_analyze.add_argument("--integral", action="append", default=[])
    p_analyze.add_argument("--expect-valid", action="store_true")
    p_analyze.add_argument(
        "--method",
        choices=("wedge", "contragredient", "both"),
        default="both",
        help="Pfaff closure method",
    )
    p_analyze.add_argument("--max-generators", type=int, default=None)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="verify candidate first integrals")
    common(p_verify, seeded=True)
    p_verify.add_argument("--integral", action="append", default=[])
    p_verify.add_argument("--expect-valid", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_convert = sub.add_parser("convert", help="convert between representations")
    common(p_convert)
    p_convert.add_argument(
        "--to", required=True, choices=("td", "pde", "pfaff", "normal")
    )
    p_convert.add_argument("--pivots", default=None, help="comma-separated names")
    p_convert.set_defaults(func=_cmd_convert)

    p_complete = sub.add_parser("complete", help="bracket-closure completion")
    common(p_complete)
    p_complete.add_argument("--max-generators", type=int, default=None)
    p_complete.set_defaults(func=_cmd_complete)

    p_bracket = sub.add_parser("bracket", help="pairwise bracket table")
    common(p_bracket)
    p_bracket.set_defaults(func=_cmd_bracket)

    p_check = sub.add_parser(
        "check-fixtures", help="run a fixture directory against sidecars"
    )
    common(p_check, seeded=True)
    p_check.set_defaults(func=_cmd_check_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as error:
        sys.stderr.write(f"error: {error}\n")
        return error.code
    except (SystemError, ExprError) as error:
        sys.stderr.write(f"error: {error}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
