"""Time to a verdict: one workload of frobenius ``analyze`` calls.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; frobenius is imported from ``src/``.  One
process analyses one system after another (a closed loop with one client and
no threads), in whole passes over the workload's systems, until ``--seconds``
of wall time have passed.  Every call takes ``.dsys`` text to printed JSON.
Times are CPU seconds of this process (``time.process_time``): the loop is
single-threaded and never waits, so on an idle machine they equal wall time,
and on a shared one they leave out the time the CPU was taken away.  The
first pass's output is checked for correctness apart from the program, and
every later pass must print the same bytes.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, which are the end-to-end metrics with ``--trace 0`` and the
per-pass, per-layer metrics of ``tracing.py`` with ``--trace 1``.  Result
and trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fixtures", "poly_closure", "rational_td")


@dataclass
class Case:
    """One system: a timed call from text to JSON, and its check."""

    name: str
    call: Callable[[], tuple[int, str]]  # (exit code, printed JSON)
    check: Callable[[dict, random.Random], list[str]]


def fixture_cases(seed: int) -> list[Case]:
    from frobenius import cli, dsl

    from check import check_fixture

    cases = []
    for path in sorted((ROOT / "fixtures").glob("*.dsys")):
        dsl.parse_system(path.read_text(encoding="utf-8"), name=path.stem)
        expected = json.loads(path.with_suffix(".expected.json").read_text(encoding="utf-8"))
        argv = ["analyze", str(path), "--json", "--seed", str(seed)]
        for item in expected.get("integrals", []):
            argv += ["--integral", item["expr"]]

        def call(argv=argv) -> tuple[int, str]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        cases.append(Case(path.stem, call, lambda report, rng, e=expected: check_fixture(report, e)))
    return cases


def generated_cases(workload: str, seed: int) -> list[Case]:
    from frobenius import analysis, dsl

    from check import check_involutive, check_planted
    from generate import workload as generate

    cases = []
    for gen in generate(workload, seed):
        dsl.parse_system(gen.text, name=gen.name)  # inputs must parse before timing
        integrals = [p.dsl() for p in gen.integrals]

        def call(gen=gen, integrals=integrals) -> tuple[int, str]:
            system = dsl.parse_system(gen.text, name=gen.name)
            report = analysis.analyze(
                system, [system.scope.parse(text) for text in integrals], seed=seed
            )
            return 0, json.dumps(analysis.report_to_dict(report), indent=2) + "\n"

        def check(report, rng, gen=gen) -> list[str]:
            return check_planted(gen, report, rng) + check_involutive(gen, report, rng)

        cases.append(Case(gen.name, call, check))
    return cases


def run(cases: list[Case], seconds: float, tracer=None) -> dict:
    """Whole passes over the cases until the time is up.

    A tracer keeps the spans of the first pass only, so the trace file's
    size does not grow with the run's length.
    """
    passes: list[list[float]] = []
    first: list[str | None] = []
    failed = 0
    mismatched: list[str] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        durations = []
        for index, case in enumerate(cases):
            begin = time.process_time()
            try:
                code, text = case.call()
            except Exception as error:  # a failed call is counted, not fatal
                code, text = -1, None
                print(f"{case.name}: {type(error).__name__}: {error}", file=sys.stderr)
            durations.append(time.process_time() - begin)
            if code != 0:
                failed += 1
                text = None
            if not passes:
                first.append(text)
            elif text != first[index] and case.name not in mismatched:
                mismatched.append(case.name)
        passes.append(durations)
        if tracer:
            tracer.keep_spans = False
    return {
        "passes": passes,
        "first": first,
        "failed": failed,
        "mismatched": mismatched,
    }


def check_outputs(cases: list[Case], result: dict, seed: int) -> list[str]:
    rng = random.Random(f"check-{seed}")
    errors = [f"{name}: output differs between passes" for name in result["mismatched"]]
    for case, text in zip(cases, result["first"]):
        if text is not None:
            errors += [f"{case.name}: {e}" for e in case.check(json.loads(text), rng)]
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "frobenius").is_dir() or not (ROOT / "fixtures").is_dir():
        print(f"error: no frobenius sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.workload == "fixtures":
        cases = fixture_cases(args.seed)
    else:
        cases = generated_cases(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.process_time()
    result = run(cases, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = check_outputs(cases, result, args.seed)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    passes = result["passes"]
    durations = [d for durations in passes for d in durations]
    attempted = len(durations)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "verdicts_per_s": {
            "value": statistics.median(len(p) / sum(p) for p in passes),
            "unit": "1/s",
        },
        "verdict_s_p50": {"value": statistics.median(durations), "unit": "s"},
        "slowest_verdict_s": {"value": statistics.median(max(p) for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    summary = {
        "correct": not errors,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": tracer.metrics(len(passes)) if tracer else end_to_end,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(
        summary,
        pass_seconds=[sum(p) for p in passes],
        end_to_end=end_to_end,
        errors=errors,
    )
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        spans = [dict(zip(("id", "parent", "name", "start", "end"), s)) for s in tracer.spans]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
