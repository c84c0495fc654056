"""End-to-end command-line behavior, exit codes, and determinism."""

import json
import os
import subprocess
import sys

import pytest

from conftest import FIXTURES


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "frobenius.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestAnalyze:
    def test_json_report_dimension(self):
        result = run_cli("analyze", str(FIXTURES / "ex_3_2.dsys"), "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["verdict"] == {"solvable": True}
        assert payload["dimension"] == 3

    def test_human_readable_default(self):
        result = run_cli("analyze", str(FIXTURES / "ex_1_7.dsys"))
        assert result.returncode == 0
        assert "solvable: no" in result.stdout
        assert "defect: 1" in result.stdout

    def test_missing_file_is_usage_error(self):
        result = run_cli("analyze", "no_such_file.dsys")
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_malformed_input_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.dsys"
        bad.write_text("kind: td\nindep: t1\ndep: x1\neq x1: ((\n")
        result = run_cli("analyze", str(bad))
        assert result.returncode == 2


class TestVerify:
    def test_valid_integral_exits_zero(self):
        result = run_cli(
            "verify",
            str(FIXTURES / "ex_4_6.dsys"),
            "--integral",
            "x*y^2*z^3",
            "--expect-valid",
        )
        assert result.returncode == 0
        assert "valid" in result.stdout

    def test_invalid_integral_fails_expectation(self):
        result = run_cli(
            "verify",
            str(FIXTURES / "ex_4_6.dsys"),
            "--integral",
            "x",
            "--expect-valid",
        )
        assert result.returncode == 1

    def test_invalid_without_expectation_reports_only(self):
        result = run_cli(
            "verify", str(FIXTURES / "ex_4_6.dsys"), "--integral", "x"
        )
        assert result.returncode == 0
        assert "invalid" in result.stdout

    def test_multipliers_in_json(self):
        result = run_cli(
            "verify",
            str(FIXTURES / "ex_4_6.dsys"),
            "--integral",
            "x*y^2*z^3",
            "--json",
        )
        payload = json.loads(result.stdout)
        assert payload["integrals"][0]["multipliers"] == ["y*z^2"]

    def test_tiny_kernel_value_gets_a_witness_point(self):
        """A residual below any float threshold is still provably nonzero."""
        result = run_cli(
            "verify",
            str(FIXTURES / "ex_1_7.dsys"),
            "--json",
            "--integral",
            "exp(-100)*x1",
        )
        assert result.returncode == 0
        entry = json.loads(result.stdout)["integrals"][0]
        assert entry["verdict"] == "invalid"
        assert entry["witness_point"]
        assert entry["witness_value"].endswith("e-44")

    def test_kernel_order_does_not_depend_on_process_history(self):
        """Kernels interned earlier in the process must not reorder output."""
        script = (
            "import sys\n"
            "from frobenius.cli import main\n"
            "from frobenius.expr import Scope\n"
            "if sys.argv[1] == 'warm':\n"
            "    scope = Scope(['x1', 'x2', 'x3'])\n"
            "    scope.parse('exp(x3)')\n"
            "    scope.parse('exp(x2)')\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        argv = [
            "verify",
            str(FIXTURES / "ex_1_3.dsys"),
            "--json",
            "--integral",
            "exp(x2) + exp(x3)",
        ]
        fresh, warm = (
            subprocess.run(
                [sys.executable, "-c", script, mode, *argv],
                capture_output=True,
            )
            for mode in ("fresh", "warm")
        )
        assert fresh.returncode == warm.returncode == 0
        assert b'"exp(x2) + exp(x3)"' in fresh.stdout
        assert warm.stdout == fresh.stdout


class TestConvert:
    def test_pfaff_to_td_with_pivots(self):
        result = run_cli(
            "convert",
            str(FIXTURES / "ex_4_8.dsys"),
            "--to",
            "td",
            "--pivots",
            "x1,x2",
        )
        assert result.returncode == 0
        assert "eq x1: -3/2*x3/x1 | -3/2*x4/x1" in result.stdout
        assert "eq x2: -1/2*x3/x2 | -1/2*x4/x2" in result.stdout

    def test_td_defect_reduction(self):
        result = run_cli(
            "convert", str(FIXTURES / "ex_1_7.dsys"), "--to", "td"
        )
        assert result.returncode == 0
        assert "indep: t1 t2 x2" in result.stdout
        assert "eq x1: x1 | 3*x1 | 0" in result.stdout

    def test_pde_normalization_pivot_branch(self):
        result = run_cli(
            "convert",
            str(FIXTURES / "ex_2_23.dsys"),
            "--to",
            "normal",
            "--pivots",
            "x1",
        )
        assert result.returncode == 0
        assert "pivots: x1" in result.stdout

    BAD_PIVOTS = [
        ("ex_3_2", "normal", "x1,x1", "pivots must be distinct"),
        ("ex_3_2", "normal", "zz", "pivots name undeclared variables ['zz']"),
        ("ex_3_2", "normal", "x1,x2", "singular pivot choice"),
        ("ex_3_2", "normal", "t1,t2,x1", "3 pivots for 2 operators"),
        # conversions that take no pivots reject them, even undeclared ones
        ("ex_1_3", "td", "zz", "--pivots does not apply to td -> td"),
        ("ex_1_3", "pfaff", "x1", "--pivots does not apply to td -> pfaff"),
        ("ex_1_3", "pde", "x1", "--pivots does not apply to td -> pde"),
        ("ex_2_23", "pde", "x1", "--pivots does not apply to pde -> pde"),
        ("ex_4_1", "pde", "nope", "--pivots does not apply to pfaff -> pde"),
    ]

    @pytest.mark.parametrize(
        "fixture, target, pivots, message",
        BAD_PIVOTS,
        ids=[f"{pivots}-{message}" for _, _, pivots, message in BAD_PIVOTS],
    )
    def test_bad_normal_pivots_are_usage_errors(
        self, fixture, target, pivots, message
    ):
        """Bad pivots for a normal form, and pivots for a conversion that
        takes none, are usage errors."""
        result = run_cli(
            "convert",
            str(FIXTURES / f"{fixture}.dsys"),
            "--to",
            target,
            "--pivots",
            pivots,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and message in result.stderr
        assert "Traceback" not in result.stderr
        if "does not apply" in message:
            taking = "only pfaff -> td, td -> normal and pde -> normal, td or pfaff"
            assert f"{taking} take pivots" in result.stderr

    def test_output_reparses(self, tmp_path):
        result = run_cli(
            "convert", str(FIXTURES / "ex_1_15.dsys"), "--to", "pfaff"
        )
        assert result.returncode == 0
        out = tmp_path / "converted.dsys"
        out.write_text(result.stdout)
        again = run_cli("analyze", str(out), "--json")
        assert again.returncode == 0
        assert json.loads(again.stdout)["kind"] == "pfaff"

    def test_pfaff_to_pde_is_the_contragredient(self):
        result = run_cli(
            "convert", str(FIXTURES / "ex_4_6.dsys"), "--to", "pde", "--json"
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["kind"] == "pde"
        assert payload["metadata"]["excluded_locus"] == ["y", "z"]

    def test_square_pfaff_has_no_pde_family(self):
        result = run_cli("convert", str(FIXTURES / "ex_4_2.dsys"), "--to", "pde")
        assert result.returncode == 2
        assert "square Pfaff system has no operator family" in result.stderr
        assert "its coordinates are first integrals" in result.stderr
        assert "contragredient" not in result.stderr

    def test_json_mode_carries_metadata(self):
        result = run_cli(
            "convert",
            str(FIXTURES / "ex_4_8.dsys"),
            "--to",
            "td",
            "--pivots",
            "x1,x2",
            "--json",
        )
        payload = json.loads(result.stdout)
        assert payload["kind"] == "td"
        assert "2*x1 + x2 + 3" in payload["metadata"]["excluded_locus"]

    def test_convert_reads_each_systems_elimination(self, eliminations):
        """Parse plus ``convert --json`` of every fixture to every target.

        Normal forms and solved total differential forms read the cached
        elimination of the system's own matrix, and a defect reduction
        normalizes the closure's last family, whose solver its scan built:
        no matrix is eliminated twice.
        """
        from frobenius.cli import main

        total = 0
        repeated = []
        for path in sorted(FIXTURES.glob("*.dsys")):
            for target in ("td", "pde", "pfaff", "normal"):
                eliminations.clear()
                main(["convert", str(path), "--to", target, "--json"])
                total += len(eliminations)
                repeats = len(eliminations) - len(set(eliminations))
                if repeats:
                    repeated.append((path.stem, target, repeats))
        assert total <= 62
        assert repeated == []

    def test_td_normal_form_with_pivots_eliminates_once(self, eliminations):
        """``convert <td> --to normal --pivots v`` eliminates only the
        operator matrix, for every variable of every td fixture: it builds
        no span solver to compare pivot orders."""
        from conftest import load_fixture
        from frobenius.cli import main

        counts = {}
        for path in sorted(FIXTURES.glob("*.dsys")):
            system = load_fixture(path.stem)
            if system.kind != "td":
                continue
            for name in system.scope.names:
                eliminations.clear()
                main(["convert", str(path), "--to", "normal", "--pivots", name])
                counts[path.stem, name] = len(eliminations)
        assert len(counts) == 32
        assert set(counts.values()) == {1}


class TestCompleteAndBracket:
    def test_complete_emits_added_generators(self):
        result = run_cli("complete", str(FIXTURES / "ex_2_10.dsys"), "--json")
        payload = json.loads(result.stdout)
        assert payload["defect"] == 2
        assert payload["added_generators"][0]["from"] == "[l2,l1]"

    def test_bracket_table(self):
        result = run_cli("bracket", str(FIXTURES / "ex_2_32.dsys"))
        assert result.returncode == 0
        assert "[l1,l2]" in result.stdout
        assert "complete: yes" in result.stdout

    def test_max_generators_cap(self):
        result = run_cli(
            "complete",
            str(FIXTURES / "ex_2_10.dsys"),
            "--max-generators",
            "3",
            "--json",
        )
        payload = json.loads(result.stdout)
        assert payload["defect"] == 1
        assert payload["capped"] is True

    def test_closure_reaching_full_rank_is_not_capped(self):
        result = run_cli("complete", str(FIXTURES / "ex_3_7.dsys"), "--json")
        payload = json.loads(result.stdout)
        assert payload["defect"] == 2 and len(payload["system"]["entries"]) == 4
        assert payload["capped"] is False

    def test_analyze_warns_under_a_user_cap(self):
        result = run_cli(
            "analyze", str(FIXTURES / "ex_2_10.dsys"), "--max-generators", "3"
        )
        assert result.returncode == 0
        assert "warning: bracket closure stopped at the generator cap" in result.stdout

    def test_complete_square_pfaff(self):
        result = run_cli("complete", str(FIXTURES / "ex_4_2.dsys"), "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["defect"] == 0 and payload["capped"] is False
        assert payload["added_generators"] == [] and payload["excluded_locus"] == []
        assert payload["system"]["kind"] == "pfaff"
        assert payload["system"]["entries"][2] == "d(x1) + d(x2) + (x2 + 2)*d(x3)"

    def test_complete_pfaff_reports_the_contragredient_locus(self):
        completed = run_cli("complete", str(FIXTURES / "ex_4_6.dsys"), "--json")
        analyzed = run_cli("analyze", str(FIXTURES / "ex_4_6.dsys"), "--json")
        assert completed.returncode == 0 and analyzed.returncode == 0
        locus = json.loads(completed.stdout)["excluded_locus"]
        assert locus == ["y", "z"]
        assert locus == json.loads(analyzed.stdout)["excluded_locus"]

    @pytest.mark.parametrize(
        "name, rename, added",
        [
            # the dual operators of a Pfaff system are named g3 and g4
            ("ex_4_7", None, ["g5 = [g4,g3]"]),
            ("ex_2_10", ("op l2:", "op g3:"), ["g4 = [g3,l1]", "g5 = [l1,g4]"]),
        ],
    )
    def test_added_generators_get_untaken_names(self, tmp_path, name, rename, added):
        from frobenius.dsl import parse_system

        text = (FIXTURES / f"{name}.dsys").read_text()
        if rename is not None:
            text = text.replace(*rename)
        path = tmp_path / f"{name}.dsys"
        path.write_text(text)
        result = run_cli("complete", str(path))
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert [line.split(" -> ")[0] for line in lines[1 : 1 + len(added)]] == [
            f"added {step}" for step in added
        ]
        completed = parse_system("\n".join(lines[1 + len(added) :]) + "\n")
        assert completed.pde.m == len(completed.pde.names) == len(set(completed.pde.names))

    def test_bracket_square_pfaff(self):
        result = run_cli("bracket", str(FIXTURES / "ex_4_2.dsys"), "--json")
        assert result.returncode == 0
        assert json.loads(result.stdout) == {
            "kind": "pfaff",
            "complete": True,
            "jacobian": True,
            "brackets": [],
            "witness": None,
        }

    @pytest.mark.parametrize(
        "command", [["complete"], ["bracket"], ["convert", "--to", "td"]]
    )
    def test_seed_is_not_an_option(self, command):
        """Only analyze, verify and check-fixtures sample; the exact
        commands take no --seed."""
        result = run_cli(
            command[0], str(FIXTURES / "ex_1_3.dsys"), *command[1:], "--seed", "1"
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "unrecognized arguments: --seed 1" in result.stderr


class TestCheckFixtures:
    def test_full_corpus_passes(self):
        result = run_cli("check-fixtures", str(FIXTURES))
        assert result.returncode == 0
        assert "0 failed" in result.stdout

    def test_corrupted_expectation_fails(self, tmp_path):
        (tmp_path / "probe.dsys").write_text(
            (FIXTURES / "ex_2_32.dsys").read_text()
        )
        sidecar = json.loads(
            (FIXTURES / "ex_2_32.expected.json").read_text()
        )
        sidecar["dimension"] = 2  # wrong on purpose
        (tmp_path / "probe.expected.json").write_text(json.dumps(sidecar))
        result = run_cli("check-fixtures", str(tmp_path))
        assert result.returncode == 1
        assert "mismatch" in result.stdout

    def test_empty_directory_is_usage_error(self, tmp_path):
        result = run_cli("check-fixtures", str(tmp_path))
        assert result.returncode == 2

    def test_missing_sidecar_is_usage_error(self, tmp_path):
        (tmp_path / "probe.dsys").write_text(
            (FIXTURES / "ex_2_32.dsys").read_text()
        )
        result = run_cli("check-fixtures", str(tmp_path))
        assert result.returncode == 2
        assert "sidecar" in result.stderr


class TestHashSeed:
    """Loci are sets, whose iteration order follows the interpreter's hash
    seed; every output prints them sorted, so no output depends on it."""

    INTEGRALS = json.loads((FIXTURES / "ex_4_8.expected.json").read_text())[
        "integrals"
    ]
    RUNS = {
        "check-fixtures-seed-7": [
            "check-fixtures", "fixtures", "--json", "--seed", "7"
        ],
        "ex_4_8": [
            "analyze",
            "fixtures/ex_4_8.dsys",
            "--json",
            *(arg for i in INTEGRALS for arg in ("--integral", i["expr"])),
        ],
        "ex_4_8-to-td": ["convert", "fixtures/ex_4_8.dsys", "--to", "td", "--json"],
    }

    @pytest.mark.parametrize("golden", sorted(RUNS))
    def test_output_is_the_golden_under_each_hash_seed(self, golden):
        path = FIXTURES.parent / "tests" / "golden" / f"{golden}.json"
        expected = path.read_text(encoding="utf-8")
        for seed in ("0", "1"):
            result = subprocess.run(
                [sys.executable, "-m", "frobenius.cli", *self.RUNS[golden]],
                capture_output=True,
                text=True,
                cwd=FIXTURES.parent,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout == expected, f"PYTHONHASHSEED={seed}"
