"""Command-line interface: exit codes, JSON output, determinism."""

import functools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gwfloor
from gwfloor import cli, fields
from gwfloor.checks import SUITE_NAMES, run_suite
from gwfloor.cli import main
from gwfloor.diagrams import MAX_DEGREE
from gwfloor.springer import MAX_TOWER_VARS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@functools.cache
def _suite_ids(name, budget):
    return [c.check_id for c in run_suite(name, budget).checks]


# Runs one suite at one budget and prints, as a JSON list, the degree of
# every entry into ``diagrams``' degree check: each count and each
# enumeration passes it first.
_DEGREE_PROBE = """
import json, sys
from gwfloor import diagrams
from gwfloor.checks import run_suite

entered = []
check_degree = diagrams._check_degree

def recording(d):
    entered.append(d)
    check_degree(d)

diagrams._check_degree = recording
run_suite(sys.argv[1], int(sys.argv[2]))
print(json.dumps(entered))
"""


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestEnumerate:
    def test_degree_three(self, capsys):
        doc = run_json(capsys, "enumerate", "--degree", "3")
        assert doc["schema"] == "gwfloor/1"
        assert doc["d"] == 3
        assert doc["count"] == 9
        assert doc["rank"] == 12
        assert len(doc["diagrams"]) == 9

    def test_budget_enforced(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--degree", "5")
        assert code == 2
        assert f"outside supported range 1..{MAX_DEGREE}" in err


class TestCount:
    def test_symbolic(self, capsys):
        doc = run_json(capsys, "count", "--degree", "3", "--merge", "5,7")
        assert doc["schema"] == "gwfloor/1"
        assert doc["rank"] == 12

    def test_unknown_pairs(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--degree", "3", "--pairs", "1", "--merge", "5"
        )
        assert code == 2
        assert "unrecognized arguments: --pairs" in err

    @pytest.mark.parametrize("merge", ["8", "0", "3,8"])
    def test_position_out_of_range_names_the_range(self, capsys, merge):
        code, out, err = run_cli(capsys, "count", "--degree", "3", "--merge", merge)
        assert code == 2
        assert "positions must lie in 1..7" in err
        assert "ascending" not in err

    @pytest.mark.parametrize("merge", ["5,,7", "5,7,", ",5"])
    def test_empty_position_is_a_usage_error(self, capsys, merge):
        code, out, err = run_cli(capsys, "count", "--degree", "3", "--merge", merge)
        assert code == 2
        assert out == ""
        assert err == f"error: expected comma-separated integers, got {merge!r}\n"

    def test_empty_merge_is_no_pairs(self, capsys):
        assert run_json(capsys, "count", "--degree", "3", "--merge", "") == run_json(
            capsys, "count", "--degree", "3"
        )

    def test_unsupported_configuration_is_a_usage_error(self, capsys):
        """The support table decides the configuration before anything is
        counted or printed; the message names the fused pairs."""
        code, out, err = run_cli(capsys, "count", "--degree", "4", "--merge", "1,3,5,7")
        assert code == 2
        assert out == ""
        assert err == "error: unsupported twin interaction between fused pairs [1, 3, 5, 7] (degree 4)\n"

    def test_adjacent_positions_name_the_gap(self, capsys):
        code, out, err = run_cli(capsys, "count", "--degree", "3", "--merge", "3,4")
        assert code == 2
        assert "positions must be ascending and at least 2 apart" in err

    def test_real_field(self, capsys):
        doc = run_json(
            capsys,
            "count",
            "--degree",
            "3",
            "--merge",
            "5,7",
            "--field",
            "real",
            "--signs=--",
        )
        assert doc["signature"] == 4
        assert doc["rank"] == 12

    def test_fq_field(self, capsys):
        doc = run_json(
            capsys,
            "count",
            "--degree",
            "2",
            "--field",
            "fq:5",
        )
        assert doc["rank"] == 1

    def test_closed_field(self, capsys):
        doc = run_json(capsys, "count", "--degree", "4", "--field", "closed")
        assert doc["rank"] == 620

    def test_bad_merge_config(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--degree", "3", "--merge", "5,6"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "options",
        [
            ["--field", "bogus"],
            ["--field", "fq:4"],
            ["--field", "fq:abc"],
            ["--field", "fq:1"],
            ["--field", "real", "--signs", "+-x"],
            ["--field", "fq:5", "--assign", "sq/xx/ns"],
        ],
        ids=" ".join,
    )
    def test_field_options_are_read_before_counting(self, capsys, monkeypatch, options):
        def refuse(d, cfg):
            raise AssertionError(f"counted degree {d} at {cfg}")

        monkeypatch.setattr(cli, "floor_count", refuse)
        code, out, err = run_cli(capsys, "count", "--degree", "4", "--merge", "3,6,9", *options)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_field(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--degree", "2", "--field", "fq:4"
        )
        assert code == 2
        # a malformed order names the models there are
        code, out, err = run_cli(
            capsys, "count", "--degree", "2", "--field", "fq:abc"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: unknown field model 'fq:abc'; expected real, closed, "
            "or fq:Q for an odd prime power Q\n"
        )

    def test_order_above_the_bound_is_refused_before_factoring(self, capsys, monkeypatch):
        """1000000000039 is a prime just above 10^12, refused without
        factoring it."""

        def refuse(q):
            raise AssertionError(f"factored {q}")

        monkeypatch.setattr(fields, "factor_prime_power", refuse)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "count", "--degree", "2", "--merge", "1", "--field", "fq:1000000000039"
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            "error: finite-field model needs an odd prime power 3 < q <= 10^12, "
            "got 1000000000039\n"
        )

    @pytest.mark.parametrize("assign", ["sq", "ns"])
    def test_largest_order_reads_like_five(self, capsys, assign):
        """999999999989, the largest prime below 10^12, is 5 mod 8 like 5:
        -1 is a square and 2 is not, so the documents differ only in the
        field they name."""
        big, small = (
            run_json(capsys, "count", "--degree", "2", "--merge", "1", "--field", f"fq:{q}",
                     "--assign", assign)
            for q in (999999999989, 5)
        )
        assert big.pop("field") == "fq:999999999989"
        assert small.pop("field") == "fq:5"
        assert big == small

    def test_sign_count_mismatch(self, capsys):
        code, out, err = run_cli(
            capsys,
            "count",
            "--degree",
            "3",
            "--merge",
            "5,7",
            "--field",
            "real",
            "--signs",
            "+",
        )
        assert code == 2


    def test_signs_need_real_field(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--degree", "3", "--merge", "5", "--signs=-"
        )
        assert code == 2
        assert "--field symbolic" in err
        assert not out

    def test_assign_needs_finite_field(self, capsys):
        code, out, err = run_cli(
            capsys,
            "count",
            "--degree",
            "3",
            "--merge",
            "5",
            "--field",
            "real",
            "--assign",
            "ns",
        )
        assert code == 2
        assert "--field real" in err
        assert not out


class TestWallcross:
    def test_unit_shift(self, capsys):
        doc = run_json(
            capsys,
            "wallcross",
            "--degree",
            "3",
            "--merge-from",
            "4",
            "--merge-to",
            "5",
        )
        assert doc["passed"] is True
        assert doc["n1"] == 0 and doc["n2"] == 0

    def test_unknown_sweep(self, capsys):
        code, out, err = run_cli(
            capsys,
            "wallcross",
            "--degree",
            "2",
            "--merge-from",
            "1",
            "--merge-to",
            "2",
            "--sweep",
            "exotic",
        )
        assert code == 2


class TestPfister:
    def test_verdict(self, capsys):
        doc = run_json(capsys, "pfister", "--vars", "3")
        assert doc["schema"] == "gwfloor/1"
        assert doc["s"] == 3
        assert doc["verdict"] == "aniso"
        assert len(doc["form"]) == 16

    def test_vars_above_the_tower_bound_build_nothing(self, capsys, monkeypatch):
        def refuse(s):
            raise AssertionError(f"built a {s}-variable tower")

        monkeypatch.setattr(cli, "pfister_element", refuse)
        monkeypatch.setattr(cli, "pfister_concrete", refuse)
        top = MAX_TOWER_VARS + 1
        code, out, err = run_cli(capsys, "pfister", "--vars", str(top))
        assert code == 2
        assert out == ""
        assert err == f"error: --vars must be at most {MAX_TOWER_VARS}, got {top}\n"


class TestVerify:
    def test_springer_suite(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "springer")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "gwfloor/1"
        assert doc["passed"] is True
        assert all(c["ok"] for c in doc["checks"])

    def test_unknown_suite(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("budget", [1, 2, 3, 4])
    def test_budget_keeps_the_checks_of_its_degrees(self, budget):
        """Each suite at the budget lists its budget-4 checks, less those
        whose id names a higher degree, in the same order."""
        def degree(check_id):
            found = re.search(r"\bd=(\d+)", check_id)
            return int(found.group(1)) if found else 0

        for name in SUITE_NAMES:
            full = _suite_ids(name, 4)
            assert _suite_ids(name, budget) == [i for i in full if degree(i) <= budget], name

    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_budget_counts_no_higher_degree(self, name, budget):
        """Each degree that the run enters ``diagrams`` at, on the way
        into a count or an enumeration, is at most the budget.  A fresh
        interpreter starts with empty caches, so none hides a call."""
        src = Path(gwfloor.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _DEGREE_PROBE, name, str(budget)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        entered = set(json.loads(proc.stdout))
        assert entered <= set(range(1, budget + 1))
        if name == "all":  # the probe sees the counts it lets through
            assert budget in entered

    def test_table_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "springer", "--table"
        )
        assert code == 0
        assert "springer" in out


class TestOutput:
    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "count", "--degree", "3", "--merge", "3")
        _, out2, _ = run_cli(capsys, "count", "--degree", "3", "--merge", "3")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "count.json"
        code, out, err = run_cli(
            capsys,
            "count",
            "--degree",
            "2",
            "--out",
            str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["schema"] == "gwfloor/1"

    def test_unwritable_out_file_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "count.json"
        code, out, err = run_cli(capsys, "count", "--degree", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    def test_reader_closing_early_prints_no_traceback(self):
        # About 360 kB of JSON, far more than a pipe buffers, so the
        # writer is still printing when the reader goes away.
        src = Path(gwfloor.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "gwfloor", "pfister", "--vars", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""

    def test_usage_error_reports_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "count", "--degree", "0")
        assert code == 2
        assert err.strip()


@pytest.mark.parametrize(
    "argv",
    [
        *(
            [command, "--degree", degree, *extra]
            for command, extra in (
                ("enumerate", []),
                ("count", []),
                ("wallcross", ["--merge-from", "4", "--merge-to", "5"]),
            )
            for degree in ("0", "5")
        ),
        ["count", "--degree", "3", "--merge", "9"],
        ["count", "--degree", "3", "--merge", "5,6"],
        ["count", "--degree", "3", "--merge", "7,5"],
        ["wallcross", "--degree", "3", "--merge-from", "4", "--merge-to", "4,6"],
    ],
    ids=" ".join,
)
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--degree", "3"],
        ["count", "--degree", "3"],
        ["wallcross", "--degree", "3", "--merge-from", "4", "--merge-to", "5"],
        ["pfister", "--vars", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_unknown_budget(capsys, argv):
    """Only verify takes --budget: it selects checks there, and every
    other command's degree is checked by the library."""
    code, out, err = run_cli(capsys, *argv, "--budget", "4")
    assert code == 2
    assert "unrecognized arguments: --budget" in err


def test_readme_commands_run(capsys):
    """Every command of the README's command-line block exits 0, so the
    docs advertise no removed option."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("gwfloor ")]
    assert commands
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
