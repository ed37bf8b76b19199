"""Command-line behaviour of the scripts under ``scripts/``."""

import ast
import importlib.util
from pathlib import Path

import pytest

from gwfloor.diagrams import MAX_DEGREE as TOP
from gwfloor.springer import MAX_TOWER_VARS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_imports_no_private_check_name(path):
    """A script uses only public gwfloor names: it imports no ``_``-prefixed
    name from any gwfloor module, and reads none off a name it imported."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gwfloor":
            assert not [a.name for a in node.names if a.name.startswith("_")], node.module
            imported.update(a.asname or a.name for a in node.names)
        if isinstance(node, ast.Import):
            imported.update(
                a.asname or a.name.split(".")[0]
                for a in node.names
                if a.name.split(".")[0] == "gwfloor"
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            assert not (isinstance(node.value, ast.Name) and node.value.id in imported)


class TestPfisterTower:
    def test_negative_levels_is_a_usage_error(self, capsys):
        main = load_script("pfister_tower").main
        assert main(["--levels", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--levels must be nonnegative, got -1" in err

    def test_levels_above_the_tower_bound_build_nothing(self, capsys, monkeypatch):
        module = load_script("pfister_tower")
        monkeypatch.setattr(module, "pfister_specs", lambda levels: pytest.fail("built specs"))
        top = MAX_TOWER_VARS + 1
        assert module.main(["--levels", str(top)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --levels must be at most {MAX_TOWER_VARS}, got {top}\n"

    def test_small_tower_verifies(self, capsys):
        main = load_script("pfister_tower").main
        assert main(["--levels", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "tower verified"
        assert len(out.splitlines()) == 4


class TestRankSweep:
    def test_default_ranges_pass(self, capsys):
        assert load_script("rank_sweep").main([]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "10 checks, 0 failed"

    def test_degree_four_names_unsupported_configurations(self, capsys):
        """The sweep CI runs at d = 4, s = 0..5: its stdout is pinned byte
        for byte, naming the three unsupported configurations."""
        main = load_script("rank_sweep").main
        assert main(["--max-degree", "4"]) == 0
        out = capsys.readouterr().out
        for cfg in ["(1, 3, 5, 7)", "(1, 3, 5, 7, 9)", "(1, 3, 5, 7, 10)"]:
            assert f" {cfg}" in out
        assert out.encode() == (GOLDEN / "rank_sweep_d4.txt").read_bytes()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-degree", "0"], f"--max-degree must be in 1..{TOP}, got 0"),
            (
                ["--max-degree", str(TOP + 1)],
                f"--max-degree must be in 1..{TOP}, got {TOP + 1}",
            ),
        ],
    )
    def test_bad_range_is_a_usage_error(self, capsys, argv, message):
        assert load_script("rank_sweep").main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_max_pairs_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            load_script("rank_sweep").main(["--max-pairs", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-pairs 5" in capsys.readouterr().err


class TestWallcrossSweep:
    def test_default_degrees_pass(self, capsys):
        """With no --degrees the sweep runs the degrees verify gates,
        ``checks.SHIFT_DEGREES``: the 48 checks of 2,3."""
        assert load_script("wallcross_sweep").main(["--degrees", "2,3"]) == 0
        explicit = capsys.readouterr().out
        assert explicit.splitlines()[-1] == "48 checks, 0 failed"
        assert load_script("wallcross_sweep").main([]) == 0
        assert capsys.readouterr().out == explicit

    def test_degree_four_is_pinned(self, capsys):
        """Every degree-4 check passes.  The three unsupported shifts have
        no residual row: their level rows name them, and the rows of
        supported sources name their unsupported target."""
        assert load_script("wallcross_sweep").main(["--degrees", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "237 checks, 0 failed"
        assert "FAIL" not in out
        mended = [line for line in out.splitlines() if line.endswith(
            "59 dissolved targets; 1 unsupported: (1, 3, 5, 7) -> (1, 3, 5, 8)"
        )]
        assert len(mended) == 3
        assert all(line.startswith("  ok   residual-transfer:d=4:") for line in mended)
        assert "residual-transfer:d=4:1,3,5,7>" not in out
        assert out.encode() == (GOLDEN / "wallcross_sweep_d4.txt").read_bytes()

    @pytest.mark.parametrize(
        "degrees, named",
        [
            pytest.param(degrees, named, id=degrees)
            for degrees, named in [
                (str(TOP + 1), f"got '{TOP + 1}'"),
                ("x", "got 'x'"),
                ("1", "got '1'"),
                (f"2,{TOP + 1}", f"got '2,{TOP + 1}'"),
                ("", "got ''"),
                ("2,,3", "got '2,,3'"),
                ("2,2", "once each, got 2 more than once in '2,2'"),
                ("3,2,4,3", "once each, got 3 more than once in '3,2,4,3'"),
            ]
        ],
    )
    def test_bad_degrees_are_a_usage_error(self, capsys, degrees, named):
        assert load_script("wallcross_sweep").main(["--degrees", degrees]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: --degrees must list degrees in 2..{TOP}")
        assert err.endswith(f"{named}\n")

    def test_verbose_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            load_script("wallcross_sweep").main(["--verbose"])
        assert exc.value.code == 2
