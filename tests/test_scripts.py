"""Command-line behaviour of the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPfisterTower:
    def test_negative_levels_is_a_usage_error(self, capsys):
        main = load_script("pfister_tower").main
        assert main(["--levels", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--levels must be nonnegative, got -1" in err

    def test_small_tower_verifies(self, capsys):
        main = load_script("pfister_tower").main
        assert main(["--levels", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "tower verified"
        assert len(out.splitlines()) == 4
