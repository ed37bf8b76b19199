"""Golden stdout: each command's output must stay byte for byte the same.

Each file under ``tests/golden/`` holds the standard output of one
command: ``.json`` for the JSON document alone, ``.txt`` when ``--table``
appends its text rendering.  A change that alters any of these outputs, however slightly,
changes the documented results and must regenerate the file on purpose.
"""

from pathlib import Path

import pytest

from gwfloor.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "enumerate_d3": ["enumerate", "--degree", "3"],
    "enumerate_d3_table": ["enumerate", "--degree", "3", "--table"],
    "count_d4_3_6_9": ["count", "--degree", "4", "--merge", "3,6,9"],
    "count_d3_5_7_real": [
        "count", "--degree", "3", "--merge", "5,7", "--field", "real", "--signs=--",
    ],
    "wallcross_d3_4_5": [
        "wallcross", "--degree", "3", "--merge-from", "4", "--merge-to", "5",
    ],
    "wallcross_d3_4_5_table": [
        "wallcross", "--degree", "3", "--merge-from", "4", "--merge-to", "5", "--table",
    ],
    "pfister_3": ["pfister", "--vars", "3"],
    "verify_all": ["verify", "--suite", "all"],
    "verify_wallcross_table": ["verify", "--suite", "wallcross", "--table"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    argv = COMMANDS[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    suffix = ".txt" if "--table" in argv else ".json"
    assert out.encode() == (GOLDEN / f"{name}{suffix}").read_bytes()
