"""Golden stdout: each command's output must stay byte for byte the same.

Each file under ``tests/golden/`` holds the standard output of one
command: ``.json`` for the JSON document alone, ``.txt`` when ``--table``
appends its text rendering.  A change that alters any of these outputs, however slightly,
changes the documented results and must regenerate the file on purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gwfloor.checks import shift_levels
from gwfloor.cli import main
from gwfloor.diagrams import (
    UnsupportedShapeError,
    enumerate_merge_configs,
    enumerate_merged_diagrams,
    floor_count,
    floor_count_residual,
)
from gwfloor.wallcross import residual_report, unit_shift_pairs, wallcross_report

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
    "verify_sweep": ["verify", "--suite", "sweep"],
}


def _golden_name(name: str) -> str:
    return f"{name}.txt" if "--table" in COMMANDS[name] else f"{name}.json"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    code = main(COMMANDS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / _golden_name(name)).read_bytes()


def _all_counts() -> tuple[list, list]:
    """Both counts of every supported merge configuration at d <= 4, as
    canonical rows, and the configurations that raise."""
    rows, unsupported = [], []
    for d in range(1, 5):
        n = 3 * d - 1
        for s in range(n // 2 + 1):
            for cfg in enumerate_merge_configs(n, s):
                try:
                    count = floor_count(d, cfg).to_json()
                    residual = [
                        {"vars": list(labels), "coeff": [v.a, v.b]}
                        for labels, v in floor_count_residual(d, cfg).terms()
                    ]
                except UnsupportedShapeError:
                    unsupported.append([d, list(cfg)])
                    continue
                rows.append({"d": d, "cfg": list(cfg), "count": count, "residual": residual})
    return rows, unsupported


def test_every_count_at_degree_four_matches_golden():
    """Every supported count at d <= 4 in both rings, pinned by the sha256
    of their canonical JSON; ``counts_d4.json`` also lists the count and
    the unsupported configurations."""
    rows, unsupported = _all_counts()
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    golden = json.loads((GOLDEN / "counts_d4.json").read_text())
    assert len(rows) == golden["configurations"]
    assert unsupported == golden["unsupported"]
    assert hashlib.sha256(text.encode()).hexdigest() == golden["sha256"]


def test_every_merged_diagram_at_degree_four_matches_golden(capsys):
    """``enumerate --degree 4`` and, for every merge configuration at
    d <= 4, each merged diagram's ``to_json()`` and ``factors()``, pinned
    by sha256; ``merged_d4.json`` also lists how many merged diagrams
    there are and the message of every configuration that raises."""
    assert main(["enumerate", "--degree", "4"]) == 0
    enumerate_sha = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    digest, merged, unsupported = hashlib.sha256(), 0, []
    for d in range(1, 5):
        n = 3 * d - 1
        for s in range(n // 2 + 1):
            for cfg in enumerate_merge_configs(n, s):
                try:
                    diagrams = enumerate_merged_diagrams(d, cfg)
                except UnsupportedShapeError as exc:
                    unsupported.append([d, list(cfg), str(exc)])
                    continue
                for m in diagrams:
                    row = json.dumps([m.to_json(), m.factors()], sort_keys=True, separators=(",", ":"))
                    digest.update(row.encode() + b"\n")
                    merged += 1
    golden = json.loads((GOLDEN / "merged_d4.json").read_text())
    assert enumerate_sha == golden["enumerate_d4_sha256"]
    assert merged == golden["merged"]
    assert unsupported == golden["unsupported"]
    assert digest.hexdigest() == golden["sha256"]


def _all_reports() -> tuple[str, int, list]:
    """``wallcross_report`` and ``residual_report`` JSON of every unit
    shift at d = 2..4 over ``shift_levels(d)``, one canonical line per
    shift; also how many shifts are supported and the message of every
    shift whose counts raise."""
    lines, unsupported = [], []
    for d in range(2, 5):
        for s in shift_levels(d):
            for cfg_from, cfg_to in unit_shift_pairs(3 * d - 1, s):
                try:
                    row = [
                        wallcross_report(d, cfg_from, cfg_to).to_json(),
                        residual_report(d, cfg_from, cfg_to).to_json(),
                    ]
                except UnsupportedShapeError as exc:
                    unsupported.append([d, list(cfg_from), list(cfg_to), str(exc)])
                    continue
                lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines), len(lines), unsupported


def test_every_unit_shift_report_at_degree_four_matches_golden():
    """Both reports of every unit shift at d <= 4, pinned by the sha256 of
    their canonical JSON lines; ``reports_d4.json`` also lists how many
    shifts are supported and the message of every unsupported one."""
    text, shifts, unsupported = _all_reports()
    golden = json.loads((GOLDEN / "reports_d4.json").read_text())
    assert shifts == golden["shifts"]
    assert unsupported == golden["unsupported"]
    assert hashlib.sha256(text.encode()).hexdigest() == golden["sha256"]


@pytest.mark.parametrize("path", sorted(GOLDEN.iterdir()), ids=lambda p: p.name)
def test_every_golden_is_named_by_a_test(path):
    """A golden that no test names is read by nothing: it is the output
    of one of ``COMMANDS``, or some test module names its file."""
    if path.name in map(_golden_name, COMMANDS):
        return
    modules = Path(__file__).parent.glob("test_*.py")
    assert any(path.name in module.read_text() for module in modules)
