"""The mutant catalogue: one-line defects that ``verify`` must catch.

Each mutant is a (file, exact old text, new text, check id) entry.  The
test copies ``src/`` to a temporary directory, replaces the old text,
which must occur exactly once, and runs ``python -m gwfloor verify
--suite all`` on the copy.  Verify must exit 1 with the named check
among the failing ones.  An entry whose check id is None names no check
of today's suite: verify passes on it, so it is a strict xfail whose
reason says what will catch it.  A refactor that moves an old text
fails loudly, and the catalogue is updated with it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _survivor(file, old, new, reason, name):
    # only verify passing the mutant is the expected failure; a moved old
    # text still fails the test
    xfail = pytest.mark.xfail(strict=True, reason=reason, raises=AssertionError)
    return pytest.param(file, old, new, None, marks=xfail, id=name)


MUTANTS = [
    # verify fails on these six
    pytest.param(
        "diagrams.py", "1 + len(stabiliser)", "1", "rank-oracle:d=3:s=2", id="stabiliser-weight-one"
    ),
    pytest.param(
        "local_factors.py",
        "{frozenset(): UNIV_TWO, frozenset({label}): UNIV_TWO}",
        "{frozenset(): UNIV_TWO, frozenset({label}): UNIV_ONE}",
        "anchor:crossing-product",
        id="type-r-x-coefficient",
    ),
    pytest.param(
        "fields.py", "sig[key] = c1 + c2", "sig[key] = c1 - c2", "wallcross:d=3:s=2", id="real-sig-c1-minus-c2"
    ),
    pytest.param(
        "diagrams.py", 'below[o].add(("end", f, o[2] - 1))', "pass", "rank-oracle:d=2:s=0", id="end-order-dropped"
    ),
    pytest.param(
        "diagrams.py",
        "if lo < f < hi:\n                return _R",
        "if lo < f < hi:\n                return None",
        "rank-oracle:d=3:s=1",
        id="spanning-elevator-unclassified",
    ),
    pytest.param("diagrams.py", '("A", w, j)', '("A", 1, j)', "rank-oracle:d=3:s=1", id="type-a-weight-one"),
    # verify passes on these six today
    _survivor(
        "fields.py",
        "disc ^= (ch & minus_one) ^ (c2 & two)\n",
        "disc ^= c2 & two\n",
        "a control <-1> - <1>, zero over F_q exactly when q = 1 mod 4 (ROADMAP item 12)",
        "fq-vanishing-drops-h-discriminant",
    ),
    _survivor(
        "fields.py",
        "if r & 1:",
        "if r & 2:",
        "a control 2<1> - 2x_l, zero over every F_q (ROADMAP item 12)",
        "fq-vanishing-odd-keys-by-r-and-2",
    ),
    _survivor(
        "wallcross.py",
        "SWEEP_FQ_ORDERS = (5, 7, 11, 17)",
        "SWEEP_FQ_ORDERS = (5, 7, 11, 13)",
        "a check that the sweep covers all four square-bit classes of (-1, 2) (ROADMAP item 12)",
        "sweep-without-q-1-mod-8",
    ),
    _survivor(
        "univ.py",
        "UnivElement(v.c1 + v.c2 - (v.c2 & 1), 0, v.c2 & 1)",
        "UnivElement(v.c1 + v.c2, 0, 0)",
        "a control <1> - <2>, nonzero in Q (ROADMAP item 12)",
        "normal-form-drops-c2-parity",
    ),
    _survivor(
        "checks.py",
        "4: (240, 144, 80, 40, 16, 0)",
        "4: (240, 144, 80, 40, 18, 0)",
        "signature invariance at d = 4, once every family runs at every degree (ROADMAP item 1)",
        "welschinger-4-4-reads-18",
    ),
    _survivor(
        "diagrams.py",
        "if any(obj[3] != 1 for obj in elevators):",
        "if False:",
        "unreachable at d <= 5; tier-1's TestJoins kills it",
        "joins-weight-one-guard-off",
    ),
]


def _verify(root: Path):
    """Exit code and failing check ids of ``verify --suite all`` run on
    the package under ``root/src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "gwfloor", "verify", "--suite", "all"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    checks = json.loads(run.stdout)["checks"]
    return run.returncode, [c["id"] for c in checks if not c["ok"]]


def _copy_src(tmp_path: Path) -> Path:
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_unmutated_copy_passes(tmp_path):
    assert _verify(_copy_src(tmp_path)) == (0, [])


@pytest.mark.parametrize("file, old, new, check_id", MUTANTS)
def test_verify_kills_mutant(tmp_path, file, old, new, check_id):
    root = _copy_src(tmp_path)
    path = root / "src" / "gwfloor" / file
    text = path.read_text()
    if text.count(old) != 1:
        pytest.fail(f"{file} holds the mutant's old text {text.count(old)} times")
    path.write_text(text.replace(old, new))
    code, failed = _verify(root)
    assert code == 1, "verify passed the mutant"
    if check_id is not None:
        assert check_id in failed, failed
