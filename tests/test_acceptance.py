"""Acceptance gate: ten criteria, one PASS/FAIL line each.

Every criterion is read from one run of ``gwfloor verify --suite all`` at
the default budget 4 (the ``suite_all`` fixture): it owns the checks whose
ids start with its prefixes, and passes when it selects exactly its
pinned number of them (so a shrunken range fails instead of passing
silently), every one of them passes, none names an unsupported
configuration, and, where a bound is given, their summed check time stays
under it.  Widening a gate is one edit in ``gwfloor/checks.py`` plus the
criterion's pinned count here.

Each test prints ``ACCEPTANCE <n>: PASS|FAIL - <summary>`` so the run log
shows the verdict per criterion even under ``-q``; the assert that follows
carries the first failure details.
"""

VERDICT_LINES: list[str] = []

# criterion: (summary, check-id prefixes, pinned check count, time bound in s)
CRITERIA = {
    1: ("identity families m<=60", ("identity:",), 240, 1.0),
    2: ("field laws and Pfister torsion", ("gw-laws:", "pfister-torsion:"), 25, 1.0),
    3: (
        "rank matches the recursion for d<=3 (all s) and d=4 (s<=2)",
        ("rank-oracle:",),
        13,
        None,
    ),
    4: (
        "degree-3 count is 8<1>+2h; all-negative signature is merge-position independent",
        ("count-anchor:", "signature-invariance:"),
        6,
        None,
    ),
    5: ("printed example values reproduced exactly", ("anchor:",), 5, None),
    6: (
        "specialised double points match split simple points in every finite field",
        ("dissolution:",),
        82,
        None,
    ),
    7: (
        "every unit shift at d in {2,3} vanishes in rank, signature, and all field images",
        ("wallcross:",),
        5,
        None,
    ),
    8: (
        "residual table, one-pair base case, and transfer congruence all vanish",
        ("residual-factors:", "residual-twin-trees", "residual-base:", "residual-transfer:"),
        84,
        None,
    ),
    9: ("tower anisotropy certificates", ("springer:",), 10, 1.0),
    10: ("merge-position graph connected for every n <= 12", ("merge-graph:",), 47, None),
}


def check_criterion(suite, n: int):
    summary, prefixes, count, bound = CRITERIA[n]
    checks = [c for c in suite.checks if c.check_id.startswith(prefixes)]
    failures = [
        f"{c.check_id}: {c.detail or 'failed'}"
        for c in checks
        if not c.passed or "unsupported" in c.detail
    ]
    if len(checks) != count:
        failures.insert(0, f"selected {len(checks)} checks, expected {count}")
    if bound is not None:
        elapsed = sum(c.elapsed for c in checks)
        summary += f" in {elapsed:.2f}s"
        if elapsed >= bound:
            failures.append(f"runtime {elapsed:.2f}s, bound {bound}s")
    line = f"ACCEPTANCE {n}: {'FAIL' if failures else 'PASS'} - {summary}"
    VERDICT_LINES.append(line)
    print(line)
    assert not failures, f"criterion {n}: {failures[:5]}"


# One test per criterion, so each keeps its own id in the run log.
def test_criterion_01_identity_suite(suite_all):
    check_criterion(suite_all, 1)


def test_criterion_02_gw_laws(suite_all):
    check_criterion(suite_all, 2)


def test_criterion_03_rank_oracle(suite_all):
    check_criterion(suite_all, 3)


def test_criterion_04_signature_invariance(suite_all):
    check_criterion(suite_all, 4)


def test_criterion_05_anchor_values(suite_all):
    check_criterion(suite_all, 5)


def test_criterion_06_dissolution(suite_all):
    check_criterion(suite_all, 6)


def test_criterion_07_unit_shift_sweep(suite_all):
    check_criterion(suite_all, 7)


def test_criterion_08_residual_suite(suite_all):
    check_criterion(suite_all, 8)


def test_criterion_09_springer_suite(suite_all):
    check_criterion(suite_all, 9)


def test_criterion_10_graph_connectivity(suite_all):
    check_criterion(suite_all, 10)
