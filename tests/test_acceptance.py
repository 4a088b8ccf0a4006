"""Acceptance suite: every criterion at its stated bounds, exact equality.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -s`
to see them all, or `rimhooks verify all` for the same checks via the CLI.
"""

import os
import subprocess
import sys
from pathlib import Path

from rimhooks.verify import VerifyConfig, run_suites

CONFIG = VerifyConfig()  # acceptance bounds are the defaults


def _run(number: int, description: str, suites: list[str]) -> None:
    results = list(run_suites(suites, CONFIG))
    passed = all(r.passed for r in results)
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}")
    for r in results:
        if not r.passed:
            print(f"  {r.line()}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_stanley_identity():
    _run(1, "size series equals hook product, degree 10, five shapes", ["stanley"])


def test_criterion_2_gansner_identity():
    _run(
        2,
        "trace series equals refined product, degree 8, plus specialization",
        ["gansner"],
    )


def test_criterion_3_bijection_round_trips():
    _run(
        3,
        "factorize/build round trips at size 8 and weight 8, anchors increasing",
        ["bijection"],
    )


def test_criterion_4_golden_vectors():
    _run(4, "figure vectors: candidates, paths, factorization, peeling, insertion pair", ["golden"])


def test_criterion_5_peeling_equivalence():
    _run(
        5,
        "peeling tableau equals factorization tableau; corner-choice independent",
        ["pak"],
    )


def test_criterion_6_corner_toggle_commutation():
    _run(
        6,
        "corner toggle commutes with inserting the smallest hook, weight 8",
        ["commute"],
    )


def test_criterion_7_path_uniqueness_and_failure_witnesses():
    _run(
        7,
        "unique valid insertion path / certified failures, brute force at size 6",
        ["insertion-uniqueness"],
    )


def test_criterion_8_crossing_and_candidate_stability():
    _run(8, "crossing bounds and candidate stability, exhaustive at size 6", ["crossing"])


def test_criterion_9_hillman_grassl():
    _run(
        9,
        "round trip, weighted-size identity and trace series through the correspondence",
        ["hg"],
    )


def test_criterion_10_classical_theorems():
    _run(
        10,
        "rectangle trace sums, chain maxima, square-diagonal and transpose laws, involution",
        ["diag", "gk", "syt", "rsk-thm", "involution"],
    )


def test_parallel_jobs_match_serial():
    suites = ["golden", "diag", "gk"]
    assert list(run_suites(suites, CONFIG, jobs=2)) == list(run_suites(suites, CONFIG))


# A fresh interpreter: the serial CLI run must leave the process-pool stack
# unloaded, and --jobs 2 over two suites must load it and match serial.
_POOL_PROBE = """
import io, sys
from contextlib import redirect_stdout
from rimhooks import cli
from rimhooks.verify import VerifyConfig, run_suites

with redirect_stdout(io.StringIO()):
    assert cli.run(["verify", "golden"]) == 0
assert "concurrent.futures.process" not in sys.modules, "a serial run loaded the pool"
serial = list(run_suites(["golden", "syt"], VerifyConfig()))
assert list(run_suites(["golden", "syt"], VerifyConfig(), jobs=2)) == serial
assert "concurrent.futures.process" in sys.modules, "--jobs 2 did not use the pool"
"""


def test_a_serial_run_loads_no_process_pool():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
