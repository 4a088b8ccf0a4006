"""The four workloads: seeded inputs, the timed calls into rimhooks, and the correctness gate.

A workload's inputs form a pool of *rounds*; a round holds one input of each
kind the workload mixes (one per shape, say). Runs execute whole rounds only,
so every run sees the same mixture whatever its seed or length, and per-call
medians stay comparable across seeds and commits. The seed only changes the
random content of the inputs: where the hooks sit, and small jitter in the
series degrees.

Inputs are plain data (parts, rows, degrees). Library objects are built from
them inside each item, untimed, so no memoised state on a `Partition` carries
over from one item to the next.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from time import process_time
from typing import Any, Callable, Hashable

import rimhooks
from rimhooks import cli

#: record(op, seconds) stores one timed call of `op`
Record = Callable[[str, float], None]
#: (number of failed items, descriptions of what was wrong)
Verdict = tuple[int, list[str]]

#: results of `rimhooks verify <suite>` at the acceptance defaults; adding a check changes them
VERIFY_RESULTS = {
    "stanley": 5,
    "gansner": 10,
    "bijection": 10,
    "golden": 7,
    "pak": 10,
    "commute": 5,
    "insertion-uniqueness": 5,
    "crossing": 10,
    "hg": 15,
    "diag": 5,
    "gk": 1,
    "syt": 3,
    "rsk-thm": 4,
    "involution": 5,
}

# (parts, number of hooks). Entries of the built fillings reach the tens to hundreds.
MANY_HOOKS = (
    (tuple(range(12, 0, -1)), 1000),  # 78 cells, the 12-staircase with 1000 hooks
    ((8,) * 8, 400),  # 64 cells
    ((10, 9, 9, 7, 6, 4, 4, 2, 1), 500),  # 52 cells
)

# (parts, number of hooks): about one hook per four cells, so a run holds
# enough rounds for a steady median of the middle shape. peel_tableau
# recurses once per cell and raises RecursionError near 1000 cells under the
# default recursion limit, which the benchmark leaves alone, so 900 cells is
# the ceiling.
LARGE_SHAPES = (
    ((20,) * 20, 100),  # 400 cells
    (tuple(range(35, 0, -1)), 150),  # 630 cells
    ((30,) * 30, 200),  # 900 cells
)

# (parts, hook_product degree, gansner_product total degree)
SERIES_ITEMS = (
    ((10,) * 10, 400, 8),
    ((6, 5, 4, 3, 2, 1), 300, 11),
    ((4, 4, 4, 4), 300, 18),
    ((5, 4, 3, 3, 1), 250, 12),
    ((3, 3, 3), 300, 22),
)
SERIES_DEGREE_JITTER = 8


def _timed(record: Record, op: str, fn: Callable, *args) -> tuple[Any, float]:
    """Call fn and record its CPU time under op."""
    t0 = process_time()
    out = fn(*args)
    dt = process_time() - t0
    record(op, dt)
    return out, dt


# ------------------------------------------------------------ verify-acceptance


def _verify_round(rng: random.Random, seed: int) -> list:
    """`verify all`, one suite per item: the same checks, each timed on its own."""
    return [
        ["verify", suite, "--format", "json", "--jobs", "1", "--seed", str(seed)]
        for suite in VERIFY_RESULTS
    ]


def _memo_caches() -> list[Callable[[], None]]:
    """cache_clear of every memoised function in the rimhooks modules."""
    clears = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "rimhooks" or name.startswith("rimhooks.")):
            continue
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clears.append(clear)
    return clears


def check_verify(suite: str, exit_code: int, output: str) -> Verdict:
    """Exit code 0, the suite's VERIFY_RESULTS results, every one passed."""
    expected = VERIFY_RESULTS[suite]
    try:
        results = json.loads(output)
    except ValueError:
        results = None
    if not isinstance(results, list):
        return expected, [f"verify {suite} printed no result list (exit {exit_code}): {output[:200]!r}"]
    problems = [
        f"FAIL {r.get('suite')}: {r.get('name')}"
        for r in results
        if not r.get("passed") or r.get("suite") != suite
    ]
    failed = len(problems)
    if len(results) != expected:
        failed += abs(len(results) - expected)
        problems.append(f"verify {suite}: {len(results)} results, expected {expected}")
    if exit_code != 0 and failed == 0:
        failed = expected
        problems.append(f"verify {suite}: exit code {exit_code} although every result passed")
    return min(failed, expected), problems


def run_verify(argv: list[str], record: Record) -> Verdict:
    for clear in _memo_caches():
        clear()  # as cold as a fresh CLI process
    out = io.StringIO()
    t0 = process_time()
    with redirect_stdout(out):
        code = cli.run(argv)
    record("call", process_time() - t0)
    return check_verify(argv[1], code, out.getvalue())


# ------------------------------------------------------------ bijection workloads


def _random_tableau(rng: random.Random, parts: tuple[int, ...], hooks: int) -> tuple:
    rows = [[0] * p for p in parts]
    cells = [(i, j) for i, p in enumerate(parts) for j in range(p)]
    for _ in range(hooks):
        i, j = rng.choice(cells)
        rows[i][j] += 1
    return parts, tuple(tuple(row) for row in rows)


def _bijection_round(shapes) -> Callable[[random.Random, int], list]:
    def make(rng: random.Random, seed: int) -> list:
        return [_random_tableau(rng, parts, hooks) for parts, hooks in shapes]

    return make


def check_bijection(t, pi, factored, peeled, image, back) -> list[str]:
    """The round-trip laws: factorize and peel recover t, hg_inv undoes hg, hg keeps size."""
    problems = []
    if factored != t:
        problems.append("factorize(build(t)).to_tableau() != t")
    if peeled != t:
        problems.append("peel_tableau(build(t)) != t")
    if back != pi:
        problems.append("hg_inv(hg(pi)) != pi")
    if image.weighted_size != pi.size:
        problems.append("hg(pi).weighted_size != pi.size")
    if problems:
        problems = [f"{p} on shape {t.shape} with {t.size} hooks" for p in problems]
    return problems


def run_bijection(item: tuple, record: Record) -> Verdict:
    parts, rows = item
    t = rimhooks.Tableau(rimhooks.Partition(parts), rows)
    pi, d_build = _timed(record, "build", rimhooks.build, t)
    fact, d_fact = _timed(record, "factorize", rimhooks.factorize, pi)
    peeled, d_peel = _timed(record, "peel", rimhooks.peel_tableau, pi)
    image, d_hg = _timed(record, "hg", rimhooks.hg, pi)
    back, d_inv = _timed(record, "hg_inv", rimhooks.hg_inv, image)
    record("call", d_build + d_fact + d_peel + d_hg + d_inv)
    problems = check_bijection(t, pi, fact.to_tableau(), peeled, image, back)
    return int(bool(problems)), problems


# ------------------------------------------------------------ series-products


def reference_hook_series(parts: tuple[int, ...], degree: int) -> list[int]:
    """Coefficients of prod over cells of 1 / (1 - q^hook), by the exact recurrence."""
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    coeffs = [1] + [0] * degree
    for i, p in enumerate(parts):
        for j in range(p):
            h = (p - j) + (conj[j] - i) - 1
            for n in range(h, degree + 1):
                coeffs[n] += coeffs[n - h]
    return coeffs


def _series_round(rng: random.Random, seed: int) -> list:
    items = [
        (parts, degree + rng.randint(-SERIES_DEGREE_JITTER, SERIES_DEGREE_JITTER), trace_degree)
        for parts, degree, trace_degree in SERIES_ITEMS
    ]
    rng.shuffle(items)
    return items


def check_series(parts, degree, hook, refined, hook_at_trace_degree) -> list[str]:
    """hook_product against the reference recurrence; gansner_product specialised to q."""
    problems = []
    if list(hook.coefficients) != reference_hook_series(parts, degree):
        problems.append(f"hook_product({parts}, {degree}) differs from the recurrence")
    if refined.specialize() != hook_at_trace_degree:
        problems.append(
            f"gansner_product({parts}, {refined.degree}).specialize() != hook_product"
        )
    return problems


def run_series(item: tuple, record: Record) -> Verdict:
    parts, degree, trace_degree = item
    shape = rimhooks.Partition(parts)
    hook, d_hook = _timed(record, "series", rimhooks.hook_product, shape, degree)
    refined, d_refined = _timed(record, "series", rimhooks.gansner_product, shape, trace_degree)
    record("call", d_hook + d_refined)
    problems = check_series(
        parts, degree, hook, refined, rimhooks.hook_product(shape, trace_degree)
    )
    return int(bool(problems)), problems


# ------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool_rounds: int
    make_round: Callable[[random.Random, int], list]
    run: Callable[[Any, Record], Verdict]
    #: what an input is timed as: inputs of one kind cost the same up to their random content
    kind: Callable[[Any], Hashable]
    #: items one input yields: check results for a verify suite, else 1
    items: Callable[[Any], int] = lambda item: 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-acceptance",
            "`rimhooks verify all` at the acceptance defaults, one suite per call, serial, "
            "in process: thousands of tiny fillings, so per-call fixed costs dominate",
            1,
            _verify_round,
            run_verify,
            kind=lambda argv: argv[1],
            items=lambda argv: VERIFY_RESULTS[argv[1]],
        ),
        Workload(
            "bijection-many-hooks",
            "shapes of at most 78 cells with hundreds of hooks: the walks and "
            "per-hook full-grid passes dominate, peeling is almost free",
            16,
            _bijection_round(MANY_HOOKS),
            run_bijection,
            kind=lambda item: item[0],
        ),
        Workload(
            "bijection-large-shape",
            "shapes of 400 to 900 cells with about one hook per four cells: O(cells) "
            "work per hook and O(cells^2) corner rebuilds in peeling dominate",
            4,
            _bijection_round(LARGE_SHAPES),
            run_bijection,
            kind=lambda item: item[0],
        ),
        Workload(
            "series-products",
            "hook_product at degree ~300 and gansner_product at raised total "
            "degree: dense and sparse series multiplication",
            16,
            _series_round,
            run_series,
            kind=lambda item: item[0],
        ),
    )
}


def generate(workload: Workload, seed: int) -> list[list]:
    """The workload's pool of rounds for `seed`; the same seed gives the same pool."""
    rng = random.Random(f"{workload.name}/{seed}")
    return [workload.make_round(rng, seed) for _ in range(workload.pool_rounds)]


def fingerprint(pool: list[list]) -> str:
    """A hash of every generated input, so two runs can show they saw the same ones."""
    blob = json.dumps(pool, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
