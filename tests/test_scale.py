"""Every public kernel at realistic size: shapes of thousands of cells.

A 60x60 square (3600 cells) and an 80-row staircase (3240 cells), each with
about one hook per two cells, go through every kernel and its round trips;
`peel_tableau`, whose cost does not depend on entry size, also runs on
entries up to 10^6; and every CLI subcommand but `verify` runs on the
square. Nothing here asserts a wall-clock time: a RecursionError, a refusal
or a traceback is the failure these tests look for. The series and
enumeration functions whose cost follows their output size run only where
that output is small; the README lists them as bounded by it.
"""

import random

import pytest

from rimhooks import (
    InsertionFailure,
    Partition,
    Rpp,
    Tableau,
    build,
    corner_toggle,
    diag_partition,
    enumerate_rpps,
    extraction_path,
    factorize,
    gk_chain_max,
    hg,
    hg_inv,
    hook_product,
    insertion_path,
    peel_tableau,
    rim_hook_of_path,
    rsk,
    rsk_inv,
    try_insert,
)
from rimhooks.cli import run

SQUARE = Partition((60,) * 60)
STAIRCASE = Partition(range(80, 0, -1))


def _random_tableau(shape: Partition, hooks: int, seed: int) -> Tableau:
    rng = random.Random(seed)
    cells = list(shape.cells())
    rows = [[0] * p for p in shape.parts]
    for _ in range(hooks):
        i, j = rng.choice(cells)
        rows[i - 1][j - 1] += 1
    return Tableau(shape, rows)


@pytest.fixture(scope="module", params=[SQUARE, STAIRCASE], ids=["square", "staircase"])
def built(request):
    shape = request.param
    t = _random_tableau(shape, shape.size // 2, seed=shape.size)
    return t, build(t)


def test_rim_hooks(built):
    t, _ = built
    shape = t.shape
    hooks = shape.rim_hooks()
    assert len(hooks) == shape.size
    assert all(len(h) == shape.hook_length(h.anchor) for h in hooks)


def test_both_routes_recover_the_tableau(built):
    t, pi = built
    assert pi.size == t.weighted_size
    assert factorize(pi).to_tableau() == t
    assert peel_tableau(pi) == t


def test_hillman_grassl_round_trip(built):
    _, pi = built
    image = hg(pi)
    assert image.weighted_size == pi.size
    assert hg_inv(image) == pi


def test_peeling_row_by_row(built):
    # the reversed policy of `verify pak`: rows bottom-up, each right to left
    t, pi = built
    parts = t.shape.parts
    order = [(i, j) for i in range(len(parts), 0, -1) for j in range(parts[i - 1], 0, -1)]
    assert peel_tableau(pi, order) == peel_tableau(pi) == t


def test_peeling_a_large_square_that_holds_one_hook():
    # each corner's toggles stop at the first zero north-west of it, so this
    # costs O(cells), not a whole diagonal per corner
    shape = Partition((100,) * 100)
    rows = [[0] * 100 for _ in range(100)]
    rows[0][0] = 1
    t = Tableau(shape, rows)
    pi = build(t)
    assert peel_tableau(pi) == factorize(pi).to_tableau() == t


def test_rsk_round_trip(built):
    t, _ = built
    assert rsk_inv(rsk(t), t.shape) == t


def test_rsk_round_trip_with_long_rows():
    # 110 000 hooks on a 10x10 count matrix: P has at most 10 rows, each up to
    # about 10^5 entries long, so a linear scan per bump would take minutes
    shape = Partition((10,) * 10)
    t = Tableau(shape, [[100 * (i + j) for j in range(1, 11)] for i in range(1, 11)])
    assert t.size == 110_000
    pair = rsk(t)
    assert pair.p.shape.size == t.size
    assert rsk_inv(pair, shape) == t


def test_single_steps(built):
    t, pi = built
    shape = t.shape
    v = pi.min_candidate()
    path = extraction_path(v, pi)
    anchor = rim_hook_of_path(path, shape).anchor
    assert anchor == factorize(pi).anchors[0]
    # build inserts the smallest hook last, so inserting one more of it
    # extends the build
    smallest = shape.revlex_cells[0]
    inserted = try_insert(shape.rim_hook(smallest), pi)
    assert not isinstance(inserted, InsertionFailure)
    assert inserted == build(t.with_path([smallest], +1))
    assert len(insertion_path(shape.rim_hook(smallest), pi)) == shape.hook_length(smallest)
    for x in shape.corners()[1]:
        assert corner_toggle(pi, x).shape == shape.remove_corner(x)


def test_diagonals_chains_and_series(built):
    t, pi = built
    shape = t.shape
    for k in (-5, 0, 5):
        assert diag_partition(pi, k).size == pi.trace(k)
    assert gk_chain_max(t, 0, 4, "weak") >= gk_chain_max(t, 0, 1, "weak")
    assert hook_product(shape, 200).coefficients[0] == 1
    assert [pi.is_zero() for pi in enumerate_rpps(shape, 0)] == [True]


@pytest.mark.parametrize("shape", [SQUARE, STAIRCASE], ids=["square", "staircase"])
def test_peeling_with_entries_up_to_a_million(shape):
    rng = random.Random(shape.size)
    rows: list[list[int]] = []
    for i, p in enumerate(shape.parts):
        row: list[int] = []
        for j in range(p):
            low = max(row[-1] if row else 0, rows[i - 1][j] if i else 0)
            row.append(low + rng.randint(0, 8000))
        rows.append(row)
    rows[-1][-1] = 10**6 + max(max(row) for row in rows)
    pi = Rpp(shape, rows)
    t = peel_tableau(pi)
    assert t.weighted_size == pi.size
    assert max(max(row) for row in t.rows) >= 10**6


def _invoke(capsys, monkeypatch, argv, stdin=""):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    return code, capsys.readouterr().out


def test_every_cli_subcommand_on_the_square(capsys, monkeypatch, tmp_path):
    t = _random_tableau(SQUARE, SQUARE.size // 2, seed=SQUARE.size)
    pi = build(t)
    filling, tableau = pi.to_text(), t.to_text()
    code, pair = _invoke(capsys, monkeypatch, ["rsk"], tableau)
    assert code == 0
    shape = str(SQUARE)
    commands = [
        (["info", "--shape", shape], ""),
        # the text and SVG listings draw the whole diagram once per hook
        (["rimhooks", "--shape", shape, "--format", "json"], ""),
        (["validate"], filling),
        (["trace"], filling),
        (["candidates"], filling),
        (["insert", "--hook", "(60,60)"], filling),
        (["factorize", "--paths"], filling),
        (["build"], tableau),
        (["xi"], filling),
        (["zeta", "--corner", "(60,60)"], filling),
        (["hg"], filling),
        (["hg-inv"], tableau),
        (["rsk-inv", "--shape", shape], pair),
        (["diag", "--k", "0"], filling),
        (["gk", "--k", "0", "--r", "4", "--kind", "strict"], tableau),
        (["series", "hook-product", "--shape", shape, "--degree", "200"], ""),
        (["enumerate", "rpps", "--shape", shape, "--bound", "0"], ""),
        (["render", "--svg", str(tmp_path / "filling.svg")], filling),
    ]
    for argv, stdin in commands:
        code, out = _invoke(capsys, monkeypatch, argv, stdin)
        assert code == 0, argv
        assert out, argv
