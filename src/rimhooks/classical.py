"""Hillman-Grassl, RSK, diagonal partitions and Greene-Kleitman chain maxima.

The Hillman-Grassl convention used here: repeatedly take the leftmost column
holding a nonzero entry, walk from the bottom cell of that column north on
equality and east otherwise, decrement the walk, and record one count at
(final row, starting column). The convention is pinned by the round-trip,
trace-series and transpose-theorem tests; any convention passing all of them
is admissible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from math import inf
from typing import Iterator, Literal, Sequence

from .geometry import Cell, Partition, _parse_ints, format_cell
from .rpp import Rpp, Tableau, _from_frame, _to_frame

ChainKind = Literal["weak", "strict"]
#: a rectangle of counts as `_order_type` reduces it
OrderType = tuple[tuple[int, ...], ...]


def _hg_step(shape: Partition, grid: list, start_col: int) -> list[int]:
    """Subtract 1 along the forward walk from the bottom of column start_col, in place.

    `grid` holds a reverse plane partition of `shape` laid out on
    `shape.frame`, with a nonzero entry at the bottom of column start_col
    and only 0s west of that column. One loop walks north on equality and
    east otherwise, and subtracts 1 at each cell as it steps. Entries along
    the walk never fall below the start's, so it never steps north into row
    0, and the east step tests that it stays in the diagram. Every read lies
    north-east of the cells already changed, so the walk is the one on the
    unchanged filling.

    Subtracting 1 can break only west and north edges, and on this input
    neither breaks, so nothing is tested. The start's west neighbour is 0,
    below the start's entry. North holds because the walk steps north onto
    an equal value, which loses 1 too, and otherwise found it unequal, hence
    smaller. West holds after an east step (the previous cell lost 1 too)
    and after a north step, where it lies above the start's west neighbour
    or above the value north of the cell the walk came east from, found
    smaller. Returns the path positions.
    """
    frame = shape.frame
    width, inside = frame.width, frame.inside
    p = shape._conjugate_parts[start_col - 1] * width + start_col
    path = [p]
    while True:
        v = grid[p]
        grid[p] = v - 1
        if grid[p - width] == v:
            p -= width
        elif inside[p + 1]:
            p += 1
        else:
            break
        path.append(p)
    return path


def hg(pi: Rpp) -> Tableau:
    """The Hillman-Grassl image of a reverse plane partition.

    Each walk starts at the first column whose bottom entry is nonzero, so
    every column west of it holds only 0s and the walk keeps the filling
    ordered (`_hg_step`); nothing is tested. The walks decrement one grid in
    place, so the cost is O(cells + hooks x hook length).
    """
    shape = pi.shape
    conj = shape._conjugate_parts
    width = shape.frame.width
    grid = _to_frame(shape, pi.rows)
    counts = [[0] * p for p in shape.parts]
    remaining = pi.size
    start_col = 1
    while remaining:
        # A zero at the bottom of a column makes the whole column zero, and
        # walks only decrement, so the start column never moves left.
        while grid[conj[start_col - 1] * width + start_col] == 0:
            start_col += 1
        path = _hg_step(shape, grid, start_col)
        counts[path[-1] // width - 1][start_col - 1] += 1
        remaining -= len(path)
    # rows laid out by the shape, counts that only grow from 0
    return Tableau._trusted(shape, tuple([tuple(row) for row in counts]))


def _hg_inv_step(shape: Partition, grid: list, f: int, s: int) -> None:
    """Add 1 along the inverse walk of the hook recorded at (f, s), in place.

    `grid` holds a reverse plane partition of `shape` laid out on
    `shape.frame`. One loop walks from the end of row f south on equality
    and west otherwise, down to column s, and adds 1 at each cell as it
    steps; south of the diagram the border reads math.inf, which no entry
    equals. Every read lies south-west of the cells already changed, so the
    walk is the one on the unchanged filling.

    From any start this keeps the filling ordered, so nothing is tested.
    South holds because the walk steps south onto an equal value, which
    gains 1 too, and otherwise found it unequal, hence larger. East is the
    border at the start and the previous cell after a west step; after a
    south step it lies below the border, or below the value south of the
    cell the walk came west from, found larger.
    """
    width = shape.frame.width
    j = shape.parts[f - 1]
    p = f * width + j
    while True:
        v = grid[p]
        grid[p] = v + 1
        if grid[p + width] == v:
            p += width
        elif j > s:
            p -= 1
            j -= 1
        else:
            break


def hg_inv(tableau: Tableau) -> Rpp:
    """Invert the Hillman-Grassl map.

    Recorded hooks are processed in reverse extraction order: the tableau is
    read in place by columns east to west, each top to bottom, and each
    cell's hook is undone as many times as its count. Each is undone by
    walking from the end of the hook's row south on equality and west
    otherwise, down to the hook's column, and incrementing the walk
    (`_hg_inv_step`), which mirrors the forward walk. The walks increment one
    grid in place, so the cost is O(cells + hooks x hook length).
    """
    shape = tableau.shape
    conj = shape._conjugate_parts
    rows = tableau.rows
    grid = list(shape.frame.zero)
    for s in range(len(conj), 0, -1):
        for f in range(1, conj[s - 1] + 1):
            for _ in range(rows[f - 1][s - 1]):
                _hg_inv_step(shape, grid, f, s)
    # each inverse walk keeps the filling ordered from any start (`_hg_inv_step`)
    return Rpp._trusted(shape, _from_frame(grid, shape.frame.width, shape.parts))


def _transpose_rows(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    if not rows:
        return ()
    out = []
    for j in range(len(rows[0])):
        out.append(tuple(row[j] for row in rows if len(row) > j))
    return tuple(out)


def _is_column_strict(grid: Rpp) -> bool:
    return all(
        v > 0 and (i == 1 or j > grid.shape.row_length(i - 1) or v > grid.value((i - 1, j)))
        for (i, j), v in grid.entries()
    )


@dataclass(frozen=True)
class SsytPair:
    """An insertion/recording pair of column-strict fillings of equal shape."""

    p: Rpp
    q: Rpp

    def __post_init__(self):
        if self.p.shape != self.q.shape:
            raise ValueError(
                f"pair shapes differ: {self.p.shape} versus {self.q.shape}"
            )
        for name, grid in (("insertion", self.p), ("recording", self.q)):
            if not _is_column_strict(grid):
                raise ValueError(f"{name} tableau is not column-strict with positive entries")

    @property
    def shape(self) -> Partition:
        return self.p.shape

    def conjugate(self) -> "SsytPair":
        return SsytPair(
            Rpp(self.p.shape.conjugate(), _transpose_rows(self.p.rows)),
            Rpp(self.q.shape.conjugate(), _transpose_rows(self.q.rows)),
        )


def biword(tableau: Tableau) -> list[tuple[int, int]]:
    """Row-major (row, column) pairs with multiplicity; lexicographically sorted."""
    pairs = []
    for (i, j), count in tableau.entries():
        pairs.extend([(i, j)] * count)
    return pairs


def _row_insert(rows: list[list[int]], x: int) -> tuple[int, int]:
    # returns the (0-indexed) position of the new box; each row weakly
    # increases, so x bumps its leftmost entry greater than x, by bisection
    for r, row in enumerate(rows):
        idx = bisect_right(row, x)
        if idx == len(row):
            row.append(x)
            return r, idx
        row[idx], x = x, row[idx]
    rows.append([x])
    return len(rows) - 1, 0


def rsk(tableau: Tableau) -> SsytPair:
    """Row-insert the biword of a count matrix; record row indices.

    Accepts any shape; the transpose theorems restrict attention to squares.
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for row_idx, col_idx in biword(tableau):
        r, c = _row_insert(p_rows, col_idx)
        if r == len(q_rows):
            q_rows.append([])
        assert c == len(q_rows[r])
        q_rows[r].append(row_idx)
    shape = Partition(len(r_) for r_ in p_rows)
    return SsytPair(Rpp(shape, p_rows), Rpp(shape, q_rows))


def rsk_inv(pair: SsytPair, shape: Partition | None = None) -> Tableau:
    """Invert row insertion back to a count matrix.

    The matrix shape is not recoverable from the pair; pass it explicitly or
    get the smallest square containing every biword letter.
    """
    p = [list(row) for row in pair.p.rows]
    q = [list(row) for row in pair.q.rows]
    positions = sorted(
        ((val, r, c) for r, row in enumerate(q) for c, val in enumerate(row)),
        key=lambda t: (-t[0], -t[2]),
    )
    pairs: list[tuple[int, int]] = []
    for val, r, c in positions:
        if c != len(p[r]) - 1:
            raise ValueError("recording tableau does not describe an insertion order")
        x = p[r].pop()
        q[r].pop()
        for upper in range(r - 1, -1, -1):
            row = p[upper]
            # x bumps back the rightmost entry less than x. P stays column-strict
            # under reverse bumping, and x sat just below row `upper` in a
            # column that row reaches, so the entry above it is less than x and
            # idx >= 0 whenever SsytPair has checked P.
            idx = bisect_left(row, x) - 1
            if idx < 0:
                raise ValueError(
                    f"insertion tableau row {upper + 1} has no entry less than {x}"
                )
            row[idx], x = x, row[idx]
        pairs.append((val, x))
    pairs.reverse()
    if shape is None:
        n = max((max(a, b) for a, b in pairs), default=1)
        shape = Partition((n,) * n)
    grid = [[0] * p_ for p_ in shape.parts]
    for a, b in pairs:
        if (a, b) not in shape:
            raise ValueError(f"letter {format_cell((a, b))} falls outside {shape}")
        grid[a - 1][b - 1] += 1
    return Tableau(shape, grid)


def diag_partition(pi: Rpp, k: int) -> Partition:
    """The nonzero entries on diagonal k, sorted decreasingly."""
    values = [
        row[i + k - 1] for i, row in enumerate(pi.rows, start=1) if 1 <= i + k <= len(row)
    ]
    return Partition(sorted(filter(None, values), reverse=True))


def _rectangle_corner(shape: Partition, k: int) -> Cell | None:
    """The south-easternmost content-k cell, None when diagonal k is empty."""
    parts = shape.parts
    for i in range(len(parts), 0, -1):
        if 1 <= i + k <= parts[i - 1]:
            return (i, i + k)
    return None


def _rectangle_rows(tableau: Tableau, k: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the content-k rectangle of the tableau, () when diagonal k is empty."""
    corner = _rectangle_corner(tableau.shape, k)
    if corner is None:
        return ()
    a, b = corner
    return tuple([row[:b] for row in tableau.rows[:a]])


def _order_type(rows: Sequence[Sequence[int]]) -> OrderType:
    """The rectangle `rows` without its zero rows and columns, up to symmetry.

    Chain orders compare coordinates only, so deleting the zero rows and
    columns keeps every chain maximum. So do transposing and turning by 180
    degrees: each maps weak chains to weak chains and strict chains to
    strict ones, some read backwards. The least of the four images is all
    the chain maxima read: two rectangles that agree on it have the same.
    """
    kept = [row for row in rows if any(row)]
    grid = tuple(zip(*[column for column in zip(*kept) if any(column)]))
    transposed = tuple(zip(*grid))
    turned = [tuple([row[::-1] for row in image[::-1]]) for image in (grid, transposed)]
    return min(grid, transposed, *turned)


@lru_cache(maxsize=16)
def _lattice(
    height: int, width: int, weak: bool
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[float, ...]]:
    """The chain flow's grid DAG on a height x width rectangle, every cell unused.

    Paths from node 0 to the last node move east and south for free and take
    an entry through its cell's use arc: weak, from the cell's entry node to
    its exit node; strict, corner to corner across the cell. Nodes are in
    topological order; arc 2c uses cell c (row-major); e ^ 1 reverses e.
    Returns the arcs out of each node, the arc heads and the capacities, as
    tuples, since every flow on a rectangle of this size and kind shares them.
    """
    split, rows, cols = (2, height, width) if weak else (1, height + 1, width + 1)
    points = [(x, y, split * (x * cols + y)) for x in range(rows) for y in range(cols)]
    arcs = [(p, p + 1 if weak else p + cols + 1) for x, y, p in points if x < height and y < width]
    arcs += [(p + split - 1, p + split) for x, y, p in points if y + 1 < cols]
    arcs += [(p + split - 1, p + split * cols) for x, y, p in points if x + 1 < rows]
    arcs += [(p, p + 1) for x, y, p in points if weak]
    adj: list[list[int]] = [[] for _ in range(split * rows * cols)]
    for e, (u, v) in enumerate(arcs):
        adj[u].append(2 * e)
        adj[v].append(2 * e + 1)
    head = tuple(w for u, v in arcs for w in (v, u))
    free = (0, 0) * (height * width) + (inf, 0) * (len(arcs) - height * width)
    return tuple(map(tuple, adj)), head, free


def _augmentations(grid: OrderType, kind: ChainKind) -> Iterator[tuple[int, int, int]]:
    """The chain flow's augmenting paths in order: units and gain so far, gain per unit.

    Strict reflects the rows, so its chains run south-east like the weak ones.
    A DAG pass gives the first path, Dijkstra on reduced costs each next one.
    """
    weak = kind == "weak"
    height, width = len(grid), len(grid[0]) if grid else 0
    adj, head, free = _lattice(height, width, weak)
    cap, cost, sink, total = list(free), [0] * len(head), len(adj) - 1, 0
    for x, row in enumerate(grid if weak else grid[::-1]):
        for y, v in enumerate(row):
            if v:
                e = 2 * (x * width + y)
                cap[e], cost[e], cost[e + 1] = (1, -v, v) if weak else (v, -1, 1)
                total += v
    dist, pred = [0] + [inf] * sink, [0] * len(adj)
    for u, arcs in enumerate(adj):
        for e in arcs:
            if cap[e] and dist[u] + cost[e] < dist[head[e]]:
                dist[head[e]], pred[head[e]] = dist[u] + cost[e], e
    units = gain = 0
    while gain < total:  # a unit more gains while some entry, a chain alone, is left
        if units:
            reduced, heap = [0] + [inf] * sink, [(0, 0)]
            while heap:
                d, u = heappop(heap)
                if d == reduced[u]:
                    for e in adj[u]:
                        v = head[e]
                        if cap[e] and (dv := d + cost[e] + dist[u] - dist[v]) < reduced[v]:
                            reduced[v], pred[v] = dv, e
                            heappush(heap, (dv, v))
            dist = [d + r for d, r in zip(dist, reduced)]
        path, v = [], sink
        while v:
            path.append(pred[v])
            v = head[pred[v] ^ 1]
        step = min([cap[e] for e in path])
        for e in path:
            cap[e] -= step
            cap[e ^ 1] += step
        units, gain = units + step, gain - step * dist[-1]
        yield units, gain, -dist[-1]


@lru_cache(maxsize=256)
def _breakpoints(grid: OrderType, kind: ChainKind, units: int) -> tuple[tuple[int, int, int], ...]:
    """The chain flow's breakpoints (units, gain, gain per unit), run until it carries `units`."""
    found = [(0, 0, 0)]
    for augmentation in _augmentations(grid, kind):
        found.append(augmentation)
        if augmentation[0] >= units:
            break
    return tuple(found)


def gk_chain_max(tableau: Tableau, k: int, r: int, kind: ChainKind) -> int:
    """Largest total length of r chains in the content-k rectangle.

    Chains are weak south-east (both coordinates weakly increasing, repeats
    allowed) or strict north-east (rows strictly decreasing, columns strictly
    increasing); across the whole family each cell u is used at most t(u)
    times. That is the gain of r units of min-cost flow through a grid DAG
    of the rectangle, one unit per chain: weak, a cell takes one unit and
    gains t(u); strict, t(u) units that gain 1 each. Successive shortest
    paths give the gain for every r (`_chain_maxima`).
    """
    if r < 1:
        raise ValueError("the family needs at least one chain")
    if kind not in ("weak", "strict"):
        raise ValueError(f"unknown chain kind {kind!r}")
    return _chain_maxima(_order_type(_rectangle_rows(tableau, k)), (r,), kind)[0]


def _chain_maxima(grid: OrderType, family_sizes: Sequence[int], kind: ChainKind) -> list[int]:
    """`gk_chain_max` for each family size on the `_order_type` of a rectangle, from one run.

    The run goes to the largest size rounded up to a power of two and is
    memoised per (order type, kind, units), so a loop over r = 1..n makes
    fewer than 4n augmentations in all, and rectangles of one order type
    share one run. The gain of r units is linear
    between the breakpoints and flat after the last.
    """
    found = _breakpoints(grid, kind, 1 << (max(family_sizes) - 1).bit_length())
    gains = []
    for r in family_sizes:
        units, gain, per_unit = found[bisect_left(found, (r,), 0, len(found) - 1)]
        gains.append(gain - (units - r) * per_unit if units > r else gain)
    return gains


def permutation_matrix(word: Sequence[int] | str) -> Tableau:
    """The square count matrix of a permutation in one-line notation.

    Accepts a sequence of values or the comma-separated text form `3,1,2`,
    parsed like `Partition.from_string`: blank text is the empty permutation,
    and an empty token is an error. The matrix has a single 1 in row i at the
    column the permutation sends i to.
    """
    if isinstance(word, str):
        tokens = word.split(",") if word.strip() else []
        word = list(_parse_ints(tokens, f"permutation {word!r}"))
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"{word!r} is not a permutation of 1..{n}")
    shape = Partition((n,) * n)
    grid = [[0] * n for _ in range(n)]
    for i, w in enumerate(word, start=1):
        grid[i - 1][w - 1] = 1
    return Tableau(shape, grid)


def is_permutation_matrix(tableau: Tableau) -> bool:
    shape = tableau.shape
    n = shape.length
    if shape.parts != (n,) * n or n == 0:
        return False
    rows_ok = all(sum(row) == 1 and max(row) == 1 for row in tableau.rows)
    cols = [sum(row[j] for row in tableau.rows) for j in range(n)]
    return rows_ok and all(c == 1 for c in cols)


def check_syt_diagonals(pi: Rpp) -> bool:
    """Diagonal transpose law for staircase-traced fillings of a square.

    Requires shape (n, .., n) with trace n-k on the diagonals k and -k for
    0 <= k < n. Checks that the composite map (build the Hillman-Grassl
    image back into a filling) carries, on every diagonal, the conjugate of
    the original diagonal partition.
    """
    from .insertion import build

    shape = pi.shape
    n = shape.length
    if shape.parts != (n,) * n or n == 0:
        raise ValueError(f"shape {shape} is not a nonempty square")
    for k in range(n):
        if pi.trace(k) != n - k or pi.trace(-k) != n - k:
            raise ValueError(f"traces of the filling are not staircase at k={k}")
    image = build(hg(pi))
    return all(
        diag_partition(image, k) == diag_partition(pi, k).conjugate()
        for k in shape.contents
    )


def check_rsk_transpose(sigma: Tableau) -> bool:
    """Transpose law for permutation matrices.

    Row-inserting the image of a permutation matrix under (build, then
    Hillman-Grassl) yields the transposes of the tableaux of the original
    matrix.
    """
    from .insertion import build

    if not is_permutation_matrix(sigma):
        raise ValueError("input is not a permutation matrix")
    pair = rsk(sigma)
    routed = rsk(hg(build(sigma)))
    return routed == pair.conjugate()
