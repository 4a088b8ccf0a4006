"""Rim-hook insertion and extraction, and the factorization bijection.

Inserting a rim-hook adds 1 along a greedy south-west path ending at the
hook's tail; extraction subtracts 1 along a greedy north-east path starting
at a candidate cell. Repeatedly extracting at the content-minimal candidate
factors every reverse plane partition into a weakly increasing sequence of
rim-hooks, and re-inserting a multiset of rim-hooks largest-first always
succeeds and inverts the factorization.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .geometry import (
    Cell,
    Partition,
    Region,
    RimHook,
    content_key,
    format_cell,
    parse_cell,
    revlex_key,
)
from .rpp import Rpp, Tableau, _add_along, _candidates_among


class Orientation(Enum):
    NE = "NE"
    SW = "SW"


_STEPS = {
    Orientation.NE: ((-1, 0), (0, 1)),
    Orientation.SW: ((1, 0), (0, -1)),
}


@dataclass(frozen=True)
class LatticePath:
    """An ordered cell sequence whose steps are all north/east or all south/west.

    Head and tail do not depend on the orientation: reversing a path swaps the
    cell order and the orientation but keeps head and tail. Cells are not
    required to lie inside any particular shape.
    """

    cells: tuple[Cell, ...]
    orientation: Orientation

    def __post_init__(self):
        if not self.cells:
            raise ValueError("a path must contain at least one cell")
        allowed = _STEPS[self.orientation]
        for a, b in zip(self.cells, self.cells[1:]):
            if (b[0] - a[0], b[1] - a[1]) not in allowed:
                raise ValueError(
                    f"illegal {self.orientation.value} step "
                    f"{format_cell(a)} -> {format_cell(b)}"
                )

    @property
    def head(self) -> Cell:
        """The south-west end of the path."""
        return self.cells[-1] if self.orientation is Orientation.SW else self.cells[0]

    @property
    def tail(self) -> Cell:
        """The north-east end of the path."""
        return self.cells[0] if self.orientation is Orientation.SW else self.cells[-1]

    def reverse(self) -> "LatticePath":
        other = Orientation.NE if self.orientation is Orientation.SW else Orientation.SW
        return LatticePath(tuple(reversed(self.cells)), other)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __contains__(self, u: Cell) -> bool:
        return u in self.cells

    def __str__(self) -> str:
        return " ".join(format_cell(u) for u in self.cells)


@dataclass(frozen=True)
class Factorization:
    """A weakly increasing sequence of rim-hook anchors of one shape."""

    shape: Partition
    anchors: tuple[Cell, ...]

    def __post_init__(self):
        keys = [revlex_key(u) for u in self.anchors]
        if keys != sorted(keys):
            raise ValueError("anchors must be weakly increasing in rim-hook order")

    def hooks(self) -> list[RimHook]:
        return [self.shape.rim_hook(u) for u in self.anchors]

    def to_tableau(self) -> Tableau:
        grid = [[0] * p for p in self.shape.parts]
        for i, j in self.anchors:
            grid[i - 1][j - 1] += 1
        return Tableau(self.shape, grid)

    def to_text(self) -> str:
        return "\n".join(format_cell(u) for u in self.anchors)

    __str__ = to_text

    @classmethod
    def from_text(cls, text: str, shape: Partition) -> "Factorization":
        anchors = tuple(parse_cell(line) for line in text.splitlines() if line.strip())
        return cls(shape, anchors)


@dataclass(frozen=True)
class InsertionFailure:
    """Report returned when a rim-hook does not insert.

    `witness` is a candidate cell strictly before the head of the attempted
    path in content order; its existence is what certifies the failure.
    """

    hook: RimHook
    path: LatticePath
    witness: Cell

    def __str__(self) -> str:
        return (
            f"{self.hook} does not insert; "
            f"candidate {format_cell(self.witness)} precedes the path head "
            f"{format_cell(self.path.head)}"
        )


_Grid = Sequence[Sequence[int]]


def _compatible(shape: Partition, rows: _Grid, cells: Sequence[Cell]) -> bool:
    """`is_compatible` for cells that all lie inside the shape."""
    regions = shape.regions_by_content
    inner, band_a = Region.INNER_DIAG, Region.BAND_A
    on_path = set(cells)
    for i, j in cells:
        v = rows[i - 1][j - 1]
        reg = regions[j - i]
        if (reg is inner or reg is band_a) and (
            (i, j + 1) not in on_path or v != rows[i - 1][j]
        ):
            return False
        if (i + 1, j) in on_path and v != rows[i][j - 1]:
            return False
    return True


def _insertion_walk(shape: Partition, rows: _Grid, tail: Cell, length: int) -> list[Cell]:
    """The cells of `insertion_path` for a rim-hook with this tail and length.

    The walk starts at the end of a row and only steps south into the
    diagram or west, so it leaves the diagram only through the west edge
    (column 0), where the west branch applies.
    """
    parts = shape.parts
    n = len(parts)
    regions = shape.regions_by_content
    inner, band_b = Region.INNER_DIAG, Region.BAND_B
    i, j = tail
    cells = [tail]
    for _ in range(length - 1):
        if (
            j >= 1
            and i < n
            and j <= parts[i]
            and ((reg := regions[j - i]) is band_b or reg is inner)
            and rows[i][j - 1] == rows[i - 1][j - 1]
        ):
            i += 1
        else:
            j -= 1
        cells.append((i, j))
    return cells


def _extraction_walk(shape: Partition, rows: _Grid, v: Cell) -> list[Cell]:
    """The cells of `extraction_path` from the candidate v.

    Entries along the walk never fall below the candidate's, which exceeds
    its west neighbour, so the walk never steps north out of row 1; and no
    row ends on an inner diagonal or in band A, so it never steps east out
    of a row.
    """
    parts = shape.parts
    regions = shape.regions_by_content
    inner, band_a = Region.INNER_DIAG, Region.BAND_A
    i, j = v
    cells = [v]
    while True:
        reg = regions[j - i]
        goes_east = reg is inner or reg is band_a
        if not goes_east and rows[i - 1][j - 1] == (rows[i - 2][j - 1] if i > 1 else 0):
            i -= 1
        elif goes_east or j < parts[i - 1]:
            j += 1
        else:
            break
        cells.append((i, j))
    return cells


def _anchor_of_walk(shape: Partition, tail: Cell, length: int) -> Cell:
    """Anchor of the unique rim-hook with this tail and this many cells."""
    i, j = tail
    if shape.row_length(i) != j:
        raise RuntimeError(
            f"path tail {format_cell((i, j))} is not at the end of row {i} of {shape}"
        )
    col = shape._column_by_head_content.get(j - i + 1 - length)
    if col is None or col > j:
        raise RuntimeError(
            f"no rim-hook of {shape} has tail {format_cell((i, j))} and {length} cells"
        )
    return (i, col)


def is_compatible(path: LatticePath, pi: Rpp) -> bool:
    """Whether adding or subtracting 1 along the path respects the path rules.

    Two conditions: every path cell on an inner diagonal or in band A must be
    followed east by a path cell of equal value, and vertically adjacent path
    cells must hold equal values.
    """
    for u in path:
        if u not in pi.shape:
            raise ValueError(f"path leaves the shape at {format_cell(u)}")
    return _compatible(pi.shape, pi.rows, path.cells)


def insertion_path(hook: RimHook, pi: Rpp) -> LatticePath:
    """The greedy south-west walk attempted when inserting `hook` into `pi`.

    Starts at the hook's tail and takes as many cells as the hook has: step
    south when the current cell sits on an inner diagonal or in band B and the
    value below equals the current one, otherwise step west. The walk is total;
    it never consults whether the insertion will succeed. On a failing
    insertion it may leave the diagram through the west edge (off-shape cells
    belong to no region, so the west branch applies there).
    """
    if hook.shape != pi.shape:
        raise ValueError(f"hook shape {hook.shape} does not match {pi.shape}")
    cells = _insertion_walk(pi.shape, pi.rows, hook.tail, len(hook))
    return LatticePath(tuple(cells), Orientation.SW)


def try_insert(hook: RimHook, pi: Rpp) -> Rpp | InsertionFailure:
    """Insert a rim-hook, or report why it does not insert.

    On success the result is `pi` with 1 added along the insertion path. On
    failure an InsertionFailure value is returned (failure is an expected
    outcome, not a fault); a shape mismatch is a fault.
    """
    path = insertion_path(hook, pi)
    # the walk leaves the diagram only through the west edge
    ok = path.head[1] >= 1 and _compatible(pi.shape, pi.rows, path.cells)
    if ok:
        try:
            return pi.with_path(path, +1)
        except ValueError:
            ok = False
    head = path.head
    head_key = content_key(head)
    witnesses = [u for u in pi.candidates() if content_key(u) < head_key]
    if not witnesses:
        raise RuntimeError(
            "insertion failed without a preceding candidate; this contradicts "
            f"the failure-witness theorem (shape {pi.shape}, {hook}, "
            f"path {path}, filling {pi.rows!r})"
        )
    return InsertionFailure(hook, path, min(witnesses, key=content_key))


def extraction_path(v: Cell, pi: Rpp) -> LatticePath:
    """The greedy north-east walk used to extract a rim-hook starting at `v`.

    `v` must be a candidate of `pi`. Step north from outer-diagonal or band-B
    cells whose value equals the one above; step east from inner-diagonal or
    band-A cells, and from the others while the row continues; stop at the end
    of a row when the value above is strictly smaller. Both greedy rules are
    deterministic, so no tie-breaking is ever needed.
    """
    if not _candidates_among(pi.shape, pi.rows, (v,)):
        raise ValueError(f"{format_cell(v)} is not a candidate of the filling")
    return LatticePath(tuple(_extraction_walk(pi.shape, pi.rows, v)), Orientation.NE)


def rim_hook_of_path(path: LatticePath, shape: Partition) -> RimHook:
    """The unique rim-hook with the same tail and the same number of cells."""
    return shape.rim_hook(_anchor_of_walk(shape, path.tail, len(path)))


def is_factor(hook: RimHook, pi: Rpp) -> bool:
    """Whether some reverse plane partition maps to `pi` under inserting `hook`."""
    if hook.shape != pi.shape:
        raise ValueError(f"hook shape {hook.shape} does not match {pi.shape}")
    for v in pi.candidates():
        path = extraction_path(v, pi)
        if rim_hook_of_path(path, pi.shape).anchor != hook.anchor:
            continue
        if not is_compatible(path, pi):
            continue
        try:
            pi.with_path(path, -1)
        except ValueError:
            continue
        return True
    return False


def extract_min(pi: Rpp) -> tuple[RimHook, Rpp] | None:
    """Extract the rim-hook at the content-minimal candidate, or None at zero."""
    step = next(_extractions(pi), None)
    if step is None:
        return None
    anchor, _, rows, _ = step
    return pi.shape.rim_hook(anchor), Rpp(pi.shape, rows)


def _extractions(
    pi: Rpp,
) -> Iterator[tuple[Cell, list[Cell], list[list[int]], set[Cell]]]:
    """The extraction chain of the lexicographic factorization, on one grid changed in place.

    Yields (anchor, path cells, grid, candidates) per extraction; the grid and
    the candidate set are the live state after that extraction. Whether a cell
    is a candidate depends only on the cell and its west and north neighbours,
    so after a path update only the path cells and their east and south
    neighbours are re-tested. A heap with lazy deletion yields the
    content-minimal candidate.
    """
    shape = pi.shape
    rows = [list(row) for row in pi.rows]
    candidates = _candidates_among(shape, rows, shape.cells())
    heap = [(content_key(u), u) for u in candidates]
    heapq.heapify(heap)
    anchors: list[Cell] = []
    while candidates:
        while heap[0][1] not in candidates:
            heapq.heappop(heap)
        path = _extraction_walk(shape, rows, heap[0][1])
        anchor = _anchor_of_walk(shape, path[-1], len(path))
        _add_along(shape, rows, path, -1)
        if anchors and revlex_key(anchor) < revlex_key(anchors[-1]):
            raise RuntimeError(
                "extraction produced a decreasing hook sequence "
                f"(shape {shape}, filling {pi.rows!r}, anchors {anchors + [anchor]})"
            )
        anchors.append(anchor)
        touched = [u for i, j in path for u in ((i, j), (i, j + 1), (i + 1, j))]
        fresh = _candidates_among(shape, rows, touched)
        for u in fresh - candidates:
            heapq.heappush(heap, (content_key(u), u))
        candidates.difference_update(touched)
        candidates |= fresh
        yield anchor, path, rows, candidates


def factorize(pi: Rpp) -> Factorization:
    """The lexicographic factorization of a reverse plane partition.

    Repeatedly extracts at the content-minimal candidate until the zero
    filling remains. The resulting anchor sequence is weakly increasing in
    the rim-hook order. Costs O(cells + hooks x hook length).
    """
    return Factorization(pi.shape, tuple(anchor for anchor, *_ in _extractions(pi)))


def build(tableau: Tableau) -> Rpp:
    """Insert the encoded multiset of rim-hooks into the zero filling.

    The multiset is sorted weakly increasing in the rim-hook order and
    inserted right to left (largest hook first). Every insertion succeeds;
    a failure would contradict the well-definedness theorem and aborts with
    a diagnostic dump. The insertions update one grid in place, so the cost
    is O(cells + hooks x hook length).
    """
    shape = tableau.shape
    parts = shape.parts
    conj = shape._conjugate_parts
    anchors = tableau.anchors()
    rows = [[0] * p for p in parts]
    for step, anchor in enumerate(reversed(anchors), start=1):
        i, j = anchor
        hook_length = parts[i - 1] + conj[j - 1] - i - j + 1
        path = _insertion_walk(shape, rows, (i, parts[i - 1]), hook_length)
        # the walk leaves the diagram only through the west edge
        if path[-1][1] >= 1 and _compatible(shape, rows, path):
            try:
                _add_along(shape, rows, path, +1)
                continue
            except ValueError:
                pass
        result = try_insert(shape.rim_hook(anchor), Rpp(shape, rows))
        raise RuntimeError(
            "lexicographic insertion failed, which contradicts the "
            f"well-definedness theorem: shape {tableau.shape}, multiset "
            f"{anchors}, step {step} at anchor {format_cell(anchor)}: {result}"
        )
    return Rpp(shape, rows)
