"""Rim-hook insertion and extraction, and the factorization bijection.

Inserting a rim-hook adds 1 along a greedy south-west path ending at the
hook's tail; extraction subtracts 1 along a greedy north-east path starting
at a candidate cell. Repeatedly extracting at the content-minimal candidate
factors every reverse plane partition into a weakly increasing sequence of
rim-hooks, and re-inserting a multiset of rim-hooks largest-first always
succeeds and inverts the factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterator

from .geometry import (
    Cell,
    Partition,
    Region,
    RimHook,
    content,
    content_key,
    format_cell,
    revlex_key,
)
from .rpp import Rpp, Tableau, _candidates_among, _from_frame, _to_frame


@dataclass(frozen=True)
class LatticePath:
    """An ordered cell sequence whose steps are all south/west or all north/east.

    Its head is the south-west end and its tail the north-east one, whichever
    way the cells run: reversing a path keeps head and tail. Cells are not
    required to lie inside any particular shape.
    """

    cells: tuple[Cell, ...]

    def __post_init__(self):
        if not self.cells:
            raise ValueError("a path must contain at least one cell")
        steps = {(b[0] - a[0], b[1] - a[1]) for a, b in zip(self.cells, self.cells[1:])}
        if not (steps <= {(1, 0), (0, -1)} or steps <= {(-1, 0), (0, 1)}):
            raise ValueError(f"path {self} does not step only south/west or only north/east")

    @classmethod
    def _trusted(cls, cells: tuple[Cell, ...]) -> "LatticePath":
        """A path of `cells`, stored as given and checked for nothing.

        Only for walks whose steps are all south/west or all north/east; each
        call site names what certifies it.
        """
        path = object.__new__(cls)
        object.__setattr__(path, "cells", cells)
        return path

    @property
    def head(self) -> Cell:
        """The south-west end of the path: the end of lower content."""
        return min(self.cells[0], self.cells[-1], key=content)

    @property
    def tail(self) -> Cell:
        """The north-east end of the path."""
        return max(self.cells[0], self.cells[-1], key=content)

    def reverse(self) -> "LatticePath":
        return LatticePath(self.cells[::-1])

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
        shape = self.shape
        if not all(map(shape.__contains__, self.anchors)):
            u = next(u for u in self.anchors if u not in shape)
            raise ValueError(f"anchor {format_cell(u)} lies outside the shape {shape}")
        keys = [revlex_key(u) for u in self.anchors]
        if not all(map(le, keys, keys[1:])):
            raise ValueError("anchors must be weakly increasing in rim-hook order")

    @classmethod
    def _trusted(cls, shape: Partition, anchors: tuple[Cell, ...]) -> "Factorization":
        """A factorization of `anchors`, stored as given and checked for nothing.

        Only for anchors already known to lie in `shape` and to increase
        weakly; each call site names what certifies them.
        """
        fact = object.__new__(cls)
        object.__setattr__(fact, "shape", shape)
        object.__setattr__(fact, "anchors", anchors)
        return fact

    def to_tableau(self) -> Tableau:
        grid = [[0] * p for p in self.shape.parts]
        for i, j in self.anchors:
            grid[i - 1][j - 1] += 1
        # rows laid out by the shape, counts that only grow from 0
        return Tableau._trusted(self.shape, tuple([tuple(row) for row in grid]))

    def to_text(self) -> str:
        return "\n".join(format_cell(u) for u in self.anchors)

    __str__ = to_text


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


def _insertion_walk(shape: Partition, grid: list, tail: int, length: int) -> tuple[list[int], bool]:
    """Insert a rim-hook with this tail position and length into `grid`, in place.

    `grid` holds a reverse plane partition of `shape` laid out on
    `shape.frame`. One loop walks the path of `insertion_path` and adds 1 at
    each cell as it steps. A south step needs an equal value below, so it
    never enters the math.inf south of the diagram; the walk leaves only
    west, into column 0, where it stops short of `length` positions (one
    more step would wrap into the row above) and changes nothing. Every read
    lies south-west of the cells already changed, so the walk is the one on
    the unchanged filling.

    Adding 1 can break only east and south edges. The loop tests the south
    edge before each west step and at the last cell (before a south step the
    cell below gains 1 too), and compatibility: an `east_forced` cell must
    be entered by a west step from an equal value, so the tail must not be
    one, and a south step never enters one (the diagonal below band B or an
    inner diagonal is band B or outer). The east edge follows: at the tail
    it is the border, and after a west step the previous cell. After a
    south step it lies in the column of the cell the walk came west from
    into the top of this vertical run, below that cell's south neighbour,
    which exceeds the run's value unless the south test there failed: the
    walk found it unequal there, or tested it.

    Returns the positions and whether every test held and the walk stayed
    in the diagram. On a failure the walk still finishes, so the path is the
    same, and every changed cell is restored.
    """
    frame = shape.frame
    width, south_step, east_forced, inside = (
        frame.width, frame.south_step, frame.east_forced, frame.inside
    )
    p = tail
    v = grid[p]
    ok = not east_forced[p]
    path = [p]
    for _ in range(length - 1):
        grid[p] = v + 1
        if south_step[p] and grid[p + width] == v:
            p += width
        else:
            if v >= grid[p + width]:
                ok = False
            p -= 1
            if not inside[p]:
                path.append(p)
                for q in path[:-1]:
                    grid[q] -= 1
                return path, False
            w = grid[p]
            if east_forced[p] and w != v:
                ok = False
            v = w
        path.append(p)
    grid[p] = v + 1
    if v >= grid[p + width]:
        ok = False
    if not ok:
        for q in path:
            grid[q] -= 1
    return path, ok


def _extraction_walk(shape: Partition, grid: list, v: int) -> tuple[list[int], bool, list[int]]:
    """Extract the rim-hook that starts at the candidate position v of `grid`, in place.

    `grid` holds a reverse plane partition of `shape` laid out on
    `shape.frame`. One loop walks the path of `extraction_path` and
    subtracts 1 at each cell as it steps. Entries along the walk never fall
    below the start's, so it never steps north into row 0, and no row ends
    on an inner diagonal or in band A, so a forced east step stays in the
    diagram. Every read lies north-east of the cells already changed, so the
    walk is the one on the unchanged filling.

    Subtracting 1 can break only west and north edges. West holds at the
    start, a candidate, and after an east step (the previous cell). After a
    north step it lies above the start's west neighbour, or in the column of
    the cell the walk came east from into the bottom of this vertical run,
    above that cell's north neighbour, which is below the run's value unless
    the north test there failed: the walk found it unequal there, or tested
    it. North holds before a north step (the cell above loses 1 too) and
    before an unforced east step or the end (found unequal, hence smaller).
    Before a forced east step it is tested: from the candidate (2,1) of
    (3,3) ((0,1,1),(1,1,2)), not content-minimal, the walk steps east from
    (2,2) below an equal 1, so only the extraction theorem rules a failure
    out at the minimal one.

    Returns the positions, whether the north test held, and the guard of
    `_extractions`: v, then the position south of b for each east step
    a -> b, which both east branches record as they step.
    """
    frame = shape.frame
    width, east_forced, inside = frame.width, frame.east_forced, frame.inside
    p = v
    ok = True
    path = [p]
    guard = [p]
    while True:
        u = grid[p]
        grid[p] = u - 1
        if east_forced[p]:
            if u <= grid[p - width]:
                ok = False
            p += 1
            guard.append(p + width)
        elif u == grid[p - width]:
            p -= width
        elif inside[p + 1]:
            p += 1
            guard.append(p + width)
        else:
            break
        path.append(p)
    return path, ok, guard


def is_compatible(path: LatticePath, pi: Rpp) -> bool:
    """Whether adding or subtracting 1 along the path respects the path rules.

    Two conditions: every path cell on an inner diagonal or in band A must be
    followed east by a path cell of equal value, and vertically adjacent path
    cells must hold equal values. The insertion walk makes the same test
    inline on its own path.
    """
    shape = pi.shape
    frame = shape.frame
    width, east_forced, rows = frame.width, frame.east_forced, pi.rows
    parts, n = shape.parts, shape.length
    # the value at each path position: a test on the set of cells, so a path
    # and its reverse pass or fail alike, and it reads path cells only
    on_path = {}
    for i, j in path:
        if not (0 < i <= n and 0 < j <= parts[i - 1]):  # `(i, j) in shape`, inline
            raise ValueError(f"path leaves the shape at {format_cell((i, j))}")
        on_path[i * width + j] = rows[i - 1][j - 1]
    for p, v in on_path.items():
        if east_forced[p] and on_path.get(p + 1) != v:
            return False
        if p + width in on_path and v != on_path[p + width]:
            return False
    return True


def _insert_into_copy(hook: RimHook, pi: Rpp) -> tuple[list[int], bool, list]:
    """Insert `hook` into a copy of `pi` laid out on the frame.

    Returns the walk's positions, whether the insertion succeeded, and the
    copy, which holds the result when it did and `pi` otherwise.
    """
    shape = pi.shape
    if hook.shape is not shape and hook.shape != shape:
        raise ValueError(f"hook shape {hook.shape} does not match {shape}")
    grid = _to_frame(shape, pi.rows)
    i, j = hook.tail
    walk, ok = _insertion_walk(shape, grid, i * shape.frame.width + j, len(hook))
    return walk, ok, grid


def _sw_path(walk: list[int], length: int, width: int) -> LatticePath:
    """The insertion path of `length` cells whose walk took the positions `walk`."""
    cells = [divmod(p, width) for p in walk]
    # a walk that stopped in column 0 goes on west
    i, j = cells[-1]
    cells += [(i, j - k) for k in range(1, length - len(cells) + 1)]
    # the walk steps south or west on the frame, and the rest goes west
    return LatticePath._trusted(tuple(cells))


def insertion_path(hook: RimHook, pi: Rpp) -> LatticePath:
    """The greedy south-west walk attempted when inserting `hook` into `pi`.

    Starts at the hook's tail and takes as many cells as the hook has: step
    south when the current cell sits on an inner diagonal or in band B and the
    value below equals the current one, otherwise step west. The walk is total;
    it never consults whether the insertion will succeed. On a failing
    insertion it may leave the diagram through the west edge (off-shape cells
    belong to no region, so the west branch applies there).
    """
    walk = _insert_into_copy(hook, pi)[0]
    return _sw_path(walk, len(hook), pi.shape.frame.width)


def try_insert(hook: RimHook, pi: Rpp) -> Rpp | InsertionFailure:
    """Insert a rim-hook, or report why it does not insert.

    On success the result is `pi` with 1 added along the insertion path. On
    failure an InsertionFailure value is returned (failure is an expected
    outcome, not a fault); a shape mismatch is a fault.
    """
    walk, ok, grid = _insert_into_copy(hook, pi)
    shape = pi.shape
    width = shape.frame.width
    if ok:
        # the walk's edge tests held (`_insertion_walk`): the result is ordered
        return Rpp._trusted(shape, _from_frame(grid, width, shape.parts))
    path = _sw_path(walk, len(hook), width)
    # `grid` holds `pi` again; the minimal candidate precedes the head exactly when some does
    p = next(_candidates_among(shape, grid, shape.frame.candidate_order), None)
    if p is None or content_key(witness := divmod(p, width)) >= content_key(path.head):
        raise RuntimeError(
            "insertion failed without a preceding candidate; this contradicts "
            f"the failure-witness theorem (shape {pi.shape}, {hook}, "
            f"path {path}, filling {pi.rows!r})"
        )
    return InsertionFailure(hook, path, witness)


def extraction_path(v: Cell, pi: Rpp) -> LatticePath:
    """The greedy north-east walk used to extract a rim-hook starting at `v`.

    `v` must be a candidate of `pi`. Step north from outer-diagonal or band-B
    cells whose value equals the one above; step east from inner-diagonal or
    band-A cells, and from the others while the row continues; stop at the end
    of a row when the value above is strictly smaller. Both greedy rules are
    deterministic, so no tie-breaking is ever needed. From a candidate that
    is not content-minimal, subtracting 1 along the walk may break the order.
    """
    shape = pi.shape
    width = shape.frame.width
    grid = _to_frame(shape, pi.rows)
    start = v[0] * width + v[1]
    if v not in shape or next(_candidates_among(shape, grid, (start,)), None) is None:
        raise ValueError(f"{format_cell(v)} is not a candidate of the filling")
    walk = _extraction_walk(shape, grid, start)[0]
    # the walk steps north or east on the frame
    return LatticePath._trusted(tuple([divmod(p, width) for p in walk]))


def rim_hook_of_path(path: LatticePath, shape: Partition) -> RimHook:
    """The unique rim-hook with the same tail and the same number of cells.

    Raises RuntimeError, naming the tail, when there is none.
    """
    (i, j), length = path.tail, len(path)
    if shape.row_length(i) != j:
        raise RuntimeError(
            f"path tail {format_cell((i, j))} is not at the end of row {i} of {shape}"
        )
    col = shape._column_by_head_content.get(j - i + 1 - length)
    if col is None or col > j:
        raise RuntimeError(
            f"no rim-hook of {shape} has tail {format_cell((i, j))} and {length} cells"
        )
    return shape.rim_hook((i, col))


def _extractions(pi: Rpp) -> Iterator[tuple[Cell, list[int], list]]:
    """The extraction chain of the lexicographic factorization, on one grid changed in place.

    Yields (anchor, path positions, grid) per extraction, on `pi.shape.frame`;
    the grid is the live state after that extraction. One pass along
    `frame.candidate_order` extracts at each position v while it holds a
    candidate: by the candidate-stability law, that makes no cell before v a
    candidate. A cell's status reads only it and its west and north
    neighbours, and a path cell keeps or loses both margins (a neighbour on
    the path loses 1 with it). Off the path, margins grow only: south of v,
    which comes after v; east of the tail, outside the diagram; east of a
    after a north step a -> b, on band B or an inner diagonal (the diagonal
    after an outer or band-B one is one of those), where no candidate sits;
    and south of b after an east step a -> b. So the guard re-tests v and
    one cell per east step, which `_extraction_walk` lists as it walks, and
    any candidate among them but v raises. So does a walk that fails its
    north test or ends on no rim-hook, which the extraction theorem rules
    out at the content-minimal candidate; each dump names the filling.
    """
    shape = pi.shape
    frame = shape.frame
    width, kinds, heads = frame.width, frame.candidate, shape._column_by_head_content
    outer = Region.OUTER_DIAG
    grid = _to_frame(shape, pi.rows)
    anchors: list[Cell] = []
    # each position is tested against the grid as it stands when the pass reaches it
    for v in _candidates_among(shape, grid, frame.candidate_order):
        again = True
        while again:
            path, ok, guard = _extraction_walk(shape, grid, v)
            i, j = divmod(path[-1], width)
            col = heads.get(j - i + 1 - len(path), j + 1)
            if not ok or col > j:
                raise RuntimeError(
                    f"extraction at {format_cell(divmod(v, width))} broke the order or "
                    "ended on no rim-hook, against the extraction theorem "
                    f"(shape {shape}, filling {pi.rows!r}, anchors {anchors})"
                )
            anchor = (i, col)
            if anchors and revlex_key(anchor) < revlex_key(anchors[-1]):
                raise RuntimeError(
                    "extraction produced a decreasing hook sequence "
                    f"(shape {shape}, filling {pi.rows!r}, anchors {anchors + [anchor]})"
                )
            anchors.append(anchor)
            again = False
            for q in guard:
                kind = kinds[q]  # `_candidates_among`'s test, inline
                if kind and (x := grid[q]) > grid[q - 1] and (kind is outer or x > grid[q - width]):
                    if q != v:
                        raise RuntimeError(
                            f"extraction at {format_cell(divmod(v, width))} made the earlier "
                            f"cell {format_cell(divmod(q, width))} a candidate, against the "
                            f"candidate-stability law (shape {shape}, filling {pi.rows!r}, "
                            f"anchors {anchors})"
                        )
                    again = True
            yield anchor, path, grid


def factorize(pi: Rpp) -> Factorization:
    """The lexicographic factorization of a reverse plane partition.

    Repeatedly extracts at the content-minimal candidate until the zero
    filling remains; the anchors come out weakly increasing in the rim-hook
    order. By the candidate-stability law that minimum never moves back, so
    this is one pass over the cells. After each extraction it re-tests v and
    one cell per east step of the path, and raises, naming the filling, if
    a candidate turned up behind v. Costs O(cells + hooks x hook length).
    """
    # each anchor is a cell of the shape, and `_extractions` raises on a decreasing one
    return Factorization._trusted(pi.shape, tuple([anchor for anchor, _, _ in _extractions(pi)]))


def build(tableau: Tableau) -> Rpp:
    """Insert the encoded multiset of rim-hooks into the zero filling.

    The multiset is inserted in decreasing rim-hook order (largest hook
    first): columns west to east, each top to bottom, reading the tableau in
    place, with each cell's tail and hook length computed once. Every
    insertion succeeds; a failure would contradict the well-definedness
    theorem and aborts with a diagnostic dump. The insertions update one
    grid in place, so the cost is O(cells + hooks x hook length).
    """
    shape = tableau.shape
    parts = shape.parts
    conj = shape._conjugate_parts
    width = shape.frame.width
    rows = tableau.rows
    grid = list(shape.frame.zero)
    for j, height in enumerate(conj, start=1):
        for i in range(1, height + 1):
            count = rows[i - 1][j - 1]
            if not count:
                continue
            tail = i * width + parts[i - 1]
            hook_length = parts[i - 1] + height - i - j + 1
            for k in range(count):
                if _insertion_walk(shape, grid, tail, hook_length)[1]:
                    continue
                # the walk restored the filling as it was before this insertion
                pi = Rpp(shape, _from_frame(grid, width, parts))
                result = try_insert(shape.rim_hook((i, j)), pi)
                anchors = tableau.anchors()
                step = anchors[::-1].index((i, j)) + k + 1
                raise RuntimeError(
                    "lexicographic insertion failed, which contradicts the "
                    f"well-definedness theorem: shape {tableau.shape}, multiset "
                    f"{anchors}, step {step} at anchor {format_cell((i, j))}: {result}"
                )
    # every insertion passed the walk's edge tests (`_insertion_walk`)
    return Rpp._trusted(shape, _from_frame(grid, width, parts))
