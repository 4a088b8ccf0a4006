"""Cross-cutting invariants that tie several operations together."""

import dataclasses
import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings

from rimhooks import (
    Partition,
    Region,
    Rpp,
    Tableau,
    content_key,
    east,
    extraction_path,
    factorize,
    is_compatible,
    rim_hook_of_path,
    south,
)
from rimhooks.classical import _hg_inv_step, _hg_step
from rimhooks.enumeration import enumerate_rpps, enumerate_sw_paths
from rimhooks.insertion import (
    LatticePath,
    _extraction_walk,
    _insertion_walk,
    build,
)
from rimhooks.peeling import _peel
from rimhooks.rpp import _candidates_among, _from_frame, _to_frame
from conftest import all_partitions, rpps
from oracles import extract_min, is_factor, value_ext


class TestFactorPathsReverseToExtractions:
    def test_any_certifying_path_is_the_greedy_one(self):
        # whenever a south-west path certifies a factor (compatible, reduces to
        # a valid filling, right tail and length), its head is a candidate and
        # the path is exactly the reversed extraction walk from that head
        for parts in ((2, 2), (3, 2), (3, 3, 3)):
            shape = Partition(parts)
            hooks = shape.rim_hooks()
            for pi in enumerate_rpps(shape, 5):
                for hook in hooks:
                    for path in enumerate_sw_paths(shape, hook.tail, len(hook)):
                        if not is_compatible(path, pi):
                            continue
                        try:
                            pi.with_path(path, -1)
                        except ValueError:
                            continue
                        head = path.head
                        assert head in pi.candidates()
                        greedy = extraction_path(head, pi)
                        assert path.reverse().cells == greedy.cells


class TestFactorDefinitionsAgree:
    def test_path_definition_matches_insertion_preimage(self):
        # a rim-hook is a factor exactly when some certifying path exists
        shape = Partition((3, 2))
        for pi in enumerate_rpps(shape, 5):
            for hook in shape.rim_hooks():
                certified = False
                for path in enumerate_sw_paths(shape, hook.tail, len(hook)):
                    if not is_compatible(path, pi):
                        continue
                    try:
                        reduced = pi.with_path(path, -1)
                    except ValueError:
                        continue
                    if rim_hook_of_path(path.reverse(), shape).anchor == hook.anchor:
                        certified = True
                assert is_factor(hook, pi) == certified


class TestMinimalCandidateExtractionAlwaysWorks:
    def test_min_candidate_path_certifies_a_factor(self):
        from rimhooks import rim_hook_key

        for parts in ((2, 2), (4, 3, 1)):
            shape = Partition(parts)
            for pi in enumerate_rpps(shape, 6):
                v = pi.min_candidate()
                if v is None:
                    continue
                assert all(content_key(v) <= content_key(u) for u in pi.candidates())
                path = extraction_path(v, pi)
                assert is_compatible(path, pi)
                pi.with_path(path, -1)  # raises if the reduction is invalid
                # some factor exists at most as large as any candidate's hook
                smallest = rim_hook_of_path(path, shape)
                assert is_factor(smallest, pi)
                for u in pi.candidates():
                    at_u = rim_hook_of_path(extraction_path(u, pi), shape)
                    assert any(
                        rim_hook_key(h) <= rim_hook_key(at_u) and is_factor(h, pi)
                        for h in shape.rim_hooks()
                    )


def _chain_by_definition(pi):
    """The lexicographic factorization step by step through the public single-step API."""
    anchors = []
    while (step := extract_min(pi)) is not None:
        hook, pi = step
        anchors.append(hook.anchor)
    return tuple(anchors)


def _small_fillings():
    """Every filling of every partition of at most 6 cells, up to size 4."""
    for shape in all_partitions(6):
        yield from enumerate_rpps(shape, 4)


def _assert_candidates_match_the_definition(pi):
    expected = {u for u in pi.shape.cells() if _is_candidate_per_cell(pi.shape, pi.rows, u)}
    assert pi.candidates() == expected
    assert pi.min_candidate() == (None if pi.is_zero() else min(expected, key=content_key))


class TestOnePassFactorization:
    @settings(max_examples=150, deadline=None)
    @given(rpps())
    def test_one_pass_equals_the_chain_by_definition(self, pi):
        assert factorize(pi).anchors == _chain_by_definition(pi)

    def test_one_pass_equals_the_chain_by_definition_on_small_fillings(self):
        for pi in _small_fillings():
            assert factorize(pi).anchors == _chain_by_definition(pi)

    @settings(max_examples=150, deadline=None)
    @given(rpps())
    def test_candidates_and_min_candidate_match_the_definition(self, pi):
        _assert_candidates_match_the_definition(pi)

    def test_candidates_and_min_candidate_on_small_fillings(self):
        for pi in _small_fillings():
            _assert_candidates_match_the_definition(pi)

    def test_a_candidate_behind_the_pass_raises_naming_the_filling(self, monkeypatch):
        # Reversed inside each diagonal, the table visits (1,2) before (2,3),
        # which comes first in content order; the extraction at (1,2) leaves
        # (2,3) a candidate, so the pass must raise.
        pi = Rpp(Partition((3, 3)), ((0, 1, 1), (0, 1, 2)))
        frame = pi.shape.frame
        width = frame.width
        by_diagonal = {}
        for p in frame.candidate_order:
            by_diagonal.setdefault(p % width - p // width, []).append(p)
        skewed = tuple(p for ps in by_diagonal.values() for p in reversed(ps))
        assert skewed != frame.candidate_order
        monkeypatch.setitem(
            pi.shape.__dict__, "frame", dataclasses.replace(frame, candidate_order=skewed)
        )
        with pytest.raises(RuntimeError, match="candidate-stability law") as raised:
            factorize(pi)
        message = str(raised.value)
        assert repr(pi.rows) in message and "shape 3,3" in message
        assert "(2,3)" in message

    def test_a_walk_that_breaks_the_order_raises_naming_the_filling(self, monkeypatch):
        # Visited first, the candidate (2,1), which is not content-minimal,
        # starts a walk that fails its north test at (2,2).
        pi = Rpp(Partition((3, 3)), ((0, 1, 1), (1, 1, 2)))
        frame = pi.shape.frame
        start = 2 * frame.width + 1
        skewed = (start,) + tuple(p for p in frame.candidate_order if p != start)
        monkeypatch.setitem(
            pi.shape.__dict__, "frame", dataclasses.replace(frame, candidate_order=skewed)
        )
        with pytest.raises(RuntimeError, match="extraction theorem") as raised:
            factorize(pi)
        message = str(raised.value)
        assert message.startswith("extraction at (2,1) ")
        assert repr(pi.rows) in message and "shape 3,3" in message


def _new_candidates_by_kind(pi):
    """Extract at every candidate v of `pi` in turn; sort the cells that turn into candidates.

    The guard lemma of `insertion._extractions`: such a cell lies south of b
    after some east step a -> b of the path ("south of b"), or south of v
    ("south of v"). Anything else is filed under "unguarded". Candidates are
    read off the per-cell oracle, before and after.
    """
    shape = pi.shape
    width = shape.frame.width
    before = {u for u in shape.cells() if _is_candidate_per_cell(shape, pi.rows, u)}
    kinds = Counter()
    for v in before:
        grid = _to_frame(shape, pi.rows)
        path, ok, _ = _extraction_walk(shape, grid, v[0] * width + v[1])
        if not ok:
            # the walk broke the order, so it extracted nothing
            continue
        cells = [divmod(p, width) for p in path]
        guarded = {south(b): "south of b" for a, b in zip(cells, cells[1:]) if b == east(a)}
        guarded[south(v)] = "south of v"
        rows = _from_frame(grid, width, shape.parts)
        for u in shape.cells():
            if u not in before and _is_candidate_per_cell(shape, rows, u):
                kinds[guarded.get(u, "unguarded")] += 1
    return kinds


class TestGuardLemma:
    # at every candidate, not only the content-minimal one, so that both
    # guarded kinds turn up

    @settings(max_examples=150, deadline=None)
    @given(rpps())
    def test_new_candidates_lie_in_the_guarded_cells(self, pi):
        assert _new_candidates_by_kind(pi)["unguarded"] == 0

    def test_new_candidates_lie_in_the_guarded_cells_on_small_fillings(self):
        kinds = Counter()
        for pi in _small_fillings():
            kinds += _new_candidates_by_kind(pi)
        assert kinds["unguarded"] == 0 and kinds["south of v"]

    def test_an_east_step_can_make_the_cell_south_of_it_a_candidate(self):
        # extracting at (1,1) walks (1,1) (1,2) (1,3); (2,2), south of the
        # east step's (1,2), and (2,1), south of v, turn into candidates.
        # Extracting at (1,2) instead makes (2,2), south of v, one.
        pi = Rpp(Partition((3, 3)), ((1, 2, 2), (1, 2, 2)))
        assert _new_candidates_by_kind(pi) == Counter({"south of b": 1, "south of v": 2})


def _check_extraction_guards(pi):
    """The guard `_extraction_walk` records, from every candidate, against the
    one read off its path: v, then b + width for each east step a -> b.
    Returns how many east steps the walks took."""
    shape = pi.shape
    width = shape.frame.width
    east_steps = 0
    for i, j in sorted(pi.candidates()):
        path, _, guard = _extraction_walk(shape, _to_frame(shape, pi.rows), i * width + j)
        expected = [path[0]] + [b + width for a, b in zip(path, path[1:]) if b == a + 1]
        assert guard == expected
        east_steps += len(guard) - 1
    return east_steps


class TestExtractionGuard:
    @settings(max_examples=200, deadline=None)
    @given(rpps())
    def test_the_walk_records_the_cell_south_of_each_east_step(self, pi):
        _check_extraction_guards(pi)

    def test_the_walk_records_the_cell_south_of_each_east_step_on_small_fillings(self):
        assert sum(_check_extraction_guards(pi) for pi in _small_fillings())


# The kernels read the flag tables of Partition.frame on positions, with
# the frame's border in place of bounds tests. The per-cell logic they
# replaced, written with Partition.region and `in shape`, is the oracle below.


def _region_or_none(shape, u):
    return shape.region(u) if u in shape else None


def _is_candidate_per_cell(shape, rows, u):
    reg = _region_or_none(shape, u)
    if reg not in (Region.OUTER_DIAG, Region.BAND_A):
        return False
    i, j = u
    v = rows[i - 1][j - 1]
    if v <= (rows[i - 1][j - 2] if j > 1 else 0):
        return False
    return reg is Region.OUTER_DIAG or v > (rows[i - 2][j - 1] if i > 1 else 0)


def _compatible_per_cell(shape, rows, cells):
    on_path = set(cells)
    for u in cells:
        i, j = u
        v = rows[i - 1][j - 1]
        if _region_or_none(shape, u) in (Region.INNER_DIAG, Region.BAND_A):
            if (i, j + 1) not in on_path or v != rows[i - 1][j]:
                return False
        if (i + 1, j) in on_path and v != rows[i][j - 1]:
            return False
    return True


def _insertion_walk_per_cell(shape, rows, tail, length):
    i, j = tail
    cells = [tail]
    for _ in range(length - 1):
        if (
            _region_or_none(shape, (i, j)) in (Region.BAND_B, Region.INNER_DIAG)
            and (i + 1, j) in shape
            and rows[i][j - 1] == rows[i - 1][j - 1]
        ):
            i += 1
        else:
            j -= 1
        cells.append((i, j))
    return cells


def _extraction_walk_per_cell(shape, rows, v):
    i, j = v
    cells = [v]
    while True:
        reg = shape.region((i, j))
        if reg in (Region.OUTER_DIAG, Region.BAND_B) and rows[i - 1][j - 1] == (
            rows[i - 2][j - 1] if i > 1 else 0
        ):
            i -= 1
        elif reg in (Region.INNER_DIAG, Region.BAND_A) or (i, j + 1) in shape:
            j += 1
        else:
            break
        cells.append((i, j))
    return cells


def _with_path_outcome(pi, cells, delta):
    """The filling `with_path` gives, or None and the text of its ValueError."""
    try:
        return pi.with_path(cells, delta), None
    except ValueError as exc:
        return None, str(exc)


def _check_walk(pi, grid, ok, cells, delta, compatible=True):
    """A walker's outcome against the per-cell walk `cells` followed by `with_path`.

    Returns "ok", "incompatible" or "order".
    """
    shape = pi.shape
    expected, error = _with_path_outcome(pi, cells, delta)
    assert ok == (error is None and compatible)
    if ok:
        assert grid == _to_frame(shape, expected.rows)
        return "ok"
    if delta > 0:
        # a failed insertion restores every cell it changed
        assert grid == _to_frame(shape, pi.rows)
    return "order" if error else "incompatible"


def _check_insertion_and_extraction_walks(pi):
    """Both single-loop walkers on `pi`, against the per-cell walks, `with_path` and
    `is_compatible`: every row end with every walk length (every rim-hook, and
    walks that leave the diagram west), and every candidate. Returns a tally
    of the outcomes."""
    shape, rows = pi.shape, pi.rows
    width = shape.frame.width
    outcomes = Counter()
    for i, p in enumerate(shape.parts, start=1):
        for length in range(1, p + shape.length + 1):
            cells = _insertion_walk_per_cell(shape, rows, (i, p), length)
            grid = _to_frame(shape, rows)
            positions, ok = _insertion_walk(shape, grid, i * width + p, length)
            walk = [divmod(q, width) for q in positions]
            # the walk stops in column 0; the oracle goes on west
            assert len(walk) == length or walk[-1][1] == 0
            a, b = walk[-1]
            walk += [(a, b - k) for k in range(1, length - len(walk) + 1)]
            assert walk == cells
            inside = all(u in shape for u in walk)
            assert (walk[-1][1] >= 1) == inside
            compatible = False
            if inside:
                compatible = _compatible_per_cell(shape, rows, walk)
                path = LatticePath(tuple(walk))
                assert is_compatible(path, pi) == compatible
                # set-based, so the reversed path reads the same
                assert is_compatible(path.reverse(), pi) == compatible
            outcome = _check_walk(pi, grid, ok, cells, +1, compatible)
            outcomes["insert", outcome if inside else "left west"] += 1
    # from every candidate, not only the minimal one, where the north test may fail
    for v in sorted(pi.candidates()):
        cells = _extraction_walk_per_cell(shape, rows, v)
        grid = _to_frame(shape, rows)
        positions, ok, _ = _extraction_walk(shape, grid, v[0] * width + v[1])
        assert [divmod(q, width) for q in positions] == cells
        outcomes["extract", _check_walk(pi, grid, ok, cells, -1)] += 1
    return outcomes


def _hg_walk_per_cell(pi, start_col):
    i, j = pi.shape.col_length(start_col), start_col
    cells = [(i, j)]
    while True:
        if value_ext(pi, i - 1, j) == value_ext(pi, i, j):
            i -= 1
        elif (i, j + 1) in pi.shape:
            j += 1
        else:
            break
        cells.append((i, j))
    return cells


def _hg_inv_walk_per_cell(pi, f, s):
    i, j = f, pi.shape.row_length(f)
    cells = [(i, j)]
    while True:
        if value_ext(pi, i + 1, j) == value_ext(pi, i, j):
            i += 1
        elif j > s:
            j -= 1
        else:
            break
        cells.append((i, j))
    return cells


def _check_hillman_grassl_steps(pi):
    """The per-hook steps of `hg` and `hg_inv`, against the per-cell walks
    followed by `with_path`. Returns a tally of the outcomes.

    `hg` starts only at the first column whose bottom entry is nonzero, and
    from there its walk keeps the filling ordered. `hg_inv` runs its hooks
    in one order, but from any start its walk keeps the filling ordered, so
    both steps test nothing.
    """
    shape, rows = pi.shape, pi.rows
    width = shape.frame.width
    outcomes = Counter()
    columns = range(1, shape.row_length(1) + 1)
    start = next((j for j in columns if pi.value((shape.col_length(j), j))), None)
    if start is not None:
        cells = _hg_walk_per_cell(pi, start)
        expected, error = _with_path_outcome(pi, cells, -1)
        assert error is None
        grid = _to_frame(shape, rows)
        assert [divmod(q, width) for q in _hg_step(shape, grid, start)] == cells
        assert grid == _to_frame(shape, expected.rows)
        outcomes["hg", "ok"] += 1
    for f, s in shape.cells():
        expected, error = _with_path_outcome(pi, _hg_inv_walk_per_cell(pi, f, s), +1)
        assert error is None
        grid = _to_frame(shape, rows)
        _hg_inv_step(shape, grid, f, s)
        assert grid == _to_frame(shape, expected.rows)
        outcomes["hg_inv", "ok"] += 1
    return outcomes


class TestHillmanGrasslSteps:
    @settings(max_examples=300, deadline=None)
    @given(rpps())
    def test_steps_from_every_start(self, pi):
        _check_hillman_grassl_steps(pi)

    def test_steps_from_every_start_on_small_fillings(self):
        outcomes = Counter()
        for pi in _small_fillings():
            outcomes += _check_hillman_grassl_steps(pi)
        assert set(outcomes) == {("hg", "ok"), ("hg_inv", "ok")}


class TestInlineKernelsMatchPerCellLogic:
    @settings(max_examples=200, deadline=None)
    @given(rpps())
    def test_candidate_test_on_the_box_and_one_ring_outside(self, pi):
        shape, rows = pi.shape, pi.rows
        width = shape.frame.width
        grid = _to_frame(shape, rows)
        box = [
            (i, j)
            for i in range(shape.length + 2)
            for j in range(shape.parts[0] + 2)
        ]
        expected = {u for u in box if _is_candidate_per_cell(shape, rows, u)}
        found = _candidates_among(shape, grid, [i * width + j for i, j in box])
        # yielded in the order given
        assert [divmod(p, width) for p in found] == [u for u in box if u in expected]
        for i, j in box:
            assert bool(list(_candidates_among(shape, grid, (i * width + j,)))) == (
                (i, j) in expected
            )

    @settings(max_examples=300, deadline=None)
    @given(rpps())
    # the insertion at (1,3) of 4 cells breaks only the south edge of (1,2),
    # which it leaves by a west step
    @example(Rpp(Partition((3, 3, 2)), ((0, 0, 0), (0, 0, 1), (1, 1))))
    def test_walks_and_compatibility(self, pi):
        _check_insertion_and_extraction_walks(pi)

    def test_walks_and_compatibility_on_small_fillings(self):
        outcomes = Counter()
        for pi in _small_fillings():
            outcomes += _check_insertion_and_extraction_walks(pi)
        # every branch of the insertion walker, failures included, is
        # reached; from these candidates the extraction walk never fails
        assert set(outcomes) == {
            ("insert", "ok"),
            ("insert", "left west"),
            ("insert", "incompatible"),
            ("insert", "order"),
            ("extract", "ok"),
        }

    def test_the_north_test_fails_from_a_candidate_that_is_not_minimal(self):
        # From (2,1) the walk steps east from (2,2), whose 1 equals the 1
        # above it, and subtracting 1 there breaks the column.
        pi = Rpp(Partition((3, 3)), ((0, 1, 1), (1, 1, 2)))
        assert (2, 1) in pi.candidates() and pi.min_candidate() == (2, 3)
        outcomes = _check_insertion_and_extraction_walks(pi)
        assert outcomes["extract", "order"] == 1 and outcomes["extract", "ok"] == 2

    def test_no_row_end_forces_an_east_step(self):
        # so a forced east step of the extraction walk never leaves the diagram
        row_ends = 0
        for shape in all_partitions(15):
            frame = shape.frame
            for i, p in enumerate(shape.parts, start=1):
                assert not frame.east_forced[i * frame.width + p]
                row_ends += 1
        assert row_ends == 3615

    def test_a_failed_insertion_is_reported_on_the_filling_before_it(self, monkeypatch):
        # Forcing an east step at the end of the first row makes the second
        # insertion of build, at (1,2), incompatible; the dump names the
        # filling left by the first insertion, at (2,1), and not one with the
        # failed walk applied.
        tableau = Tableau(Partition((2, 1)), ((0, 1), (1,)))
        frame = tableau.shape.frame
        forced = list(frame.east_forced)
        forced[frame.width + 2] = True
        monkeypatch.setitem(
            tableau.shape.__dict__, "frame", dataclasses.replace(frame, east_forced=tuple(forced))
        )
        with pytest.raises(RuntimeError, match=re.escape("filling ((0, 0), (1,))")):
            build(tableau)

    @settings(max_examples=200, deadline=None)
    @given(rpps())
    def test_anchor_lookup_against_every_rim_hook(self, pi):
        # through north-east paths along the row, which may leave it west
        shape = pi.shape
        hooks = {(h.tail, len(h)): h.anchor for h in shape.rim_hooks()}

        def along_row(i, j, length):
            return LatticePath(tuple((i, j - k) for k in reversed(range(length))))

        for i, p in enumerate(shape.parts, start=1):
            for length in range(1, p + shape.length + 1):
                expected = hooks.get(((i, p), length))
                if expected is None:
                    with pytest.raises(RuntimeError, match="no rim-hook"):
                        rim_hook_of_path(along_row(i, p, length), shape)
                else:
                    assert rim_hook_of_path(along_row(i, p, length), shape).anchor == expected
        with pytest.raises(RuntimeError, match="is not at the end of row"):
            rim_hook_of_path(along_row(1, shape.parts[0] - 1, 1), shape)


class TestFrame:
    @staticmethod
    def _check_round_trip(shape):
        frame = shape.frame
        width = frame.width
        assert width == shape.row_length(1) + 2
        rows = tuple(tuple(i + j for j in range(1, p + 1)) for i, p in enumerate(shape.parts, 1))
        pi = Rpp(shape, rows)
        grid = _to_frame(shape, rows)
        assert len(grid) == (shape.length + 2) * width
        assert _from_frame(grid, width, shape.parts) == rows
        for p, v in enumerate(grid):
            i, j = divmod(p, width)
            if i == 0 or j == 0:
                assert v == 0
            elif (i, j) in shape:
                assert v == rows[i - 1][j - 1] == value_ext(pi, i, j)
            else:
                assert v == math.inf == value_ext(pi, i, j)
            region = shape.region((i, j)) if (i, j) in shape else None
            assert frame.zero[p] == (0 if i == 0 or j == 0 or region else math.inf)
            assert frame.inside[p] == (region is not None)
            assert frame.south_step[p] == (region in (Region.BAND_B, Region.INNER_DIAG))
            assert frame.east_forced[p] == (region in (Region.INNER_DIAG, Region.BAND_A))
            assert frame.candidate[p] == (
                region if region in (Region.OUTER_DIAG, Region.BAND_A) else None
            )

    def test_rows_round_trip_with_the_extended_values_on_the_border(self):
        for shape in [Partition(), *all_partitions(10), Partition((50, 1))]:
            self._check_round_trip(shape)


def _monotone_around(rows, parts, cells):
    # each entry at `cells` is non-negative and in order with its four neighbours
    n = len(parts)
    for i, j in cells:
        row = rows[i - 1]
        v = row[j - 1]
        if (
            v < 0
            or (j > 1 and row[j - 2] > v)
            or (j < parts[i - 1] and row[j] < v)
            or (i > 1 and rows[i - 2][j - 1] > v)
            or (i < n and j <= parts[i] and rows[i][j - 1] < v)
        ):
            return False
    return True


class TestToggleCheck:
    # `_peel` takes a reverse plane partition, walks each corner's diagonal
    # north-west and stops where min(east, south) is 0; the per-cell formula
    # must hold on the whole diagonal, the cells past the stop included
    @settings(max_examples=300, deadline=None)
    @given(rpps())
    # (1,1) is 0 and (2,2) is 1: the walk from (3,3) toggles (2,2) and stops
    # at (1,1), where lo is 0
    @example(Rpp(Partition((3, 3, 3)), ((0, 0, 1), (0, 1, 1), (1, 1, 2))))
    def test_every_diagonal_cell_gets_the_toggle_and_stays_in_order(self, pi):
        shape, rows = pi.shape, pi.rows
        width = shape.frame.width
        for x in shape.corners()[1]:
            r, s = x
            toggled = [(i, i + s - r) for i in range(max(1, 1 - s + r), r)]
            expected = {
                (i, j): max(value_ext(pi, i - 1, j), value_ext(pi, i, j - 1))
                + min(value_ext(pi, i, j + 1), value_ext(pi, i + 1, j))
                - rows[i - 1][j - 1]
                for i, j in toggled
            }
            grid = _to_frame(shape, rows)
            parts = list(shape.parts)
            counts = _peel(grid, width, parts, (x,))
            assert parts == list(shape.remove_corner(x).parts)
            assert counts[r * width + s] == rows[r - 1][s - 1] - max(
                value_ext(pi, r - 1, s), value_ext(pi, r, s - 1)
            )
            after = _from_frame(grid, width, parts)
            assert {u: after[u[0] - 1][u[1] - 1] for u in toggled} == expected
            assert _monotone_around(after, parts, toggled)
