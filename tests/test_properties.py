"""Cross-cutting invariants that tie several operations together."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from rimhooks import (
    Partition,
    Region,
    Rpp,
    Tableau,
    content_key,
    extraction_path,
    factorize,
    is_compatible,
    rim_hook_of_path,
)
from rimhooks.enumeration import enumerate_rpps, enumerate_sw_paths
from rimhooks.insertion import (
    _anchor_of_walk,
    _compatible,
    _extraction_walk,
    _insertion_walk,
    is_factor,
)
from rimhooks.peeling import _toggle
from rimhooks.rpp import _add_along, _candidates_among, _from_frame, _to_frame
from conftest import all_partitions, partitions, rpps


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
    cur = pi
    while cur.candidates():
        v = min(cur.candidates(), key=content_key)
        path = extraction_path(v, cur)
        anchors.append(rim_hook_of_path(path, cur.shape).anchor)
        cur = cur.with_path(path, -1)
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


class TestLocalShortcutsMatchFullChecks:
    @settings(max_examples=300, deadline=None)
    @given(rpps(), st.data())
    def test_in_place_update_fails_exactly_when_the_constructor_does(self, pi, data):
        shape = pi.shape
        cells = [data.draw(st.sampled_from(list(shape.cells())))]
        steps = data.draw(st.sampled_from((((-1, 0), (0, 1)), ((1, 0), (0, -1)))))
        for _ in range(data.draw(st.integers(0, 8))):
            di, dj = data.draw(st.sampled_from(steps))
            cells.append((cells[-1][0] + di, cells[-1][1] + dj))
        delta = data.draw(st.sampled_from((1, -1)))
        width = shape.frame.width
        # the first cell off the diagram, where the containment test stops,
        # borders a cell of it, so it has a position on the frame
        positions = [i * width + j for i, j in cells]
        grid = _to_frame(shape, pi.rows)
        try:
            expected = pi.with_path(cells, delta)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                _add_along(shape, grid, positions, delta)
            assert str(raised.value) == str(exc)
            assert grid == _to_frame(shape, pi.rows)
        else:
            _add_along(shape, grid, positions, delta)
            assert grid == _to_frame(shape, expected.rows)


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

    @settings(max_examples=200, deadline=None)
    @given(rpps())
    def test_walks_and_compatibility(self, pi):
        shape, rows = pi.shape, pi.rows
        width = shape.frame.width
        grid = _to_frame(shape, rows)
        for i, p in enumerate(shape.parts, start=1):
            # long enough walks leave the diagram through the west edge
            for length in range(1, p + shape.length + 1):
                positions = _insertion_walk(shape, grid, i * width + p, length)
                walk = [divmod(q, width) for q in positions]
                # the walk stops in column 0; the oracle goes on west
                assert len(walk) == length or walk[-1][1] == 0
                a, b = walk[-1]
                walk += [(a, b - k) for k in range(1, length - len(walk) + 1)]
                assert walk == _insertion_walk_per_cell(shape, rows, (i, p), length)
                inside = all(u in shape for u in walk)
                assert (walk[-1][1] >= 1) == inside
                if inside:
                    assert _compatible(shape, grid, positions) == _compatible_per_cell(
                        shape, rows, walk
                    )
                    # set-based, so the reversed path reads the same
                    assert _compatible(shape, grid, positions[::-1]) == _compatible(
                        shape, grid, positions
                    )
        for v in shape.cells():
            if _is_candidate_per_cell(shape, rows, v):
                walk = _extraction_walk(shape, grid, v[0] * width + v[1])
                assert [divmod(q, width) for q in walk] == _extraction_walk_per_cell(
                    shape, rows, v
                )

    @settings(max_examples=200, deadline=None)
    @given(rpps())
    def test_anchor_lookup_against_every_rim_hook(self, pi):
        shape = pi.shape
        hooks = {(h.tail, len(h)): h.anchor for h in shape.rim_hooks()}
        for i, p in enumerate(shape.parts, start=1):
            for length in range(1, p + shape.length + 1):
                expected = hooks.get(((i, p), length))
                if expected is None:
                    with pytest.raises(RuntimeError, match="no rim-hook"):
                        _anchor_of_walk(shape, (i, p), length)
                else:
                    assert _anchor_of_walk(shape, (i, p), length) == expected
        with pytest.raises(RuntimeError, match="is not at the end of row"):
            _anchor_of_walk(shape, (1, shape.parts[0] - 1), 1)


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
                assert v == rows[i - 1][j - 1] == pi.value_ext(i, j)
            else:
                assert v == math.inf == pi.value_ext(i, j)
            region = shape.region((i, j)) if (i, j) in shape else None
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
    # the check the toggle's inline test replaced: each entry at `cells` is
    # non-negative and in order with its four neighbours
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


@st.composite
def _any_grids(draw):
    """A shape and non-negative entries in no particular order."""
    shape = draw(partitions.filter(bool))
    rows = tuple(
        tuple(draw(st.integers(0, 4)) for _ in range(p)) for p in shape.parts
    )
    return shape, rows


class TestToggleCheck:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_any_grids(), rpps().map(lambda pi: (pi.shape, pi.rows))), st.data())
    def test_fused_check_fires_exactly_when_the_neighbour_check_fails(self, drawn, data):
        shape, rows = drawn
        x = data.draw(st.sampled_from(shape.corners()[1]))
        r, s = x
        toggled = [(i, i + s - r) for i in range(max(1, 1 - s + r), r)]
        old = Tableau(shape, rows)  # the extended lookup, without the order check
        expected = {
            (i, j): max(old.value_ext(i - 1, j), old.value_ext(i, j - 1))
            + min(old.value_ext(i, j + 1), old.value_ext(i + 1, j))
            - rows[i - 1][j - 1]
            for i, j in toggled
        }
        width = shape.frame.width
        grid = _to_frame(shape, rows)
        parts = list(shape.parts)
        try:
            _toggle(grid, width, parts, x)
            fired = False
        except ValueError:
            fired = True
        assert parts == list(shape.remove_corner(x).parts)
        after = _from_frame(grid, width, parts)
        assert {u: after[u[0] - 1][u[1] - 1] for u in toggled} == expected
        assert fired == (not _monotone_around(after, parts, toggled))
