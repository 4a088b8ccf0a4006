import math
import operator
import re

import pytest
from hypothesis import given, strategies as st

from rimhooks import (
    Partition,
    Region,
    content,
    content_key,
    east,
    format_cell,
    parse_cell,
    revlex_key,
    rim_hook_key,
    south,
)
from rimhooks.geometry import Frame
from conftest import IntLike, all_partitions
from perfbench.workloads import LARGE_SHAPES
from test_scale import SQUARE, STAIRCASE

cells = st.tuples(st.integers(1, 9), st.integers(1, 9))


def hook_cells_oracle(shape: Partition, u) -> int:
    # independent count: u itself plus in-shape cells straight east and south
    i, j = u
    arm = sum(1 for c in range(j + 1, shape.parts[i - 1] + 1))
    leg = sum(1 for r in range(i + 1, shape.length + 1) if (r, j) in shape)
    return 1 + arm + leg


def corner_cells_oracle(shape: Partition):
    # the cell-scan definition: an outer corner has neither its east nor its
    # south neighbour in the diagram; an inner corner has both, but not the
    # cell south-east of it
    inner, outer = [], []
    for u in shape.cells():
        e_in, s_in = east(u) in shape, south(u) in shape
        if not e_in and not s_in:
            outer.append(u)
        elif e_in and s_in and east(south(u)) not in shape:
            inner.append(u)
    inner.sort(key=content)
    outer.sort(key=content)
    return tuple(inner), tuple(outer)


def frame_oracle(shape: Partition) -> Frame:
    # position by position: each cell's region, with the border and the
    # outside as None, and the candidate positions sorted by the content key
    parts = shape.parts
    width = (parts[0] if parts else 0) + 2
    by_position = [None] * ((len(parts) + 2) * width)
    for i, j in shape.cells():
        by_position[i * width + j] = shape.region((i, j))
    inner, outer = Region.INNER_DIAG, Region.OUTER_DIAG
    band_a, band_b = Region.BAND_A, Region.BAND_B
    candidate = tuple(r if r is outer or r is band_a else None for r in by_position)
    order = sorted(
        (p for p, r in enumerate(candidate) if r), key=lambda p: content_key(divmod(p, width))
    )
    return Frame(
        width,
        tuple(
            0 if r is not None or p < width or p % width == 0 else math.inf
            for p, r in enumerate(by_position)
        ),
        tuple(r is not None for r in by_position),
        tuple(r is band_b or r is inner for r in by_position),
        tuple(r is inner or r is band_a for r in by_position),
        candidate,
        tuple(order),
    )


def regions_oracle(shape: Partition) -> dict:
    # per content: scan the corner contents, and count the outer corners below
    inner, outer = shape.corners() if shape else ((), ())
    inner_contents = [content(u) for u in inner]
    outer_contents = [content(u) for u in outer]
    regions = {}
    for c in shape.contents:
        if c in outer_contents:
            regions[c] = Region.OUTER_DIAG
        elif c in inner_contents:
            regions[c] = Region.INNER_DIAG
        else:
            below = sum(1 for o in outer_contents if o < c)
            if below == 0:
                regions[c] = Region.BAND_A
            elif below == len(outer_contents):
                regions[c] = Region.BAND_B
            else:
                # between o_below and o_{below+1}; i_below separates B from A
                regions[c] = Region.BAND_B if c < inner_contents[below - 1] else Region.BAND_A
    return regions


class TestPartition:
    def test_conjugate_examples(self):
        assert Partition((4, 3, 1)).conjugate() == Partition((3, 2, 2, 1))
        assert Partition((1,)).conjugate() == Partition((1,))
        assert Partition(()).conjugate() == Partition(())

    def test_conjugate_involution_small(self):
        for shape in all_partitions(12):
            assert shape.conjugate().conjugate() == shape

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize("part", [2.5, 2.0, "2", None])
    def test_rejects_parts_that_are_not_integers(self, part):
        # not truncated or parsed, as int() would
        with pytest.raises(ValueError, match=f"^part {re.escape(repr(part))} is not an integer$"):
            Partition([part, 1])

    def test_accepts_integer_types(self):
        assert Partition(iter([3, IntLike(1)])).parts == (3, 1)

    @pytest.mark.parametrize("parts", [[True], [3, False], (2, True)])
    def test_rejects_booleans(self, parts):
        # a bool is an int to `operator.index`, but no part of a shape
        with pytest.raises(ValueError, match=r"^part (True|False) is not an integer$"):
            Partition(parts)

    def test_membership(self):
        shape = Partition((4, 3, 1))
        assert (1, 4) in shape
        assert (2, 4) not in shape
        assert (0, 1) not in shape

    def test_contents_are_the_diagonals_of_the_cells(self):
        assert Partition((4, 3, 1)).contents == range(-2, 4)
        assert list(Partition(()).contents) == []
        for shape in all_partitions(8):
            assert set(shape.contents) == {content(u) for u in shape.cells()}

    def test_text_roundtrip(self):
        assert Partition.from_string("4,3,1").parts == (4, 3, 1)
        assert Partition.from_string("") == Partition(())
        assert str(Partition((4, 3, 1))) == "4,3,1"

    def test_messages_name_the_empty_shape_as_it_is_typed(self):
        # str is the text `from_string` reads back; an f-string names the shape in a message
        assert str(Partition(())) == ""
        assert f"{Partition(())}" == '""'
        assert f"{Partition((4, 3, 1))}" == "4,3,1"


class TestHooks:
    def test_paper_value(self):
        assert Partition((4, 3, 1)).hook_length((1, 2)) == 4

    def test_outer_corners_have_hook_one(self):
        shape = Partition((5, 2, 1, 1))
        for u in shape.corners()[1]:
            assert shape.hook_length(u) == 1

    def test_hook_multiset(self):
        shape = Partition((4, 3, 1))
        computed = sorted(shape.hook_length(u) for u in shape.cells())
        oracle = sorted(hook_cells_oracle(shape, u) for u in shape.cells())
        assert computed == oracle == sorted([6, 4, 3, 1, 4, 2, 1, 1])

    def test_hook_formula_matches_direct_count(self):
        for shape in all_partitions(10):
            for u in shape.cells():
                assert shape.hook_length(u) == hook_cells_oracle(shape, u)

    def test_outside_cell_rejected(self):
        with pytest.raises(ValueError):
            Partition((2, 1)).hook_length((1, 3))


class TestCorners:
    def test_large_example(self):
        shape = Partition((10, 10, 10, 7, 6, 3, 3, 3))
        inner, outer = shape.corners()
        assert [content(u) for u in outer] == [-5, 1, 3, 7]
        assert [content(u) for u in inner] == [-2, 2, 4]

    def test_single_row(self):
        inner, outer = Partition((4,)).corners()
        assert outer == ((1, 4),)
        assert inner == ()

    def test_derived_example(self):
        # oracle: direct east/south membership per cell
        shape = Partition((4, 3, 1))
        outer = [
            u for u in shape.cells() if east(u) not in shape and south(u) not in shape
        ]
        inner = [
            u
            for u in shape.cells()
            if east(u) in shape and south(u) in shape and east(south(u)) not in shape
        ]
        got_inner, got_outer = shape.corners()
        assert sorted(got_outer) == sorted(outer)
        assert sorted(got_inner) == sorted(inner)
        assert sorted(content(u) for u in got_outer) == [-2, 1, 3]
        assert sorted(content(u) for u in got_inner) == [-1, 2]

    def test_interleaving(self):
        for shape in all_partitions(10):
            inner, outer = shape.corners()
            merged = []
            for k in range(len(inner)):
                merged.extend([content(outer[k]), content(inner[k])])
            merged.append(content(outer[-1]))
            assert merged == sorted(merged)
            assert len(outer) == len(inner) + 1

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            Partition(()).corners()

    def test_matches_cell_scan_oracle(self):
        for shape in all_partitions(10):
            assert shape.corners() == corner_cells_oracle(shape)

    def test_remove_corner_against_the_corner_list(self):
        for shape in all_partitions(8):
            outer = shape.corners()[1]
            for x in [(i, j) for i in range(5 + shape.length) for j in range(5 + shape.parts[0])]:
                if x in outer:
                    assert shape.remove_corner(x).size == shape.size - 1
                else:
                    message = f"^{re.escape(format_cell(x))} is not an outer corner of {shape}$"
                    with pytest.raises(ValueError, match=message):
                        shape.remove_corner(x)

    def test_remove_corner_returns_one_object_per_corner(self):
        shape = Partition((3, 2, 2))
        for x in shape.corners()[1]:
            assert shape.remove_corner(x) is shape.remove_corner(x)
        assert shape.remove_corner((1, 3)) is not shape.remove_corner((3, 2))

    @pytest.mark.parametrize(
        "parts, x, message",
        [
            ((3, 3, 3), (2, 3), "(2,3) is not an outer corner of 3,3,3"),
            ((3, 3, 2), (3, 3), "(3,3) is not an outer corner of 3,3,2"),
            ((2, 1), (0, 2), "(0,2) is not an outer corner of 2,1"),
            ((), (1, 1), "(1,1) is not an outer corner of the empty diagram"),
        ],
    )
    def test_remove_corner_names_the_cell_and_the_shape(self, parts, x, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Partition(parts).remove_corner(x)


class TestRegions:
    def test_band_a_in_large_example(self):
        shape = Partition((10, 10, 10, 7, 6, 3, 3, 3))
        assert shape.region((8, 1)) is Region.BAND_A

    def test_inner_diag_by_definition(self):
        for shape in all_partitions(9):
            inner, _ = shape.corners()
            for x in inner:
                for u in shape.cells():
                    if content(u) == content(x):
                        assert shape.region(u) is Region.INNER_DIAG

    def test_square_bands(self):
        shape = Partition((3, 3, 3))
        for u in shape.cells():
            expected = (
                Region.OUTER_DIAG
                if content(u) == 0
                else Region.BAND_B
                if content(u) > 0
                else Region.BAND_A
            )
            assert shape.region(u) is expected

    def test_matches_the_per_content_oracle(self):
        for shape in [Partition(()), *all_partitions(15), SQUARE, STAIRCASE]:
            regions = shape.regions_by_content
            assert list(regions.items()) == list(regions_oracle(shape).items()), shape

    def test_regions_partition_the_cells(self):
        for shape in all_partitions(12):
            for u in shape.cells():
                shape.region(u)  # total on the diagram, raises otherwise


class TestFrame:
    def test_matches_the_per_position_oracle(self):
        shapes = [Partition(()), *all_partitions(15), SQUARE, STAIRCASE]
        shapes += [Partition(parts) for parts, _ in LARGE_SHAPES]
        for shape in shapes:
            assert shape.frame == frame_oracle(shape), shape


class TestOrders:
    def test_revlex_ranks(self):
        shape = Partition((4, 3, 1))
        ranked = sorted(shape.cells(), key=revlex_key)
        assert ranked == [(1, 4), (2, 3), (1, 3), (2, 2), (1, 2), (3, 1), (2, 1), (1, 1)]

    def test_revlex_cells_are_the_sorted_cells(self):
        for shape in all_partitions(10):
            assert shape.revlex_cells == tuple(sorted(shape.cells(), key=revlex_key))
        assert Partition(()).revlex_cells == ()

    def test_content_ranks(self):
        shape = Partition((4, 3, 1))
        ranked = sorted(shape.cells(), key=content_key)
        assert ranked == [(1, 4), (1, 3), (2, 3), (1, 2), (2, 2), (1, 1), (2, 1), (3, 1)]

    def test_frame_candidate_order_is_content_order(self):
        # the one-pass factorization relies on this order; the oracle sorts
        # the candidate-kind cells by the content key
        candidate_kinds = (Region.OUTER_DIAG, Region.BAND_A)
        for shape in [Partition(())] + all_partitions(10) + [Partition((50, 1))]:
            width = shape.frame.width
            expected = sorted(
                (u for u in shape.cells() if shape.region(u) in candidate_kinds),
                key=content_key,
            )
            assert shape.frame.candidate_order == tuple(i * width + j for i, j in expected)

    def test_specific_comparisons(self):
        assert revlex_key((2, 3)) < revlex_key((1, 3))
        assert revlex_key((3, 1)) < revlex_key((2, 1))
        assert content_key((2, 3)) < content_key((1, 2))
        assert revlex_key((2, 2)) == revlex_key((2, 2))
        assert content_key((5, 1)) == content_key((5, 1))

    @given(cells, cells)
    def test_antisymmetry(self, u, v):
        for key in (revlex_key, content_key):
            assert (key(u) < key(v)) == (key(v) > key(u))
            assert (key(u) == key(v)) == (u == v)

    @given(cells, cells, cells)
    def test_transitivity(self, u, v, w):
        for key in (revlex_key, content_key):
            if key(u) <= key(v) <= key(w):
                assert key(u) <= key(w)

    @given(cells, cells)
    def test_totality(self, u, v):
        for key in (revlex_key, content_key):
            assert (key(u) < key(v)) + (key(u) == key(v)) + (key(u) > key(v)) == 1


class TestRimHooks:
    def test_all_eight_of_the_running_shape(self):
        shape = Partition((4, 3, 1))
        hooks = shape.rim_hooks()
        assert [h.anchor for h in hooks] == [
            (1, 4), (2, 3), (1, 3), (2, 2), (1, 2), (3, 1), (2, 1), (1, 1),
        ]
        assert hooks[-1].cells == ((3, 1), (2, 1), (2, 2), (2, 3), (1, 3), (1, 4))

    def test_one_hook_per_anchor(self):
        shape = Partition((4, 3, 1))
        hooks = shape.rim_hooks()
        for u, hook in zip(shape.revlex_cells, hooks):
            assert shape.rim_hook(u) is shape.rim_hook(u) is hook
        assert shape.rim_hooks() == hooks
        assert all(map(operator.is_, shape.rim_hooks(), hooks))
        # another partition of the same parts builds its own
        assert Partition((4, 3, 1)).rim_hook((1, 1)) is not shape.rim_hook((1, 1))

    def test_a_list_anchor_gives_the_shared_hook(self):
        shape = Partition((2, 1))
        hook = shape.rim_hook([1, 1])
        assert hook.anchor == (1, 1) and hook.cells == ((2, 1), (1, 1), (1, 2))
        assert shape.rim_hook((1, 1)) is hook is shape.rim_hook([1, 1])

    @pytest.mark.parametrize("u", [(3, 1), (0, 1), (1, 0), (2, 2), (-1, 2)])
    def test_a_cell_outside_is_refused_and_not_kept(self, u):
        shape = Partition((2, 1))
        shape.rim_hook((1, 2))
        message = f"^{re.escape(f'cell {format_cell(u)} lies outside the partition 2,1')}$"
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                shape.rim_hook(u)
        assert list(shape._hooks) == [(1, 2)]

    def test_single_cell_hook(self):
        hook = Partition((4, 3, 1)).rim_hook((1, 4))
        assert hook.cells == ((1, 4),)

    def test_derived_walk(self):
        hook = Partition((4, 3, 1)).rim_hook((1, 3))
        assert hook.cells == ((2, 3), (1, 3), (1, 4))

    def test_head_tail_formulas(self):
        for shape in all_partitions(12):
            for u in shape.cells():
                hook = shape.rim_hook(u)
                i, j = u
                assert hook.head == (shape.col_length(j), j)
                assert hook.tail == (i, shape.parts[i - 1])

    def test_cell_count_is_hook_length(self):
        for shape in all_partitions(12):
            for u in shape.cells():
                assert len(shape.rim_hook(u)) == shape.hook_length(u)

    def test_anchor_bijection(self):
        for shape in all_partitions(12):
            anchors = [h.anchor for h in shape.rim_hooks()]
            assert sorted(anchors) == sorted(shape.cells())

    def test_rim_conditions(self):
        for shape in all_partitions(12):
            for hook in shape.rim_hooks():
                assert south(hook.head) not in shape
                assert east(hook.tail) not in shape
                for u in hook.cells:
                    assert east(south(u)) not in shape
                # one cell per content from the head's to the tail's, each
                # step north or east
                assert [content(u) for u in hook.cells] == list(
                    range(content(hook.head), content(hook.tail) + 1)
                )
                for (i, j), step in zip(hook.cells, hook.cells[1:]):
                    assert step in ((i - 1, j), (i, j + 1))

    def test_region_continuation_on_hooks(self):
        for shape in all_partitions(12):
            for hook in shape.rim_hooks():
                for u in hook.cells:
                    reg = shape.region(u)
                    if u != hook.tail and reg in (Region.INNER_DIAG, Region.BAND_A):
                        assert east(u) in hook
                    if u != hook.head and reg in (Region.INNER_DIAG, Region.BAND_B):
                        assert south(u) in hook

    def test_order_matches_head_tail_criterion(self):
        shape = Partition((4, 3, 1))
        hooks = shape.rim_hooks()
        for f in hooks:
            for h in hooks:
                expected = rim_hook_key(f) <= rim_hook_key(h)
                alt = content(f.head) > content(h.head) or (
                    content(f.head) == content(h.head)
                    and content(f.tail) <= content(h.tail)
                )
                assert expected == alt

    def test_order_on_two_by_two(self):
        shape = Partition((2, 2))
        ordered = [h.anchor for h in shape.rim_hooks()]
        assert ordered == [(2, 2), (1, 2), (2, 1), (1, 1)]


class TestCellText:
    def test_roundtrip(self):
        assert parse_cell(format_cell((3, 11))) == (3, 11)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_cell("3,11")
