import math
import re

import pytest

from hypothesis import given, settings, strategies as st

from rimhooks import Partition, Region, Rpp, Tableau, content
from rimhooks.enumeration import enumerate_rpps
from conftest import IntLike, all_partitions, partitions, rpps
from oracles import value_ext


class TestValidate:
    def test_running_example_is_valid(self):
        pi = Rpp(Partition((4, 3, 1)), [[0, 1, 2, 3], [1, 2, 2], [1]])
        assert pi.size == 12

    def test_zero_grid(self):
        assert Rpp(Partition((3, 2)), [[0, 0, 0], [0, 0]]).is_zero()

    def test_row_violation_reports_cell(self):
        with pytest.raises(ValueError, match=r"\(1,2\)"):
            Rpp(Partition((2,)), [[1, 0]])

    def test_column_violation_reports_cell(self):
        with pytest.raises(ValueError, match=r"\(2,1\)"):
            Rpp(Partition((1, 1)), [[1], [0]])

    def test_ragged_grid(self):
        with pytest.raises(ValueError, match="row 1"):
            Rpp(Partition((2, 1)), [[0], [0]])

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            Rpp(Partition((2,)), [[-1, 0]])

    @pytest.mark.parametrize("cls", [Rpp, Tableau])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.5, 1.9]], "entry 0.5 at (1,1) is not an integer"),
            ([[0, 1.0]], "entry 1.0 at (1,2) is not an integer"),
            ([["3", True]], "entry '3' at (1,1) is not an integer"),
            ([[0, 1], [None]], "entry None at (2,1) is not an integer"),
            ([[True, 1]], "entry True at (1,1) is not an integer"),
            ([[0, 1], [False]], "entry False at (2,1) is not an integer"),
        ],
    )
    def test_entries_that_are_not_integers(self, cls, rows, message):
        # not truncated or parsed, as int() would
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(Partition(map(len, rows)), rows)

    def test_integer_entries_are_stored_as_ints(self):
        t = Tableau(Partition((2,)), ([3, IntLike(1)],))
        assert t.rows == ((3, 1),) and type(t.rows[0][1]) is int


class TestExtendedValues:
    def test_conventions(self, running_example):
        assert value_ext(running_example, 0, 4) == 0
        assert value_ext(running_example, 2, 0) == 0
        assert value_ext(running_example, 2, 4) == math.inf
        assert value_ext(running_example, 2, 2) == 2

    def test_infinite_compares_greater(self, running_example):
        assert value_ext(running_example, 4, 1) > 10**100


class TestTrace:
    def test_steep_example(self, steep_example):
        assert steep_example.trace(0) == 8
        assert steep_example.trace(-1) == 6
        assert steep_example.trace(1) == 5
        assert steep_example.trace(2) == 4

    def test_zero(self):
        pi = Rpp.zero(Partition((3, 1)))
        assert all(pi.trace(k) == 0 for k in range(-5, 5))

    def test_out_of_range_is_zero(self, steep_example):
        assert steep_example.trace(99) == 0
        assert steep_example.trace(-99) == 0

    def test_traces_sum_to_size(self):
        for shape in all_partitions(7):
            for pi in enumerate_rpps(shape, 5):
                assert sum(pi.trace(k) for k in shape.contents) == pi.size
                assert sum(pi.traces()) == pi.size

    def test_traces_steep_example(self, steep_example):
        # diagonals -2 .. 2
        assert steep_example.traces() == [4, 6, 8, 5, 4]

    def test_traces_of_empty_partition(self):
        assert Rpp(Partition(())).traces() == []

    @given(rpps())
    @settings(max_examples=200, deadline=None)
    def test_traces_match_trace(self, pi):
        assert pi.traces() == [pi.trace(k) for k in pi.shape.contents]


class TestCandidates:
    def test_running_example(self, running_example):
        assert running_example.candidates() == frozenset(
            {(1, 2), (1, 4), (2, 2), (3, 1)}
        )

    def test_zero_has_none(self):
        assert Rpp.zero(Partition((4, 3, 1))).candidates() == frozenset()

    def test_derived_example(self, staircase_example):
        # direct check of both membership rules per cell
        assert staircase_example.candidates() == frozenset({(3, 1)})

    def test_min_candidate_steps(self, running_example):
        assert running_example.min_candidate() == (1, 4)
        after = Rpp(Partition((4, 3, 1)), ((0, 1, 2, 2), (1, 2, 2), (1,)))
        assert after.min_candidate() == (1, 2)

    def test_zero_min_candidate_is_none(self):
        assert Rpp.zero(Partition((2, 2))).min_candidate() is None

    def test_nonzero_always_has_candidates(self):
        for shape in all_partitions(9):
            for pi in enumerate_rpps(shape, 8):
                if not pi.is_zero():
                    assert pi.candidates()

    def test_candidates_live_in_bands_a_or_outer(self):
        for shape in all_partitions(8):
            for pi in enumerate_rpps(shape, 6):
                for u in pi.candidates():
                    assert shape.region(u) in (Region.OUTER_DIAG, Region.BAND_A)

    def test_row_gap_implies_later_candidate(self):
        # if a flat stretch breaks inside the stated content window, some
        # candidate sits strictly further out
        for shape in all_partitions(8):
            inner, outer = shape.corners()
            inner_contents = [content(u) for u in inner]
            outer_contents = [content(u) for u in outer]
            for pi in enumerate_rpps(shape, 5):
                cand_contents = [content(w) for w in pi.candidates()]
                for u in shape.cells():
                    if shape.region(u) not in (Region.INNER_DIAG, Region.BAND_A):
                        continue
                    for v in shape.cells():
                        if v[0] != u[0] or content(v) <= content(u):
                            continue
                        if shape.region(v) not in (Region.BAND_A, Region.OUTER_DIAG):
                            continue
                        window = any(
                            ik <= content(u) and content(v) <= ok
                            for ik, ok in zip(inner_contents, outer_contents[1:])
                        ) or content(v) <= outer_contents[0]
                        if window and pi.value(u) < pi.value(v):
                            assert any(c > content(u) for c in cand_contents)


class TestEquality:
    def test_entrywise(self):
        shape = Partition((2, 1))
        assert Rpp(shape, ((0, 1), (2,))) == Rpp(shape, ((0, 1), (2,)))
        assert Rpp(shape, ((0, 1), (2,))) != Rpp(shape, ((0, 1), (1,)))

    def test_hashable(self):
        shape = Partition((2,))
        assert len({Rpp(shape, ((0, 1),)), Rpp(shape, ((0, 1),))}) == 1


@st.composite
def tableaux(draw):
    shape = draw(partitions)
    return Tableau(shape, [[draw(st.integers(0, 3)) for _ in range(p)] for p in shape.parts])


class TestWeightedSize:
    @settings(max_examples=300, deadline=None)
    @given(tableaux())
    def test_equals_the_sum_of_hook_lengths(self, t):
        assert t.weighted_size == sum(v * t.shape.hook_length(u) for u, v in t.entries())

    def test_counts_every_cell_of_each_hook_once(self):
        for shape in all_partitions(8):
            ones = Tableau(shape, [[1] * p for p in shape.parts])
            assert ones.weighted_size == sum(len(h) for h in shape.rim_hooks())
