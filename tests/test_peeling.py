import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rimhooks import (
    Partition,
    Rpp,
    Tableau,
    build,
    corner_toggle,
    factorize,
    peel_tableau,
)
from rimhooks.enumeration import enumerate_rpps
from conftest import all_partitions, rpps
from oracles import corner_is_tight


class TestCornerToggle:
    def test_golden_first_step(self, steep_example):
        toggled = corner_toggle(steep_example, (3, 3))
        assert toggled.shape == Partition((3, 3, 2))
        assert toggled.rows == ((0, 1, 4), (2, 3, 4), (4, 4))

    def test_zero_goes_to_zero(self):
        shape = Partition((4, 2))
        toggled = corner_toggle(Rpp.zero(shape), (1, 4))
        assert toggled.shape == Partition((3, 2)) and toggled.is_zero()

    def test_single_cell_shape(self):
        toggled = corner_toggle(Rpp(Partition((1,)), ((5,),)), (1, 1))
        assert toggled.shape == Partition(()) and toggled.is_zero()

    def test_shares_the_reduced_shape(self, steep_example):
        for x in steep_example.shape.corners()[1]:
            assert corner_toggle(steep_example, x).shape is steep_example.shape.remove_corner(x)

    def test_rejects_non_corner(self, steep_example):
        with pytest.raises(ValueError, match="outer corner"):
            corner_toggle(steep_example, (1, 1))

    def test_preserves_validity_and_off_diagonal_entries(self):
        for shape in all_partitions(7):
            for pi in enumerate_rpps(shape, 5):
                for x in shape.corners()[1]:
                    toggled = corner_toggle(pi, x)  # constructor validates
                    for u, v in toggled.entries():
                        if u[1] - u[0] != x[1] - x[0]:
                            assert v == pi.value(u)


class TestPeel:
    def test_golden_chain(self, steep_example):
        assert peel_tableau(steep_example).rows == ((1, 1, 2), (0, 1, 0), (3, 0, 0))

    def test_zero(self):
        shape = Partition((3, 2, 1))
        assert peel_tableau(Rpp.zero(shape)).is_zero()

    def test_matches_factorization(self):
        for shape in all_partitions(6):
            for pi in enumerate_rpps(shape, 4):
                assert peel_tableau(pi) == factorize(pi).to_tableau()

    def test_corner_independence_broad(self):
        for shape in all_partitions(6):
            _, outer = shape.corners()
            orders = [[x, *(u for u in shape.revlex_cells if u != x)] for x in outer]
            for pi in enumerate_rpps(shape, 4):
                reference = peel_tableau(pi)
                for order in orders:
                    assert peel_tableau(pi, order) == reference

    @settings(max_examples=200, deadline=None)
    @given(rpps(), st.data())
    def test_any_order_gives_the_same_tableau(self, pi, data):
        parts, order = list(pi.shape.parts), []
        while parts:
            x = data.draw(st.sampled_from(Partition(parts).corners()[1]))
            order.append(x)
            parts[x[0] - 1] -= 1
            if not parts[-1]:
                parts.pop()
        assert peel_tableau(pi, order) == peel_tableau(pi) == factorize(pi).to_tableau()

    def test_inverts_build(self):
        shape = Partition((3, 2))
        from rimhooks.enumeration import enumerate_tableaux

        for tab in enumerate_tableaux(shape, 6):
            assert peel_tableau(build(tab)) == tab

    def test_inverts_build_on_a_large_square(self):
        # 1600 corners: far past the depth at which a recursive peel fails
        rng = random.Random(40)
        counts = [[0] * 40 for _ in range(40)]
        for _ in range(300):
            counts[rng.randrange(40)][rng.randrange(40)] += 1
        tab = Tableau(Partition((40,) * 40), counts)
        assert peel_tableau(build(tab)) == tab

    @pytest.mark.parametrize(
        "order, message",
        [
            # ends its row, but the row below is as long
            ([(2, 3)], "(2,3) is not an outer corner of 3,3,3"),
            ([(3, 3), (3, 3)], "(3,3) is not an outer corner of 3,3,2"),
            ([(3, 3)], "order ends before (3,2), leaving 3,3,2 unpeeled"),
            (
                [*Partition((3, 3, 3)).revlex_cells, (1, 1)],
                "(1,1) is not an outer corner of the empty diagram",
            ),
        ],
        ids=["non-corner", "repeated", "stops-early", "extra-cell"],
    )
    def test_rejects_an_order_that_is_no_peeling(self, steep_example, order, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            peel_tableau(steep_example, order)


class TestCornerTight:
    def test_golden(self, steep_example):
        assert corner_is_tight(steep_example, (3, 3))

    def test_zero(self):
        pi = Rpp.zero(Partition((2, 2)))
        assert corner_is_tight(pi, (2, 2))

    def test_derived_negative(self):
        pi = Rpp(Partition((2, 2)), ((0, 1), (1, 2)))
        assert not corner_is_tight(pi, (2, 2))

    def test_agrees_with_peel_count(self):
        for shape in all_partitions(6):
            _, outer = shape.corners()
            for pi in enumerate_rpps(shape, 4):
                tab = peel_tableau(pi)
                for x in outer:
                    assert corner_is_tight(pi, x) == (tab.value(x) == 0)
