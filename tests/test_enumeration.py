import pytest

from rimhooks import enumeration
from rimhooks import (
    BudgetExceededError,
    Partition,
    enumerate_rpps,
    enumerate_sw_paths,
    enumerate_tableaux,
    hook_product,
    is_compatible,
    insertion_path,
)


class TestRpps:
    def test_single_cell(self):
        got = [pi.rows for pi in enumerate_rpps(Partition((1,)), 3)]
        assert got == [((0,),), ((1,),), ((2,),), ((3,),)]

    def test_two_by_two_count(self):
        got = list(enumerate_rpps(Partition((2, 2)), 2))
        assert len(got) == 5
        sizes = sorted(pi.size for pi in got)
        assert sizes == [0, 1, 2, 2, 2]

    def test_count_matches_series(self):
        shape = Partition((4, 3, 1))
        count = sum(1 for _ in enumerate_rpps(shape, 10))
        assert count == sum(hook_product(shape, 10).coefficients)

    def test_no_duplicates_and_deterministic(self):
        shape = Partition((3, 2))
        first = [pi.rows for pi in enumerate_rpps(shape, 5)]
        second = [pi.rows for pi in enumerate_rpps(shape, 5)]
        assert first == second
        assert len(set(first)) == len(first)

    def test_row_major_lexicographic_order(self):
        flattened = [
            tuple(v for row in pi.rows for v in row)
            for pi in enumerate_rpps(Partition((2, 1)), 4)
        ]
        assert flattened == sorted(flattened)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_rpps(Partition((3, 3, 3)), 50, ceiling=10))


class TestTableaux:
    def test_single_cell(self):
        got = [t.rows for t in enumerate_tableaux(Partition((1,)), 2)]
        assert got == [((0,),), ((1,),), ((2,),)]

    def test_cardinality_matches_rpps(self):
        shape = Partition((2, 2))
        rpps = list(enumerate_rpps(shape, 8))
        tabs = list(enumerate_tableaux(shape, 8))
        assert len(rpps) == len(tabs)

    def test_weighted_size_histogram_matches_size_histogram(self):
        shape = Partition((3, 2))
        by_size = {}
        for pi in enumerate_rpps(shape, 7):
            by_size[pi.size] = by_size.get(pi.size, 0) + 1
        by_weight = {}
        for t in enumerate_tableaux(shape, 7):
            by_weight[t.weighted_size] = by_weight.get(t.weighted_size, 0) + 1
        assert by_size == by_weight

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_tableaux(Partition((3, 3, 3)), 50, ceiling=10))


class TestSwPaths:
    def test_single_cell(self):
        got = list(enumerate_sw_paths(Partition((2, 2)), (1, 2), 1))
        assert [p.cells for p in got] == [((1, 2),)]

    def test_four_paths_in_the_square(self):
        got = list(enumerate_sw_paths(Partition((3, 3, 3)), (1, 3), 3))
        assert len(got) == 4

    def test_exactly_one_certifies_the_golden_insertion(self, staircase_example):
        shape = staircase_example.shape
        hook = shape.rim_hook((1, 3))
        valid = []
        for path in enumerate_sw_paths(shape, hook.tail, len(hook)):
            if not is_compatible(path, staircase_example):
                continue
            try:
                staircase_example.with_path(path, +1)
            except ValueError:
                continue
            valid.append(path)
        assert len(valid) == 1
        assert valid[0].cells == insertion_path(hook, staircase_example).cells

    def test_paths_stay_inside(self):
        shape = Partition((3, 1))
        for path in enumerate_sw_paths(shape, (1, 3), 3):
            assert all(u in shape for u in path)

    def test_tail_outside_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_sw_paths(Partition((2,)), (2, 1), 1))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_sw_paths(Partition((9, 9)), (1, 9), 9, ceiling=10))


class TestExactLength:
    @pytest.fixture
    def one_grid_dropped(self, monkeypatch):
        grids = enumeration._grids

        def drop_the_first(*args, **kwargs):
            stream = grids(*args, **kwargs)
            next(stream)
            return stream

        monkeypatch.setattr(enumeration, "_grids", drop_the_first)

    @pytest.mark.parametrize(
        "enumerate_, what", [(enumerate_rpps, "fillings"), (enumerate_tableaux, "hook tableaux")]
    )
    def test_a_short_stream_raises(self, one_grid_dropped, enumerate_, what):
        stream = enumerate_(Partition((3, 2)), 5)
        expected = f"{what} of 3,2 up to 5 gave 43 items, but the hook-product count is 44"
        with pytest.raises(RuntimeError, match=expected):
            list(stream)

    def test_the_budget_is_checked_when_the_stream_is_opened(self):
        with pytest.raises(BudgetExceededError, match="fillings of 3,3,3 would yield"):
            enumerate_rpps(Partition((3, 3, 3)), 50, ceiling=10)
        with pytest.raises(BudgetExceededError, match="paths of 9 cells"):
            enumerate_sw_paths(Partition((9, 9)), (1, 9), 9, ceiling=10)
