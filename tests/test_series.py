from rimhooks import (
    MultiTraceSeries,
    Partition,
    gansner_product,
    hg,
    hook_monomial,
    hook_product,
    rpp_series,
    trace_series,
)
from rimhooks.enumeration import enumerate_rpps
from conftest import ACCEPTANCE_SHAPES


class TestHookProduct:
    def test_single_cell(self):
        assert hook_product(Partition((1,)), 5).coefficients == (1, 1, 1, 1, 1, 1)

    def test_two_by_two_against_enumeration(self):
        # oracle first: count the fillings of (2,2) by size
        counts = [0] * 5
        for pi in enumerate_rpps(Partition((2, 2)), 4):
            counts[pi.size] += 1
        assert tuple(counts) == (1, 1, 3, 4, 7)
        assert hook_product(Partition((2, 2)), 4).coefficients == (1, 1, 3, 4, 7)

    def test_running_shape_feeds_its_hooks(self):
        shape = Partition((4, 3, 1))
        hooks = sorted(shape.hook_length(u) for u in shape.cells())
        assert hooks == sorted([6, 4, 4, 3, 2, 1, 1, 1])
        assert hook_product(shape, 10) == rpp_series(shape, 10)

    def test_empty_shape(self):
        assert hook_product(Partition(()), 3).coefficients == (1, 0, 0, 0)
        assert rpp_series(Partition(()), 3).coefficients == (1, 0, 0, 0)


class TestRppSeries:
    def test_single_cell(self):
        assert rpp_series(Partition((1,)), 5).coefficients == (1, 1, 1, 1, 1, 1)

    def test_two_by_two_prefix(self):
        assert rpp_series(Partition((2, 2)), 2).coefficients == (1, 1, 3)

    def test_size_identity_all_shapes(self):
        for parts in ACCEPTANCE_SHAPES:
            shape = Partition(parts)
            assert rpp_series(shape, 10) == hook_product(shape, 10)


class TestTraceSeries:
    def test_single_cell_both_sides(self):
        shape = Partition((1,))
        lhs = trace_series(shape, 6)
        rhs = gansner_product(shape, 6)
        assert lhs == rhs
        assert lhs.terms == {(n,): 1 for n in range(7)}

    def test_two_by_two(self):
        shape = Partition((2, 2))
        assert trace_series(shape, 3) == gansner_product(shape, 3)

    def test_empty_shape_has_no_variables(self):
        for series in (trace_series(Partition(()), 3), gansner_product(Partition(()), 3)):
            assert (series.var_lo, series.var_hi) == (1, 0)
            assert series.to_json_obj() == {"variables": [], "degree": 3, "terms": [[[], 1]]}

    def test_running_shape(self):
        shape = Partition((4, 3, 1))
        assert trace_series(shape, 6) == gansner_product(shape, 6)

    def test_specialization_reproduces_hook_product(self):
        for parts in ACCEPTANCE_SHAPES:
            shape = Partition(parts)
            assert gansner_product(shape, 8).specialize() == hook_product(shape, 8)

    def test_hook_monomial_is_the_content_interval(self):
        shape = Partition((4, 3, 1))
        mono = hook_monomial(shape, (1, 2))
        variables = list(range(1 - shape.length, shape.parts[0]))
        covered = [k for k, e in zip(variables, mono) if e]
        hook = shape.rim_hook((1, 2))
        assert covered == sorted(j - i for i, j in hook.cells)

    def test_hg_multiset_carries_the_traces(self):
        # per filling: the trace monomial equals the sum of the recorded
        # hooks' content-interval monomials
        shape = Partition((3, 2))
        for pi in enumerate_rpps(shape, 6):
            t = hg(pi)
            width = shape.parts[0] - 1 - (1 - shape.length) + 1
            acc = [0] * width
            for u, count in t.entries():
                acc = [a + count * b for a, b in zip(acc, hook_monomial(shape, u))]
            traces = [pi.trace(k) for k in range(1 - shape.length, shape.parts[0])]
            assert acc == traces


class TestMultiSeriesBasics:
    def test_equality_ignores_zero_terms(self):
        a = MultiTraceSeries(0, 1, 2, {(0, 0): 1, (1, 0): 0})
        b = MultiTraceSeries(0, 1, 2, {(0, 0): 1})
        assert a == b

    def test_range_mismatch_not_equal(self):
        a = MultiTraceSeries(0, 1, 2, {(0, 0): 1})
        b = MultiTraceSeries(0, 2, 2, {(0, 0, 0): 1})
        assert a != b

    def test_times_geometric_truncates_by_total_degree(self):
        s = MultiTraceSeries.one(0, 1, 3).times_geometric((1, 1))
        assert s.terms == {(0, 0): 1, (1, 1): 1}
