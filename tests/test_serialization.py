"""Round trips: parse after print is the identity for every serializer."""

import json

from hypothesis import given, strategies as st

from rimhooks import (
    Factorization,
    MultiTraceSeries,
    Partition,
    Rpp,
    Tableau,
    TruncatedSeries,
    factorize,
    format_cell,
    parse_cell,
)
from rimhooks.enumeration import enumerate_rpps
from conftest import partitions, rpps


@st.composite
def tableaux(draw):
    shape = draw(partitions.filter(bool))
    grid = [[draw(st.integers(0, 4)) for _ in range(p)] for p in shape.parts]
    return Tableau(shape, grid)


class TestPartitionText:
    @given(partitions)
    def test_roundtrip(self, shape):
        assert Partition.from_string(str(shape)) == shape


class TestCellText:
    @given(st.tuples(st.integers(1, 99), st.integers(1, 99)))
    def test_roundtrip(self, u):
        assert parse_cell(format_cell(u)) == u


class TestGridForms:
    @given(rpps())
    def test_rpp_text(self, pi):
        assert Rpp.from_text(pi.to_text()) == pi

    @given(rpps())
    def test_rpp_json(self, pi):
        assert Rpp.from_json(pi.to_json()) == pi

    @given(tableaux())
    def test_tableau_text(self, t):
        assert Tableau.from_text(t.to_text()) == t

    @given(tableaux())
    def test_tableau_json(self, t):
        assert Tableau.from_json(t.to_json()) == t

    def test_empty_shape_text(self):
        empty = Rpp.zero(Partition(()))
        assert Rpp.from_text(empty.to_text()) == empty

    def test_json_is_plain_data(self):
        pi = Rpp(Partition((2, 1)), ((0, 1), (2,)))
        assert json.loads(pi.to_json()) == {"shape": [2, 1], "rows": [[0, 1], [2]]}


class TestFactorizationText:
    def test_roundtrip_over_enumeration(self):
        shape = Partition((3, 2))
        for pi in enumerate_rpps(shape, 5):
            fact = factorize(pi)
            assert Factorization.from_text(fact.to_text(), shape) == fact


class TestSeriesForms:
    @given(st.lists(st.integers(0, 10**12), min_size=1, max_size=8))
    def test_univariate_text(self, coeffs):
        series = TruncatedSeries(tuple(coeffs))
        assert TruncatedSeries.from_text(series.to_text()) == series

    @given(st.lists(st.integers(0, 10**12), min_size=1, max_size=8))
    def test_univariate_json(self, coeffs):
        series = TruncatedSeries(tuple(coeffs))
        assert TruncatedSeries.from_json(series.to_json()) == series

    def test_multivariate_text(self):
        series = MultiTraceSeries(-2, 1, 4, {(0, 0, 0, 0): 1, (1, 0, 2, 1): 7})
        parsed = MultiTraceSeries.from_text(series.to_text(), -2, 1, 4)
        assert parsed == series

    def test_multivariate_json(self):
        series = MultiTraceSeries(-1, 1, 3, {(0, 0, 0): 2, (1, 1, 1): 5})
        assert MultiTraceSeries.from_json(series.to_json()) == series
