"""Round trips: parse after print is the identity for every serializer."""

import json

import pytest
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

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"shape": [True, True], "rows": [[0], [1]]}, "JSON key 'shape' must be a list of integers"),
            ({"shape": [2.0], "rows": [[0, 1]]}, "JSON key 'shape' must be a list of integers"),
            ({"shape": [2], "rows": [[False, True]]}, "JSON key 'rows' must be a list of lists"),
            ({"shape": [2], "rows": [[0, "1"]]}, "JSON key 'rows' must be a list of lists"),
            ({"shape": [2], "rows": [[0, 1.5]]}, "JSON key 'rows' must be a list of lists"),
            ({"rows": [[0, 1]]}, "JSON grid has no 'shape' key"),
            ([[0, 1]], "expected a JSON object with the keys 'shape' and 'rows'"),
        ],
    )
    @pytest.mark.parametrize("cls", [Rpp, Tableau])
    def test_json_rejects_non_integers(self, cls, obj, message):
        with pytest.raises(ValueError, match=message):
            cls.from_json(json.dumps(obj))

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

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"coefficients": [1.9, "2", True]}, "JSON key 'coefficients' must be a list of integers"),
            ({"coefficients": [1, True]}, "JSON key 'coefficients' must be a list of integers"),
            ({"coefficients": "12"}, "JSON key 'coefficients' must be a list of integers"),
            ({"coefficients": [1, 2], "truncation": 1.0}, "truncation does not match"),
            ({"coefficients": [1, 2], "truncation": True}, "truncation does not match"),
            ({"coefficients": [1, 2], "truncation": 2}, "truncation does not match"),
            ({"truncation": 2}, "JSON series has no 'coefficients' key"),
            ([1, 2], "expected a JSON object with the key 'coefficients'"),
        ],
    )
    def test_univariate_json_rejects(self, obj, message):
        with pytest.raises(ValueError, match=message):
            TruncatedSeries.from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"variables": [0], "degree": 2}, "JSON series has no 'terms' key"),
            ({"degree": 2, "terms": []}, "JSON series has no 'variables' key"),
            ({"variables": [0.0], "degree": 2, "terms": []}, "JSON key 'variables'"),
            ({"variables": [0], "degree": True, "terms": []}, "JSON key 'degree'"),
            ({"variables": [0], "degree": 2, "terms": [[[1], 1.9]]}, "JSON key 'terms'"),
            ({"variables": [0], "degree": 2, "terms": [[[1], "2"]]}, "JSON key 'terms'"),
            ({"variables": [0], "degree": 2, "terms": [[[True], 2]]}, "JSON key 'terms'"),
            ({"variables": [0], "degree": 2, "terms": [[[1]]]}, "JSON key 'terms'"),
            ({"variables": [0], "degree": 2, "terms": 5}, "JSON key 'terms'"),
            # the keys must agree with each other
            ({"variables": [0], "degree": 2, "terms": [[[1, 1], 1]]}, r"\[1, 1\] must hold 1 "),
            ({"variables": [0], "degree": 2, "terms": [[[7], 1]]}, "summing to at most 2"),
            ({"variables": [0, 1], "degree": 2, "terms": [[[2, -1], 1]]}, "non-negative exponents"),
            ({"variables": [0, 5], "degree": 2, "terms": []}, "ascending consecutive integers"),
            ({"variables": [1, 0], "degree": 2, "terms": []}, "ascending consecutive integers"),
            (None, "expected a JSON object with the keys 'variables', 'degree' and 'terms'"),
        ],
    )
    def test_multivariate_json_rejects(self, obj, message):
        with pytest.raises(ValueError, match=message):
            MultiTraceSeries.from_json(json.dumps(obj))

    def test_multivariate_json(self):
        series = MultiTraceSeries(-1, 1, 3, {(0, 0, 0): 2, (1, 1, 1): 5})
        assert MultiTraceSeries.from_json(series.to_json()) == series
        empty = MultiTraceSeries.one(1, 0, 0)
        assert MultiTraceSeries.from_json(empty.to_json()) == empty
