"""Round trips: parse after print is the identity for every reader.

Series are printed only; their forms are checked term by term.
"""

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
        assert Rpp.from_json_obj(json.loads(json.dumps(pi.to_json_obj()))) == pi

    @given(tableaux())
    def test_tableau_text(self, t):
        assert Tableau.from_text(t.to_text()) == t

    @given(tableaux())
    def test_tableau_json(self, t):
        assert Tableau.from_json_obj(json.loads(json.dumps(t.to_json_obj()))) == t

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
            cls.from_json_obj(obj)

    def test_json_is_plain_data(self):
        pi = Rpp(Partition((2, 1)), ((0, 1), (2,)))
        assert pi.to_json_obj() == {"shape": [2, 1], "rows": [[0, 1], [2]]}



class TestFactorizationText:
    def test_roundtrip_over_enumeration(self):
        # one anchor per line, each in the cell form parse_cell reads
        shape = Partition((3, 2))
        for pi in enumerate_rpps(shape, 5):
            fact = factorize(pi)
            anchors = tuple(map(parse_cell, fact.to_text().splitlines()))
            assert Factorization(shape, anchors) == fact


class TestSeriesForms:
    @given(st.lists(st.integers(0, 10**12), min_size=1, max_size=8))
    def test_univariate_text(self, coeffs):
        terms = TruncatedSeries(tuple(coeffs)).to_text().split(" + ")
        assert terms == [str(coeffs[0])] + [
            f"{c}*q" if n == 1 else f"{c}*q^{n}" for n, c in enumerate(coeffs[1:], start=1)
        ]

    @given(st.lists(st.integers(0, 10**12), min_size=1, max_size=8))
    def test_univariate_json(self, coeffs):
        series = TruncatedSeries(tuple(coeffs))
        obj = json.loads(json.dumps(series.to_json_obj()))
        assert obj == {"truncation": len(coeffs) - 1, "coefficients": coeffs}
        assert TruncatedSeries(tuple(obj["coefficients"])) == series

    def test_multivariate_text(self):
        series = MultiTraceSeries(-2, 1, 4, {(0, 0, 0, 0): 1, (1, 0, 2, 1): 7, (0, 1, 0, 0): 0})
        assert series.to_text() == "1 : 1\n7 : q_{-2} q_{0}^2 q_{1}"

    def test_multivariate_json(self):
        series = MultiTraceSeries(-1, 1, 3, {(1, 1, 1): 5, (0, 0, 0): 2, (0, 1, 0): 0})
        obj = json.loads(json.dumps(series.to_json_obj()))
        terms = [[[0, 0, 0], 2], [[1, 1, 1], 5]]
        assert obj == {"variables": [-1, 0, 1], "degree": 3, "terms": terms}
        parsed = {tuple(m): c for m, c in obj["terms"]}
        assert MultiTraceSeries(-1, 1, obj["degree"], parsed) == series
