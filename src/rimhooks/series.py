"""Truncated power series over exact integers, univariate and trace-refined.

The univariate side checks that the size generating function of the fillings
of a shape equals the product of geometric series indexed by hook lengths.
The multivariate side refines by diagonal traces: one variable per diagonal,
one geometric factor per cell whose monomial covers the content interval of
the cell's hook. No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .enumeration import (
    DEFAULT_CEILING,
    _budget,
    _counts_by_size,
    _grid_budget,
    enumerate_rpps,
)
from .geometry import Partition


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer coefficients c_0 .. c_N of a series truncated past degree N."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a truncated series needs at least the constant term")

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def to_text(self) -> str:
        parts = [str(self.coefficients[0])]
        for n, c in enumerate(self.coefficients[1:], start=1):
            parts.append(f"{c}*q" if n == 1 else f"{c}*q^{n}")
        return " + ".join(parts)

    __str__ = to_text

    def to_json_obj(self) -> dict:
        return {"truncation": self.truncation, "coefficients": list(self.coefficients)}


def hook_product(shape: Partition, truncation: int) -> TruncatedSeries:
    """Product over all cells of 1 / (1 - q^{hook length}), truncated.

    Raises BudgetExceededError, before any coefficient is made, when its
    truncation + 1 coefficients number more than the enumeration ceiling.
    """
    _budget(f"coefficients of the hook product of {shape}", truncation + 1, DEFAULT_CEILING)
    return TruncatedSeries(tuple(_counts_by_size(shape, truncation)))


def rpp_series(shape: Partition, truncation: int) -> TruncatedSeries:
    """Coefficient of q^n counts the fillings of the shape with size n."""
    # opened first: the stream checks the budget before the list is allocated
    fillings = enumerate_rpps(shape, truncation)
    coeffs = [0] * (truncation + 1)
    for pi in fillings:
        coeffs[pi.size] += 1
    return TruncatedSeries(tuple(coeffs))


Monomial = tuple[int, ...]


class MultiTraceSeries:
    """A series in one variable per diagonal, truncated by total degree.

    Exponent vectors are indexed by the diagonals var_lo .. var_hi of a shape;
    only nonzero coefficients are stored. The total degree of a monomial is
    the size of any filling with those traces, which is why truncation is by
    total degree.
    """

    def __init__(self, var_lo: int, var_hi: int, degree: int, terms: dict[Monomial, int]):
        self.var_lo = var_lo
        self.var_hi = var_hi
        self.degree = degree
        self.terms = dict(terms)

    @property
    def variables(self) -> range:
        return range(self.var_lo, self.var_hi + 1)

    @classmethod
    def one(cls, var_lo: int, var_hi: int, degree: int) -> "MultiTraceSeries":
        width = max(var_hi - var_lo + 1, 0)
        return cls(var_lo, var_hi, degree, {(0,) * width: 1})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiTraceSeries):
            return NotImplemented
        if (self.var_lo, self.var_hi, self.degree) != (
            other.var_lo,
            other.var_hi,
            other.degree,
        ):
            return False
        return {m: c for m, c in self.terms.items() if c} == {
            m: c for m, c in other.terms.items() if c
        }

    def __repr__(self) -> str:
        return (
            f"MultiTraceSeries(vars {self.var_lo}..{self.var_hi}, "
            f"degree {self.degree}, {len(self._sorted_terms())} terms)"
        )

    def add_term(self, monomial: Monomial, coefficient: int) -> None:
        if sum(monomial) <= self.degree:
            self.terms[monomial] = self.terms.get(monomial, 0) + coefficient

    def times_geometric(self, monomial: Monomial) -> "MultiTraceSeries":
        """Multiply by 1 / (1 - monomial), truncated by total degree."""
        step = sum(monomial)
        if step <= 0:
            raise ValueError("geometric factor needs a monomial of positive degree")
        out: dict[Monomial, int] = {}
        for exps, coeff in self.terms.items():
            if coeff == 0:
                continue
            total = sum(exps)
            shifted = exps
            while total <= self.degree:
                out[shifted] = out.get(shifted, 0) + coeff
                total += step
                shifted = tuple(map(add, shifted, monomial))
        return MultiTraceSeries(self.var_lo, self.var_hi, self.degree, out)

    def specialize(self) -> TruncatedSeries:
        """Set every variable to q: collect coefficients by total degree."""
        coeffs = [0] * (self.degree + 1)
        for exps, coeff in self.terms.items():
            coeffs[sum(exps)] += coeff
        return TruncatedSeries(tuple(coeffs))

    def _sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted((m, c) for m, c in self.terms.items() if c)

    def format_monomial(self, exps: Monomial) -> str:
        pieces = []
        for k, e in zip(self.variables, exps):
            if e == 1:
                pieces.append(f"q_{{{k}}}")
            elif e > 1:
                pieces.append(f"q_{{{k}}}^{e}")
        return " ".join(pieces) if pieces else "1"

    def to_text(self) -> str:
        lines = [f"{c} : {self.format_monomial(m)}" for m, c in self._sorted_terms()]
        return "\n".join(lines)

    __str__ = to_text

    def to_json_obj(self) -> dict:
        return {
            "variables": list(self.variables),
            "degree": self.degree,
            "terms": [[list(m), c] for m, c in self._sorted_terms()],
        }


def hook_monomial(shape: Partition, u: tuple[int, int]) -> Monomial:
    """Exponent vector with a 1 for every diagonal met by the hook of u.

    The contents covered are the interval from (column - column length) to
    (row length - row) of the anchor.
    """
    i, j = u
    lo = j - shape.col_length(j)
    hi = shape.row_length(i) - i
    return tuple(1 if lo <= k <= hi else 0 for k in shape.contents)


def gansner_product(shape: Partition, degree: int) -> MultiTraceSeries:
    """Product over all cells of 1 / (1 - q^{hook content interval}).

    Each term of the expansion is one hook tableau of weighted size at most
    `degree`, so their count bounds the terms kept at every step: the call
    raises BudgetExceededError, before any multiplication, when it is over
    the enumeration ceiling.
    """
    _grid_budget(f"hook tableaux of {shape} for its trace product", shape, degree, DEFAULT_CEILING)
    ks = shape.contents
    acc = MultiTraceSeries.one(ks.start, ks.start + len(ks) - 1, degree)
    for u in shape.cells():
        acc = acc.times_geometric(hook_monomial(shape, u))
    return acc


def trace_series(shape: Partition, degree: int) -> MultiTraceSeries:
    """Sum over all fillings of size at most `degree` of their trace monomial.

    A filling's monomial is its list of diagonal sums, `Rpp.traces()`, which
    reads each filling in one pass over its rows.
    """
    ks = shape.contents
    acc = MultiTraceSeries(ks.start, ks.start + len(ks) - 1, degree, {})
    for pi in enumerate_rpps(shape, degree):
        acc.add_term(tuple(pi.traces()), 1)
    return acc
