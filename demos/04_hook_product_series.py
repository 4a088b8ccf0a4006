#!/usr/bin/env python3
# The generating function for reverse plane partitions of a fixed shape
# factors over hook lengths; the trace refinement factors the same way with
# one variable per diagonal. Both identities are checked exactly, truncated.

from rimhooks import (
    Partition,
    gansner_product,
    hook_product,
    rpp_series,
    trace_series,
)

shape = Partition((2, 2))
print("shape", shape, "has hook lengths", sorted(shape.hook_length(u) for u in shape.cells()))

# left side: count fillings by size (brute-force enumeration)
lhs = rpp_series(shape, 10)
print("\ncounts by size:", list(lhs.coefficients))

# right side: the product over cells of 1 / (1 - q^hook), expanded with exact integers
rhs = hook_product(shape, 10)
print("hook product:  ", list(rhs.coefficients))
assert lhs == rhs

# the refinement tracks every diagonal sum separately; a cell contributes the
# interval of diagonals its hook touches
fine_lhs = trace_series(shape, 6)
fine_rhs = gansner_product(shape, 6)
assert fine_lhs == fine_rhs
print("\ntrace refinement, truncated at total degree 6:")
print(fine_rhs.to_text())

# setting every variable to q collapses the refinement to the size series
assert fine_rhs.specialize() == hook_product(shape, 6)
print("\nspecializing all variables to q reproduces the size series: True")

for parts in ((3, 2), (3, 3, 3), (4, 3, 1), (5, 2, 1, 1)):
    big = Partition(parts)
    assert rpp_series(big, 10) == hook_product(big, 10)
    assert trace_series(big, 8) == gansner_product(big, 8)
    print(f"verified exactly for {big}")
