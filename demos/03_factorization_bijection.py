#!/usr/bin/env python3
# Every reverse plane partition factors uniquely into a weakly increasing
# sequence of rim-hooks; re-inserting them largest-first rebuilds it.

from rimhooks import (
    Partition,
    Rpp,
    build,
    content_key,
    extraction_path,
    factorize,
    rim_hook_of_path,
)
from rimhooks.enumeration import enumerate_rpps, enumerate_tableaux
from rimhooks.render import ascii_grid, ascii_rpp

shape = Partition((4, 3, 1))
pi = Rpp(shape, ((0, 1, 2, 3), (1, 2, 2), (1,)))
print("the running example:")
print(ascii_rpp(pi))

# extraction subtracts 1 along a greedy north-east walk from the smallest
# candidate; each walk determines one rim-hook (same tail, same cell count)
print("\nstep-by-step extraction:")
cur = pi
while candidates := cur.candidates():
    walk = extraction_path(min(candidates, key=content_key), cur)
    hook = rim_hook_of_path(walk, shape)
    print(f"  candidates {sorted(candidates)}, walk {walk} -> hook {hook.anchor}")
    cur = cur.with_path(walk, -1)
assert cur.is_zero()

fact = factorize(pi)
print("\nanchors in extraction order:", fact.anchors)
tableau = fact.to_tableau()
print("as a tableau of hook counts:")
print(ascii_grid(tableau))

# building inverts the factorization: sort the multiset, insert right to left
assert build(tableau) == pi
print("\nbuild(tableau) reproduces the filling: True")

# the correspondence is a bijection at every size: the number of fillings of
# size n equals the number of tableaux of weighted size n
sizes = {}
for filling in enumerate_rpps(shape, 6):
    sizes[filling.size] = sizes.get(filling.size, 0) + 1
weights = {}
for t in enumerate_tableaux(shape, 6):
    weights[t.weighted_size] = weights.get(t.weighted_size, 0) + 1
print("\nfillings by size:         ", dict(sorted(sizes.items())))
print("tableaux by weighted size:", dict(sorted(weights.items())))
assert sizes == weights
