"""`koszul.subset_order` and `doldkan.surjections` build their lists in
order, with no recursion and no sort; the definitions they replaced are
kept here as references, and the lists must be the same."""

import itertools

from catcx.doldkan import surjections
from catcx.koszul import subset_order


def subset_order_reference(n, k):
    if k < 0 or k > n:
        return []
    if n == 0:
        return [()]
    out = [s + (n,) for s in subset_order_reference(n - 1, k - 1)]
    out.extend(subset_order_reference(n - 1, k))
    return out


def surjections_reference(n, k):
    if k > n or k < 0:
        return []
    out = []
    for jumps in itertools.combinations(range(1, n + 1), k):
        vals = [0]
        for t in range(1, n + 1):
            vals.append(vals[-1] + (1 if t in jumps else 0))
        out.append(tuple(vals))
    out.sort()
    return out


def test_subset_order_matches_the_recursive_definition():
    for n in range(13):
        for k in range(-1, n + 2):
            assert subset_order(n, k) == subset_order_reference(n, k), (n, k)


def test_surjections_match_the_sorted_enumeration():
    for n in range(12):
        for k in range(-1, n + 2):
            got = surjections(n, k)
            assert got == surjections_reference(n, k), (n, k)
            assert all(type(x) is int for s in got for x in s)
