"""Reference Koszul construction that checks d.d = 0 by multiplying.

This is `koszul` as `catcx.koszul` had it before the check moved to its
closed form (the lambdas commute pairwise): it builds every sparse
differential and multiplies d_{k-1} d_k in each degree k >= 2, raising at
the first product that is not zero.  It is kept only as the slow oracle of
`test_koszul_closed_form.py`; nothing in the package imports it.
"""

from __future__ import annotations

from typing import Dict, Sequence

from catcx.exactlin import DimensionError
from catcx.koszul import AlgebraError, FreeKoszulComplex, RMatrix, subset_order


def koszul(algebra, lambdas: Sequence[Sequence]) -> FreeKoszulComplex:
    """Build K(l_1..l_n) and verify d.d = 0 over R by sparse products."""
    ls = tuple(algebra.element(l) for l in lambdas)
    n = len(ls)
    if n == 0:
        raise DimensionError("need at least one lambda")
    # (l_i, -l_i), or None where l_i = 0 and contributes no entries
    signed = [(l, tuple(-x for x in l)) if any(l) else None for l in ls]
    basis = tuple(tuple(subset_order(n, k)) for k in range(n + 1))
    sym_d: Dict[int, RMatrix] = {}
    for k in range(1, n + 1):
        row_of = {S: r for r, S in enumerate(basis[k - 1])}
        nz = {}
        for col, S in enumerate(basis[k]):
            # S is ascending, so exactly pos members of S lie below i = S[pos]
            for pos, i in enumerate(S):
                if signed[i - 1] is not None:
                    nz[row_of[S[:pos] + S[pos + 1:]], col] = signed[i - 1][pos % 2]
        sym_d[k] = RMatrix._of(algebra, len(basis[k - 1]), len(basis[k]), nz)
    for k in range(2, n + 1):
        if not (sym_d[k - 1] * sym_d[k]).is_zero():
            raise AlgebraError(f"Koszul differential does not square to zero at degree {k}")
    return FreeKoszulComplex(algebra, ls, basis, sym_d)
