"""Reference mapping complex and Hom coordinates with their own offsets.

This is `hom_complex` as `catcx.chain` had it before the mapping complex
became the tensor product B (x) dual(A): each differential places d_B . f_i
and the signed f_{i-1} . d_A blocks summand by summand, with offsets from
`hom_offsets`, which walks the window of Map(A,B)_n and gives every
summand a start, empty ones too.  `hom_element` and
`hom_element_components` are the coordinates as they were read from
`hom_offsets` before `chain.layout` placed them.  They are kept only as the
slow oracles of `test_hom_as_tensor.py` and `test_one_layout.py`; nothing
in the package imports them.
"""

from __future__ import annotations

from typing import Dict

from catcx.chain import ChainComplex, zero_complex
from catcx.exactlin import DimensionError, Matrix


def hom_offsets(A: ChainComplex, B: ChainComplex, n: int) -> Dict[int, int]:
    """Where each block Hom(A_i, B_{n+i}) of Map(A,B)_n starts, by i ascending."""
    off, pos = {}, 0
    for i in range(max(A.lo, B.lo - n), min(A.hi, B.hi - n) + 1):
        off[i], pos = pos, pos + A.dim(i) * B.dim(n + i)
    return off


def hom_complex(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    """Map(A,B)_n = (+)_i Hom(A_i, B_{n+i}), with d(f)_i = d_B . f_i -
    (-1)^{n-1} f_{i-1} . d_A for f of degree n; F in Hom(A_i, B_{n+i}) is
    flattened row-major."""
    lo = B.lo - A.hi
    hi = B.hi - A.lo
    if hi < lo:
        return zero_complex()
    dims = tuple(sum(A.dim(i) * B.dim(n + i) for i in hom_offsets(A, B, n))
                 for n in range(lo, hi + 1))
    diffs = {}
    for n in range(lo + 1, hi + 1):
        tgt_off = hom_offsets(A, B, n - 1)
        sign = -1 if (n - 1) % 2 == 0 else 1  # -(-1)^{n-1}
        blocks = []
        for i, c0 in hom_offsets(A, B, n).items():
            if not (A.dim(i) and B.dim(n + i)):
                continue  # an empty summand places only empty blocks
            # d_B . f_i : block from summand i to summand i of degree n-1
            if i in tgt_off and n + i in B.diffs:
                blocks.append((tgt_off[i], c0, B.diffs[n + i], 1, 1, A.dim(i)))
            # f_i . d_A : Hom(A_i, B_{n+i}) -> Hom(A_{i+1}, B_{n+i})
            if i + 1 in tgt_off and i + 1 in A.diffs:
                blocks.append((tgt_off[i + 1], c0, A.diffs[i + 1].transpose(), sign,
                               B.dim(n + i), 1))
        if blocks:
            diffs[n] = Matrix.from_blocks(dims[n - 1 - lo], dims[n - lo], blocks)
    return ChainComplex._of(lo, hi, dims, diffs)


def hom_element(A: ChainComplex, B: ChainComplex, n: int,
                comps: Dict[int, Matrix]) -> Matrix:
    """Flatten {f_i: A_i -> B_{n+i}} into a coordinate column of Map(A,B)_n."""
    off = hom_offsets(A, B, n)
    total = sum(A.dim(i) * B.dim(n + i) for i in off)
    blocks = []
    for i, pos in off.items():
        m = comps.get(i)
        if m is None:
            continue
        if (m.rows, m.cols) != (B.dim(n + i), A.dim(i)):
            raise DimensionError(f"hom element component {i} has wrong shape")
        blocks.append((pos, 0, Matrix._of(m.rows * m.cols, 1, m._e, m._d)))
    return Matrix.from_blocks(total, 1, blocks)


def hom_element_components(A: ChainComplex, B: ChainComplex, n: int,
                           v: Matrix) -> Dict[int, Matrix]:
    """Inverse of hom_element: a component for every summand of the window."""
    out = {}
    for i, pos in hom_offsets(A, B, n).items():
        rows, cols = B.dim(n + i), A.dim(i)
        out[i] = Matrix._of(rows, cols, v._e[pos:pos + rows * cols], v._d)
    return out
