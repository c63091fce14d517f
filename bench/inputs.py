"""Seeded input generators for the benchmark workloads.

Everything is built from the `tests/helpers.py` patterns, whose invariants
hold by construction and which keep an independent record of the answer.
Shapes are fixed wherever the helpers allow it, so that two seeds cost
about the same and run-to-run spread measures the program, not the draw.

Rational inputs come from the same patterns conjugated over Q instead of
over Z (see `rational_conjugators`), which keeps every invariant while
giving each entry its own denominator of up to about 2^16.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import helpers
from catcx.chain import (ChainComplex, identity_map, tensor, tensor_map,
                         unit_complex, zero_complex, zero_map)
from catcx.exactlin import Matrix
from catcx.laxmat import Delta1ChainMatrix
from catcx.multicplx import MultiComplex
from catcx.perverse import PervDisk, PervFlag

DENOM = 255  # numerators and denominators of diagonal rescalings


def rational_diag(rng: random.Random, n: int) -> list:
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, DENOM), rng.randint(1, DENOM))
            for _ in range(n)]


def rescale(m: Matrix, left: list, right: list) -> Matrix:
    """diag(left) * m * diag(right)."""
    return Matrix(m.rows, m.cols, [m[i, j] * left[i] * right[j]
                                   for i in range(m.rows) for j in range(m.cols)])


@contextmanager
def rational_conjugators(rng: random.Random):
    """Make the helpers conjugate their patterns by D * U instead of U.

    U is the helpers' random unimodular matrix and D a random invertible
    rational diagonal, so every pattern is conjugated by an invertible
    rational matrix: invariants survive, entries become p/q.
    """
    unimodular = helpers.unimodular

    def conjugator(rng_, n, steps=None):
        u = unimodular(rng_, n, steps)
        return rescale(u, rational_diag(rng, n), [Fraction(1)] * n)

    helpers.unimodular = conjugator
    try:
        yield
    finally:
        helpers.unimodular = unimodular


def pattern_complex(rng: random.Random, lo: int, dims, conjugate: bool = True):
    """(complex, homology dims): the helpers' slot pattern at fixed dims.

    In degree k the first s[k] slots are killed by d_k and the next s[k+1]
    slots are hit by d_{k+1}.  Unconjugated, the differentials are mostly
    zero, which is the shape of a large sparse boundary matrix.
    """
    hi = lo + len(dims) - 1
    dim = {lo + i: d for i, d in enumerate(dims)}
    s = {k: 0 for k in range(lo, hi + 2)}
    for k in range(hi, lo, -1):
        room = min(dim[k] - s[k + 1], dim[k - 1])
        s[k] = rng.randint(room // 2, room) if room > 0 else 0
    diffs = {}
    for k in range(lo + 1, hi + 1):
        ent = [0] * (dim[k - 1] * dim[k])
        for i in range(s[k]):
            ent[(s[k - 1] + i) * dim[k] + i] = 1
        diffs[k] = Matrix(dim[k - 1], dim[k], ent)
    if conjugate:
        u = {k: helpers.unimodular(rng, dim[k]) for k in dim}
        uinv = {k: u[k].invert() for k in dim}
        diffs = {k: u[k - 1] * m * uinv[k] for k, m in diffs.items()}
    hdims = {k: dim[k] - s[k] - s[k + 1] for k in dim}
    return ChainComplex(lo, hi, tuple(dims), diffs), hdims


def box(factors):
    """(multicomplex, homology dims of its total complex) of a tensor box.

    Same construction as `helpers.random_multicomplex`, but the factors
    come with their homology, so the Kunneth formula gives the answer.
    """
    n = len(factors)
    cxs = [c for c, _ in factors]
    lo = tuple(c.lo for c in cxs)
    hi = tuple(c.hi for c in cxs)
    dims = {}
    diffs = {j: {} for j in range(1, n + 1)}
    for a in product(*[c.degrees() for c in cxs]):
        dims[a] = 1
        for c, x in zip(cxs, a):
            dims[a] *= c.dim(x)
        for j in range(1, n + 1):
            if a[j - 1] == lo[j - 1]:
                continue
            m = Matrix.identity(1)
            for pos, (c, x) in enumerate(zip(cxs, a)):
                m = m.kron(c.d(x) if pos == j - 1 else Matrix.identity(c.dim(x)))
            diffs[j][a] = m
    homology = {k: 0 for k in range(sum(lo), sum(hi) + 1)}
    for a in product(*[c.degrees() for c in cxs]):
        term = 1
        for (_, h), x in zip(factors, a):
            term *= h[x]
        homology[sum(a)] += term
    return MultiComplex(n, lo, hi, dims, diffs), homology


def disk(rng: random.Random, psi: int, phi: int):
    """`helpers.random_disk`, redrawn until Phi has the given dimension."""
    while True:
        d = helpers.random_disk(rng, max_dim=phi, psi=psi)
        if d.dim_phi == phi:
            return d


def disk_pair(rng: random.Random, psi: int, phi: int, rational: bool):
    """Two disk models sharing Psi, rescaled over Q when `rational`."""
    p = disk(rng, psi, phi)
    q = disk(rng, psi, phi)
    if not rational:
        return p, q
    dpsi = rational_diag(rng, psi)
    inv_psi = [1 / x for x in dpsi]
    out = []
    for d in (p, q):
        dphi = rational_diag(rng, d.dim_phi)
        out.append(PervDisk(rescale(d.f, dpsi, [1 / x for x in dphi]),
                            rescale(d.g, dphi, inv_psi)))
    return tuple(out)


def pattern_flag(rng: random.Random, dims) -> PervFlag:
    """The paired-slot pattern of `helpers.random_flag` at fixed dims."""
    n = len(dims) - 1
    rho = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        room = min(dims[k + 1] - rho[k + 1], dims[k])
        rho[k] = rng.randint(0, max(0, room))
    u = [helpers.unimodular(rng, d) for d in dims]
    uinv = [m.invert() for m in u]
    d, delta = [], []
    for k in range(n):
        base = rho[k - 1] if k >= 1 else 0
        dent = [0] * (dims[k + 1] * dims[k])
        gent = [0] * (dims[k] * dims[k + 1])
        for i in range(rho[k]):
            dent[i * dims[k] + base + i] = 1
            gent[(base + i) * dims[k + 1] + i] = rng.choice(helpers.NONUNIT)
        d.append(u[k + 1] * Matrix(dims[k + 1], dims[k], dent) * uinv[k])
        delta.append(u[k] * Matrix(dims[k], dims[k + 1], gent) * uinv[k + 1])
    return PervFlag(tuple(dims), tuple(d), tuple(delta))


def poset(rng: random.Random, size: int):
    """`helpers.random_poset`, redrawn until it has the given size."""
    while True:
        p = helpers.random_poset(rng, max_size=size)
        if len(p.labels) == size:
            return p


def shaped(dims):
    """Complex factory for `lax_matrix`: the slot pattern at fixed dims."""
    def make(rng: random.Random, lo_range=(-1, 1)) -> ChainComplex:
        return pattern_complex(rng, rng.randint(*lo_range), dims)[0]
    return make


def lax_matrix(rng: random.Random, style: str, make,
               g: ChainComplex = None) -> Delta1ChainMatrix:
    """`helpers.random_lax_matrix` with a chosen style and complex factory."""
    G = make(rng, lo_range=(0, 1)) if g is None else g
    if style == "corner":
        zero = zero_complex()
        e00, e10, e11 = make(rng), make(rng), make(rng)
        entries = {(0, 0): e00, (0, 1): zero, (1, 0): e10, (1, 1): e11}
        return Delta1ChainMatrix(
            G, G, entries,
            helpers.random_chain_map(rng, tensor(G, e00), e10),
            zero_map(tensor(zero, G), e00),
            zero_map(tensor(G, zero), e11),
            helpers.random_chain_map(rng, tensor(e11, G), e10))
    one = unit_complex()
    E = make(rng)
    phi = helpers.random_chain_map(rng, G, one)
    psi = helpers.random_chain_map(rng, G, one)
    left = tensor_map(phi, identity_map(E))
    right = tensor_map(identity_map(E), psi)
    return Delta1ChainMatrix(G, G, {(0, 0): E, (0, 1): E, (1, 0): E, (1, 1): E},
                             left, right, left, right)


def ranked_matrix(rng: random.Random, n: int, rank: int) -> Matrix:
    """U1 * [I_r 0; 0 0] * U2 with unimodular U1, U2: rank exactly `rank`."""
    pattern = Matrix(n, n, [1 if i == j and i < rank else 0
                            for i in range(n) for j in range(n)])
    steps = 3 * n  # dense enough that elimination does real work
    return (helpers.unimodular(rng, n, steps) * pattern
            * helpers.unimodular(rng, n, steps))


def full_rank_matrix(rng: random.Random, n: int, bound: int = 3) -> Matrix:
    """Random integer matrix, redrawn until it is invertible."""
    while True:
        m = helpers.int_matrix(rng, n, n, bound)
        if m.rank() == n:
            return m
