"""Identities of homological algebra as independent oracles.

A check against the code a rewrite replaced cannot catch an error the old
code already had; these read the package against the mathematics instead
(Weibel, An Introduction to Homological Algebra, 1994, 1.2 and 2.7).

* Hom: h is a homotopy from f to g exactly when the twisted coordinates of
  g - f in Map(A, B)_0 are the boundary of h's twisted coordinates in
  Map(A, B)_1.  This ties `check_homotopy` to `hom_complex` and to the
  places `hom_element` reads.
* Cone: for f: A -> B with cone C, the inclusion iota_k of A_k as the apex
  part of C_{k+1} satisfies d iota + iota d = -(from_target . f), so
  -iota is a homotopy from 0 to from_target . f, and +iota is one only
  where that map is zero.  This pins the sign of the cone.
"""

import random

from catcx.chain import (ChainHomotopy, ChainMap, check_homotopy, cone, hom_complex,
                         hom_element, inclusion, zero_map)
from catcx.exactlin import Matrix
from helpers import int_matrix, random_chain_map, random_complex
from test_chain import twist


def some_homotopy(rng, A, B) -> ChainHomotopy:
    return ChainHomotopy(A, B, {k: int_matrix(rng, B.dim(k + 1), n) for k, n in A.support
                                if rng.random() < 0.8})


def boundary(h: ChainHomotopy) -> ChainMap:
    """d h + h d, degree by degree."""
    A, B = h.source, h.target
    return ChainMap(A, B, {k: B.d(k + 1) * h.h(k) + h.h(k - 1) * A.d(k)
                           for k in range(A.lo, A.hi + 1)})


def tampered(rng, f: ChainMap) -> ChainMap:
    """f with one entry of one nonzero component moved by 1, or f itself
    when every component is empty."""
    degrees = [k for k, n in f.source.support if f.target.dim(k)]
    if not degrees:
        return f
    k = rng.choice(degrees)
    m = f.f(k)
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    bump = Matrix.monomial(m.rows, [-1] * c + [r] + [-1] * (m.cols - c - 1))
    return f + ChainMap(f.source, f.target, {k: bump})


def test_homotopies_are_the_hom_boundaries():
    rng = random.Random(2706)
    held = failed = 0
    for case in range(450):
        A, _ = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))
        B, _ = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))
        f, h = random_chain_map(rng, A, B), some_homotopy(rng, A, B)
        g = f + boundary(h)
        if case % 3 == 1:
            g = tampered(rng, g)
        elif case % 3 == 2:  # another homotopy, often with the same boundary
            h = some_homotopy(rng, A, B)
        H = hom_complex(A, B)
        twisted_h = {k: m.scale(-1 if k % 2 else 1) for k, m in h.comps.items()}
        is_boundary = (hom_element(A, B, 0, twist(g - f))
                       == H.d(1) * hom_element(A, B, 1, twisted_h))
        assert check_homotopy(f, g, h) == is_boundary
        held += is_boundary
        failed += not is_boundary
    assert held >= 150 and failed >= 100, (held, failed)


def test_the_cone_inclusion_of_the_source_is_a_null_homotopy():
    rng = random.Random(2707)
    nonzero = 0
    for _ in range(300):
        A, _ = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))
        B, _ = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))
        f = random_chain_map(rng, A, B)
        c = cone(f)
        C, through = c.complex, c.from_target.compose(f)
        iota = {k: inclusion(C.dim(k + 1), 0, n) for k, n in A.support}
        zero = zero_map(A, C)
        assert check_homotopy(zero, through, ChainHomotopy(A, C, {k: -m for k, m in iota.items()}))
        is_zero = through == zero
        assert check_homotopy(zero, through, ChainHomotopy(A, C, iota)) == is_zero
        nonzero += not is_zero
    assert nonzero >= 100, nonzero
