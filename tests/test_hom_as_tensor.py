"""The mapping complex is B (x) dual(A), and a direct sum is a cone.

`hom_complex` is built by `tensor` from the dual complex, and `direct_sum`
by `sum_cone` from the zero maps out of an empty complex.  The loops they
replaced are kept as oracles: `hom_reference.hom_complex` places the
mapping complex's blocks summand by summand, and `lax_reference.direct_sum`
places a block in every degree.  On seeded pairs with rational entries,
zero-dimension degrees, one-degree windows and windows far apart, both
sides must build equal complexes that store the same degrees and matrices
and write the same bytes, compact and indented.
"""

from fractions import Fraction
import random

import pytest

from catcx.chain import (ChainComplex, direct_sum, dual, hom_complex, hom_dims,
                         unit_complex)
from catcx.documents import serialize_document
from helpers import random_complex
import hom_reference
import lax_reference

PAIRS = 1200


def rational(rng, C: ChainComplex) -> ChainComplex:
    """C with the basis of each degree scaled by a random rational: the same
    homology, entries with denominators."""
    c = {k: Fraction(rng.choice((1, -1, 2, 3, -5)), rng.choice((1, 2, 3, 7)))
         for k in C.degrees()}
    return ChainComplex(C.lo, C.hi, C.dims,
                        {k: m.scale(c[k - 1] / c[k]) for k, m in C.diffs.items()})


def some_complex(rng) -> ChainComplex:
    """A complex of 1 to 5 degrees of dimension 0..3 (one degree in about a
    fifth), placed near 0 or anywhere in -15..15, rational in about a third."""
    C, _ = random_complex(rng, max_len=rng.choice((0, 1, 2, 4)), max_dim=3,
                          lo_range=rng.choice(((-2, 2), (-15, 15))))
    return rational(rng, C) if rng.random() < 0.35 else C


@pytest.fixture(scope="module")
def pairs():
    rng = random.Random(2501)
    return [(some_complex(rng), some_complex(rng)) for _ in range(PAIRS)]


def assert_same_store(got: ChainComplex, want: ChainComplex):
    """Equal, with the same stored degrees holding the same matrices, and
    written to the same bytes compact and indented."""
    assert got == want
    assert list(got.diffs) == list(want.diffs)
    assert all((m.rows, m.cols, m._e, m._d) == (want.diffs[k].rows, want.diffs[k].cols,
                                                 want.diffs[k]._e, want.diffs[k]._d)
               for k, m in got.diffs.items())
    assert_same_bytes(got, want)


def assert_same_bytes(got: ChainComplex, want: ChainComplex):
    for pretty in (False, True):
        assert serialize_document(got, pretty) == serialize_document(want, pretty)


def test_hom_complex_is_the_reference(pairs):
    seen = dict.fromkeys(("rational", "zero degree", "one-degree window", "far apart"), 0)
    for A, B in pairs:
        H = hom_complex(A, B)
        assert_same_store(H, hom_reference.hom_complex(A, B))
        assert dict(zip(H.degrees(), H.dims)) == hom_dims(A, B)
        seen["rational"] += any(m._d != 1 for m in H.diffs.values())
        seen["zero degree"] += 0 in A.dims + B.dims
        seen["one-degree window"] += A.lo == A.hi or B.lo == B.hi
        seen["far apart"] += max(A.lo - B.hi, B.lo - A.hi) > 5
    assert all(n >= 100 for n in seen.values()), seen


def test_dual_is_hom_into_the_unit(pairs):
    for A, _ in pairs:
        D = dual(A)
        assert (D.lo, D.hi, D.dims) == (-A.hi, -A.lo, A.dims[::-1])
        assert_same_store(D, hom_complex(A, unit_complex()))
        assert_same_store(D, hom_reference.hom_complex(A, unit_complex()))


def test_direct_sum_is_the_reference(pairs):
    for A, B in pairs:
        S, want = direct_sum(A, B), lax_reference.direct_sum(A, B)
        assert S == want
        assert list(S.diffs) == sorted(A.diffs.keys() | B.diffs.keys())
        assert_same_bytes(S, want)
