"""Chain complex machinery.

The sign conventions are load bearing, so each one is pinned by a worked
example: shift negates d once per step, the cone twists the shifted
source block by -1, the tensor differential carries (-1)^degree on the
left factor, and the hom differential for a degree-n element reads
d_B f - (-1)^(n-1) f d_A.
"""

from fractions import Fraction
import random

import pytest

from catcx.exactlin import DimensionError, Matrix
from catcx.chain import (ChainComplex, ChainHomotopy, ChainMap,
                         check_homotopy, cone, direct_sum, euler_characteristic,
                         hom_complex, hom_element,
                         homology_dims, identity_map, is_acyclic,
                         is_quasi_iso, shift, shift_map, single,
                         tensor, tensor_map, two_term,
                         unit_complex, validate_complex, zero_complex, zero_map)

from helpers import random_chain_map, random_complex, unimodular
from hom_reference import hom_element_components
from lax_reference import sum_inclusions


def test_validate_complex_catches_bad_square():
    d2 = Matrix(1, 1, [1])
    d1 = Matrix(1, 1, [1])
    c = ChainComplex(0, 2, (1, 1, 1), {1: d1, 2: d2})
    assert any("square" in msg or "d" in msg for msg in validate_complex(c))
    ok = ChainComplex(0, 2, (1, 1, 1), {1: d1, 2: Matrix(1, 1, [0])})
    assert validate_complex(ok) == []


def test_two_term_and_homology_worked():
    c = two_term(1, Matrix(1, 1, [2]))
    assert (c.lo, c.hi) == (0, 1)
    assert homology_dims(c) == {0: 0, 1: 0}
    assert is_acyclic(c)
    nil = two_term(1, Matrix(2, 2, [0, 0, 1, 0]))  # multiplication by x on Q[x]/(x^2)
    assert homology_dims(nil) == {0: 1, 1: 1}


def test_tensor_worked_example():
    a = two_term(1, Matrix(1, 1, [2]))
    b = two_term(1, Matrix(1, 1, [3]))
    t = tensor(a, b)
    assert t.dims == (1, 2, 1)
    # degree-1 summands come A-degree ascending: A0 (x) B1, then A1 (x) B0
    assert t.d(2) == Matrix(2, 1, [2, -3])
    assert t.d(1) == Matrix(1, 2, [3, 2])
    assert validate_complex(t) == []
    assert euler_characteristic(t) == euler_characteristic(a) * euler_characteristic(b)


def test_tensor_unit_is_strict():
    rng = random.Random(0)
    c, _ = random_complex(rng)
    one = unit_complex()
    assert tensor(one, c) == c
    assert tensor(c, one) == c
    assert tensor(zero_complex(), c).total_dim() == 0


def test_cone_signs_pinned():
    a = two_term(1, Matrix(1, 1, [2]))
    b = two_term(1, Matrix(1, 1, [3]))
    f = ChainMap(a, b, {0: Matrix(1, 1, [3]), 1: Matrix(1, 1, [2])})
    assert f.validate() == []
    c = cone(f)
    # cone_k = A_{k-1} (+) B_k with d = [[-d_A, 0], [-f, d_B]]
    assert c.complex.dims == (1, 2, 1)
    assert c.complex.d(2) == Matrix(2, 1, [-2, -2])
    assert c.complex.d(1) == Matrix(1, 2, [-3, 3])
    assert c.from_target.validate() == []
    assert c.to_shifted_source.validate() == []
    comp = c.to_shifted_source.compose(c.from_target)
    assert all(comp.f(k).is_zero() for k in comp.source.degrees())


def test_cone_of_identity_is_acyclic():
    rng = random.Random(1)
    for _ in range(10):
        cx, _ = random_complex(rng)
        assert is_acyclic(cone(identity_map(cx)).complex)


def test_shift_convention():
    c = two_term(1, Matrix(1, 1, [5]))
    s = shift(c, 1)
    assert (s.lo, s.hi) == (1, 2)
    assert s.d(2) == Matrix(1, 1, [-5])
    assert shift(s, -1) == c
    rng = random.Random(2)
    a, _ = random_complex(rng)
    b, _ = random_complex(rng)
    f = random_chain_map(rng, a, b)
    for m in (-2, 3):
        assert shift_map(f, m).validate() == []


def test_homotopy_identity_to_zero_on_contractible():
    c = two_term(1, Matrix.identity(2))
    h = ChainHomotopy(c, c, {0: Matrix.identity(2)})
    assert check_homotopy(zero_map(c, c), identity_map(c), h)
    bad = ChainHomotopy(c, c, {0: Matrix.identity(2).scale(2)})
    assert not check_homotopy(zero_map(c, c), identity_map(c), bad)


def test_compose_requires_matching_middle():
    a = single(0)
    b = single(1)
    f = zero_map(a, b)
    with pytest.raises(DimensionError):
        f.compose(f)


def test_chain_map_algebra():
    rng = random.Random(3)
    a, _ = random_complex(rng, max_len=3, max_dim=3)
    b, _ = random_complex(rng, max_len=3, max_dim=3)
    f = random_chain_map(rng, a, b)
    g = random_chain_map(rng, a, b)
    assert (f + g - g) == f
    assert (-f + f) == zero_map(a, b)
    assert (f + g).validate() == []


def test_direct_sum_and_euler():
    rng = random.Random(4)
    a, ha = random_complex(rng)
    b, hb = random_complex(rng)
    s = direct_sum(a, b)
    assert validate_complex(s) == []
    inc_a, inc_b = sum_inclusions(a, b)
    assert inc_a.validate() == [] and inc_b.validate() == []
    hs = homology_dims(s)
    for k in set(ha) | set(hb):
        assert hs.get(k, 0) == ha.get(k, 0) + hb.get(k, 0)
    assert euler_characteristic(s) == euler_characteristic(a) + euler_characteristic(b)
    chi_hom = sum((-1) ** k * v for k, v in hs.items())
    assert chi_hom == euler_characteristic(s)


def test_quasi_iso_detects_conjugation_and_rejects_zero():
    rng = random.Random(5)
    cx, hd = random_complex(rng, max_len=3, max_dim=3)
    u = {k: unimodular(rng, cx.dim(k)) for k in cx.degrees()}
    target = ChainComplex(cx.lo, cx.hi, cx.dims,
                          {k: u[k - 1] * cx.d(k) * u[k].invert()
                           for k in range(cx.lo + 1, cx.hi + 1)})
    iso = ChainMap(cx, target, {k: u[k] for k in cx.degrees()})
    assert iso.validate() == []
    assert is_quasi_iso(iso)
    if any(hd.values()):
        assert not is_quasi_iso(zero_map(cx, target))


def test_tensor_map_is_functorial():
    rng = random.Random(6)
    for _ in range(5):
        a, _ = random_complex(rng, max_len=2, max_dim=2)
        b, _ = random_complex(rng, max_len=2, max_dim=2)
        c, _ = random_complex(rng, max_len=2, max_dim=2)
        f = random_chain_map(rng, a, b)
        g = random_chain_map(rng, b, c)
        x, _ = random_complex(rng, max_len=2, max_dim=2)
        idx = identity_map(x)
        lhs = tensor_map(g.compose(f), idx)
        rhs = tensor_map(g, idx).compose(tensor_map(f, idx))
        assert lhs == rhs
        assert tensor_map(f, idx).validate() == []
        assert tensor_map(idx, f).validate() == []


def test_cone_euler_bookkeeping():
    rng = random.Random(7)
    a, _ = random_complex(rng)
    b, _ = random_complex(rng)
    f = random_chain_map(rng, a, b)
    c = cone(f).complex
    assert euler_characteristic(c) == euler_characteristic(b) - euler_characteristic(a)
    assert validate_complex(c) == []


# -- hom complex sign contract -------------------------------------------------

def twist(f: ChainMap) -> dict:
    return {k: f.f(k).scale(Fraction(-1) if k % 2 else Fraction(1))
            for k in range(min(f.source.lo, f.target.lo),
                           max(f.source.hi, f.target.hi) + 1)}


def test_hom_complex_cycles_are_twisted_chain_maps():
    rng = random.Random(8)
    for _ in range(5):
        a, _ = random_complex(rng, max_len=2, max_dim=2)
        b, _ = random_complex(rng, max_len=2, max_dim=2)
        h = hom_complex(a, b)
        assert validate_complex(h) == []
        f = random_chain_map(rng, a, b)
        vec = hom_element(a, b, 0, twist(f))
        if h.dim(0):
            out = h.d(0) * vec
            assert out.is_zero()


def test_hom_complex_boundary_matches_null_homotopy():
    # on a contractible complex, id - 0 = dh + hd; the twisted h must be a
    # hom-complex preimage of the twisted identity
    c = two_term(1, Matrix.identity(2))
    h_map = {0: Matrix.identity(2)}
    hom = hom_complex(c, c)
    hvec = hom_element(c, c, 1, {0: Matrix.identity(2)})
    target = hom.d(1) * hvec
    idvec = hom_element(c, c, 0, twist(identity_map(c)))
    assert target == idvec
    back = hom_element_components(c, c, 1, hvec)
    assert back[0] == Matrix.identity(2)
