"""`Matrix.__mul__` has two inner loops, chosen per product from the
operands: for n x m times m x p whose left factor has z nonzero entries,
one dot product per entry when n * p * (m + 8) <= 3 * z * (p + 4), and a
combination of rows of the right factor otherwise.  A zero operand or an
empty shape gives the zero product without either loop.

Every product here is checked entry by entry against the Fraction
reference, and the loop it took is checked against that rule: densities
on both sides of the rule and exactly at it, sides 0 to 30, right factors
with zero rows, p/q entries and entries up to 2^200.  `laxmat.IntMatrix`
products are these products, on the labelled `Matrix`.
"""

import random
from fractions import Fraction
from math import ceil, floor, gcd
from unittest import mock

from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from catcx import exactlin
from catcx.exactlin import Matrix
from catcx.laxmat import FinPoset, IntMatrix, mobius, zeta

HUGE = 2 ** 200


def dot_rule(n: int, m: int, p: int, z: int) -> bool:
    return n * p * (m + 8) <= 3 * z * (p + 4)


def product(a: Matrix, b: Matrix):
    """a * b, and whether it took the dot-product loop (the only loop that
    calls `operator.mul`)."""
    used = []

    def mul(x, y):
        used.append(True)
        return x * y

    with mock.patch.object(exactlin, "mul", mul):
        c = a * b
    return c, bool(used)


def check(n, m, p, a_entries, b_entries):
    """Multiply both ways, compare with the reference; the loop taken."""
    a, b = Matrix(n, m, a_entries), Matrix(m, p, b_entries)
    c, dot = product(a, b)
    want = ref.Matrix(n, m, a_entries) * ref.Matrix(m, p, b_entries)
    assert (c.rows, c.cols) == (n, p)
    assert c.entries() == want.entries()
    assert c._d > 0 and gcd(c._d, *c._e) == 1
    z = sum(1 for x in a_entries if x)
    if not z or not any(b_entries):
        assert not dot and c.is_zero() and c._d == 1
    else:
        assert dot == dot_rule(n, m, p, z), (n, m, p, z)
    return dot


def entry(rng: random.Random, huge: bool = True) -> Fraction:
    """A nonzero entry: small int, small p/q, or (when huge) int or p/q up
    to 2^200."""
    kind = rng.randrange(4 if huge else 2)
    if kind == 0:
        return Fraction(rng.choice([-2, -1, 1, 1, 2, 3]))
    if kind == 1:
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
    if kind == 2:
        return Fraction(rng.randint(-HUGE, HUGE) or 1)
    return Fraction(rng.randint(-HUGE, HUGE) or 1, rng.randint(1, HUGE))


def with_nonzeros(rng, size: int, z: int, huge: bool = True) -> list:
    """size entries, exactly z of them nonzero, at random places."""
    out = [Fraction(0)] * size
    for i in rng.sample(range(size), z):
        out[i] = entry(rng, huge)
    return out


def right_factor(rng, m: int, p: int, huge: bool = True) -> list:
    """m x p entries, dense except for some zero rows."""
    zero_rows = set(rng.sample(range(m), rng.randint(0, m // 2)))
    return [Fraction(0) if i // p in zero_rows else entry(rng, huge) for i in range(m * p)]


def test_densities_on_both_sides_of_the_rule():
    rng = random.Random(11)
    taken = set()
    for _ in range(40):
        n, m, p = rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 30)
        huge = n * m * p <= 1000  # keep the reference fast on big shapes
        t = n * p * (m + 8) / (3 * (p + 4))  # the rule's least z
        for z in {0, 1, floor(t) - 1, floor(t), ceil(t), ceil(t) + 1, n * m}:
            if 0 <= z <= n * m:
                b = right_factor(rng, m, p, huge)
                taken.add(check(n, m, p, with_nonzeros(rng, n * m, z, huge), b))
    assert taken == {False, True}


def test_density_exactly_at_the_rule():
    rng = random.Random(12)
    at = [(n, m, p) for n in range(1, 13) for m in range(1, 13) for p in range(1, 13)
          if n * p * (m + 8) % (3 * (p + 4)) == 0
          and 0 < n * p * (m + 8) // (3 * (p + 4)) <= n * m]
    assert len(at) > 20
    for n, m, p in rng.sample(at, 20):
        z = n * p * (m + 8) // (3 * (p + 4))
        b = right_factor(rng, m, p)
        b[rng.randrange(len(b))] = Fraction(1)  # b is not zero
        assert check(n, m, p, with_nonzeros(rng, n * m, z), b)
        if z > 1:
            assert not check(n, m, p, with_nonzeros(rng, n * m, z - 1), b)


def test_empty_shapes_and_zero_operands():
    rng = random.Random(13)
    for k in range(31):
        check(0, k, 0, [], [])  # 0 x k times k x 0
        check(k, 0, k, [], [])  # k x 0 times 0 x k: the zero k x k
        check(0, k, 3, [], [entry(rng) for _ in range(3 * k)])
        check(3, k, 0, [entry(rng) for _ in range(3 * k)], [])
    for n, m, p in ((1, 1, 1), (4, 7, 2), (30, 30, 30)):
        dense = [entry(rng) for _ in range(n * m)]
        check(n, m, p, [Fraction(0)] * (n * m), [entry(rng, False) for _ in range(m * p)])
        check(n, m, p, dense, [Fraction(0)] * (m * p))


def test_zero_rows_of_the_right_factor():
    rng = random.Random(14)
    for _ in range(30):
        n, m, p = rng.randint(1, 12), rng.randint(2, 12), rng.randint(1, 12)
        b = [entry(rng) for _ in range(m * p)]
        for k in rng.sample(range(m), m - 1):  # one live row
            b[k * p:(k + 1) * p] = [Fraction(0)] * p
        for z in (1, n * m // 3, n * m):
            check(n, m, p, with_nonzeros(rng, n * m, z), b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30),
       st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), st.integers(0, 2 ** 32))
def test_any_shape_and_density(n, m, p, density, seed):
    m = min(m, 1500 // max(n * p, 1))  # keep the reference fast
    rng = random.Random(seed)
    a = [entry(rng) if rng.random() < density else Fraction(0) for _ in range(n * m)]
    check(n, m, p, a, [entry(rng) for _ in range(m * p)])


def test_int_matrix_products_are_labelled_matrix_products():
    rng = random.Random(15)
    rl, ml, cl = ("a", "b", "c"), ("x", "y"), ("u", "v", "w", "t")
    n = IntMatrix(rl, ml, [[rng.randint(-5, 5) for _ in ml] for _ in rl])
    m = IntMatrix(ml, cl, [[rng.randint(-5, 5) for _ in cl] for _ in ml])
    out = n * m
    assert (out.row_labels, out.col_labels) == (rl, cl)
    assert out.matrix == n.matrix * m.matrix
    want = ref.Matrix(3, 2, [x for r in n.entries for x in r]) * ref.Matrix(
        2, 4, [x for r in m.entries for x in r])
    assert out.entries == tuple(tuple(int(x) for x in r) for r in want.to_lists())
    assert out == IntMatrix(rl, cl, out.entries)
    assert (repr(IntMatrix(("r",), ("c", "d"), [["2", 3]]))
            == "IntMatrix(('r',)x('c', 'd'): ((2, 3),))")
    P = FinPoset.chain(4)
    assert (zeta(P) * mobius(P)).matrix.is_identity()
