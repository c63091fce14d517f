"""K_0 calculus over posets and the chain-level Delta^1 matrix composition."""

import random

import pytest

from catcx.exactlin import Matrix, DimensionError
from catcx.chain import (
    ChainMap,
    ChainHomotopy,
    check_homotopy,
    euler_characteristic,
    identity_map,
    is_quasi_iso,
    tensor,
    tensor_map,
    unit_complex,
    validate_complex,
)
from catcx.laxmat import (
    FinPoset,
    validate_poset,
    IntMatrix,
    zeta,
    mobius,
    k0_compose,
    Span,
    hpushout,
    assoc,
    assoc_inv,
    tensor_cone,
    Delta1ChainMatrix,
    validate_delta1_matrix,
    unit_matrix,
    compose_entry_span,
    lax_compose_delta1,
    k0_shadow,
    cof_action,
    fib,
    fib_action,
)
from helpers import (
    random_chain_map,
    random_complex,
    random_lax_matrix,
    random_poset,
    small_complex,
)
from lax_reference import induced_pushout_map


def ident_int(labels):
    n = len(labels)
    return IntMatrix(labels, labels, [[1 if i == j else 0 for j in range(n)]
                                      for i in range(n)])


def test_poset_validation():
    assert validate_poset(FinPoset.delta1()) == []
    assert validate_poset(FinPoset.chain(5)) == []
    loop = FinPoset(("a", "b"), ((True, True), (True, True)))
    assert validate_poset(loop) != []
    rng = random.Random(2)
    for _ in range(40):
        assert validate_poset(random_poset(rng)) == []


def test_zeta_mobius_worked_values():
    d1 = FinPoset.delta1()
    assert zeta(d1) == IntMatrix(("0", "1"), ("0", "1"), [[1, 0], [1, 1]])
    assert mobius(d1) == IntMatrix(("0", "1"), ("0", "1"), [[1, 0], [-1, 1]])
    c = FinPoset.chain(4)
    # mobius of a chain is 1 on the diagonal, -1 just below
    want = [[0] * 4 for _ in range(4)]
    for i in range(4):
        want[i][i] = 1
        if i:
            want[i][i - 1] = -1
    assert mobius(c) == IntMatrix(c.labels, c.labels, want)


def test_zeta_mobius_are_inverse_on_random_posets():
    rng = random.Random(13)
    for _ in range(80):
        p = random_poset(rng)
        ident = ident_int(p.labels)
        assert zeta(p) * mobius(p) == ident
        assert mobius(p) * zeta(p) == ident


def test_k0_compose_worked_value():
    n = IntMatrix(("r",), ("0", "1"), [[2, 3]])
    m = IntMatrix(("0", "1"), ("c",), [[5], [7]])
    out = k0_compose(n, m, FinPoset.delta1())
    assert out == IntMatrix(("r",), ("c",), [[16]])
    with pytest.raises(DimensionError):
        k0_compose(m, n, FinPoset.delta1())


def rand_int_matrix(rng, row_labels, col_labels):
    return IntMatrix(row_labels, col_labels,
                     [[rng.randint(-4, 4) for _ in col_labels] for _ in row_labels])


def test_k0_compose_associative_and_unital():
    rng = random.Random(17)
    for _ in range(30):
        x = random_poset(rng, max_size=5)
        y = random_poset(rng, max_size=5)
        w = ("w0", "w1")
        z = ("z0",)
        a = rand_int_matrix(rng, x.labels, w)
        b = rand_int_matrix(rng, y.labels, x.labels)
        c = rand_int_matrix(rng, z, y.labels)
        left = k0_compose(c, k0_compose(b, a, x), y)
        right = k0_compose(k0_compose(c, b, y), a, x)
        assert left == right
        # zeta is the unit of this composition
        assert k0_compose(zeta(y), b, y) == b
        assert k0_compose(b, zeta(x), x) == b


def random_span(rng, max_len=2, max_dim=2):
    a, _ = random_complex(rng, max_len=max_len, max_dim=max_dim, lo_range=(-1, 1))
    b, _ = random_complex(rng, max_len=max_len, max_dim=max_dim, lo_range=(-1, 1))
    c, _ = random_complex(rng, max_len=max_len, max_dim=max_dim, lo_range=(-1, 1))
    return Span(random_chain_map(rng, a, b), random_chain_map(rng, a, c))


def test_hpushout_worked_and_glue_homotopy():
    one = unit_complex()
    span = Span(identity_map(one), identity_map(one))
    push = hpushout(span)
    assert push.cx.dims == (2, 1)
    assert push.cx.d(1) == Matrix(2, 1, [-1, 1])
    assert push.from_left.f(0) == Matrix(2, 1, [1, 0])
    assert push.from_right.f(0) == Matrix(2, 1, [0, 1])

    rng = random.Random(29)
    for _ in range(25):
        span = random_span(rng)
        push = hpushout(span)
        assert validate_complex(push.cx) == []
        assert push.from_left.validate() == []
        assert push.from_right.validate() == []
        a, b, c = span.apex, span.left.target, span.right.target
        assert euler_characteristic(push.cx) == (
            euler_characteristic(b) + euler_characteristic(c) - euler_characteristic(a))
        # the two routes through the pushout are glued by the apex slot
        h = ChainHomotopy(a, push.cx, {
            k: Matrix.identity(a.dim(k))
               .vstack(Matrix.zeros(b.dim(k + 1), a.dim(k)))
               .vstack(Matrix.zeros(c.dim(k + 1), a.dim(k)))
            for k in a.degrees()})
        lhs = push.from_left.compose(span.left)
        rhs = push.from_right.compose(span.right)
        assert check_homotopy(lhs, rhs, h)


def test_induced_pushout_map():
    rng = random.Random(37)
    for _ in range(10):
        span = random_span(rng)
        push = hpushout(span)
        a, b, c = span.apex, span.left.target, span.right.target
        double = lambda C: ChainMap(C, C, {k: Matrix.identity(C.dim(k)).scale(2)
                                           for k in C.degrees()})
        ind = induced_pushout_map(push, push, double(a), double(b), double(c))
        assert ind.validate() == []
        assert ind == double(push.cx)
    one = unit_complex()
    push = hpushout(Span(identity_map(one), identity_map(one)))
    twice = ChainMap(one, one, {0: Matrix(1, 1, [2])})
    with pytest.raises(DimensionError):
        induced_pushout_map(push, push, identity_map(one), twice, twice)


def test_assoc_is_a_chain_iso_with_transpose_inverse():
    rng = random.Random(41)
    for _ in range(15):
        x = small_complex(rng)
        y = small_complex(rng)
        z = small_complex(rng)
        a = assoc(x, y, z)
        assert a.source == tensor(tensor(x, y), z)
        assert a.target == tensor(x, tensor(y, z))
        assert a.validate() == []
        ai = assoc_inv(x, y, z)
        assert ai.compose(a) == identity_map(a.source)
        assert a.compose(ai) == identity_map(a.target)


def test_tensor_cone_interchange_isos():
    rng = random.Random(43)
    for _ in range(12):
        k = small_complex(rng)
        push = hpushout(random_span(rng))
        tpush, omega = tensor_cone(push, k, "left")
        assert omega.source == tensor(k, push.cx)
        assert omega.target == tpush.cx
        assert omega.validate() == []
        for n in omega.source.degrees():
            assert omega.f(n).invert() is not None
        # compatible with the canonical inclusions from the left leg
        lifted = tensor_map(identity_map(k), push.from_left)
        assert omega.compose(lifted) == tpush.from_left

        tpush2, omega2 = tensor_cone(push, k, "right")
        assert omega2.source == tensor(push.cx, k)
        assert omega2.target == tpush2.cx
        assert omega2.validate() == []
        for n in omega2.source.degrees():
            assert omega2.f(n).invert() is not None
        lifted2 = tensor_map(push.from_left, identity_map(k))
        assert omega2.compose(lifted2) == tpush2.from_left


def test_unit_matrix_and_random_matrices_validate():
    rng = random.Random(47)
    for _ in range(10):
        g, _ = random_complex(rng, max_len=2, max_dim=2, lo_range=(0, 1))
        assert validate_delta1_matrix(unit_matrix(g)) == []
    for _ in range(20):
        assert validate_delta1_matrix(random_lax_matrix(rng)) == []


def test_compose_entry_span_endpoints():
    rng = random.Random(53)
    m = random_lax_matrix(rng)
    n = random_lax_matrix(rng, g=m.g_tgt)
    for u in (0, 1):
        for s in (0, 1):
            span = compose_entry_span(n, m, u, s)
            g = n.g_src
            assert span.apex == tensor(tensor(n.entry(u, 1), g), m.entry(0, s))
            assert span.left.target == tensor(n.entry(u, 0), m.entry(0, s))
            assert span.right.target == tensor(n.entry(u, 1), m.entry(1, s))


def test_lax_composition_output_validates():
    rng = random.Random(59)
    for _ in range(8):
        m = random_lax_matrix(rng)
        n = random_lax_matrix(rng, g=m.g_tgt)
        out = lax_compose_delta1(n, m)
        assert validate_delta1_matrix(out) == []
        assert out.g_src == m.g_src and out.g_tgt == n.g_tgt


def test_unit_laws_hold_up_to_quasi_iso():
    rng = random.Random(61)
    for _ in range(20):
        m = random_lax_matrix(rng)
        left = lax_compose_delta1(unit_matrix(m.g_tgt), m)
        for u in (0, 1):
            for s in (0, 1):
                push = hpushout(compose_entry_span(unit_matrix(m.g_tgt), m, u, s))
                cmp_map = push.from_left if u == 0 else push.from_right
                assert cmp_map.source == m.entry(u, s)
                assert cmp_map.target == left.entry(u, s)
                assert is_quasi_iso(cmp_map)
        right = lax_compose_delta1(m, unit_matrix(m.g_src))
        for u in (0, 1):
            for s in (0, 1):
                push = hpushout(compose_entry_span(m, unit_matrix(m.g_src), u, s))
                cmp_map = push.from_left if s == 0 else push.from_right
                assert cmp_map.source == m.entry(u, s)
                assert cmp_map.target == right.entry(u, s)
                assert is_quasi_iso(cmp_map)


def test_k0_shadow_commutes_with_composition():
    rng = random.Random(67)
    for _ in range(15):
        m = random_lax_matrix(rng)
        n = random_lax_matrix(rng, g=m.g_tgt)
        out = lax_compose_delta1(n, m)
        chi_g = euler_characteristic(m.g_tgt)
        weight = IntMatrix(("0", "1"), ("0", "1"), [[1, 0], [-chi_g, 1]])
        assert k0_shadow(out) == k0_shadow(n) * weight * k0_shadow(m)
        if chi_g == 1:
            # the weight is exactly the Moebius matrix of Delta^1
            assert k0_shadow(out) == k0_compose(k0_shadow(n), k0_shadow(m),
                                                FinPoset.delta1())


def test_cof_then_fib_recovers_the_arrow():
    rng = random.Random(71)
    for _ in range(40):
        a, _ = random_complex(rng, max_len=2, max_dim=3, lo_range=(-1, 1))
        b, _ = random_complex(rng, max_len=2, max_dim=3, lo_range=(-1, 1))
        f = random_chain_map(rng, a, b)
        g = cof_action(f)
        assert g.source == b
        fcx, proj = fib(g)
        assert fib_action(g) == proj
        # A embeds in fib(cof(f)) as (f, -1, 0) against F_k = B_k + A_k + B_{k+1}
        comps = {}
        for k in a.degrees():
            comps[k] = (f.f(k)
                        .vstack(-Matrix.identity(a.dim(k)))
                        .vstack(Matrix.zeros(b.dim(k + 1), a.dim(k))))
        iota = ChainMap(a, fcx, comps)
        assert iota.validate() == []
        assert proj.compose(iota) == f
        assert is_quasi_iso(iota)
