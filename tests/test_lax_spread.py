"""Lax compositions whose cells live in odd degrees, against the dense reference.

The 'corner' and 'augmented' generator styles put every structure cell in
degree 0 or make E01 zero, so the sign (-1)^i of the tensor/cone
interchange is seldom exercised.  The 'spread' style has E01 nonzero in
degrees 0 and 1 and cells with odd-degree components: with that sign
moved from odd to even degrees, most seeded compositions differ from
`lax_reference`.
"""

from hypothesis import given, settings, strategies as st

import lax_reference as ref
from catcx.laxmat import compose_entry_span, lax_compose_delta1, validate_delta1_matrix
from helpers import random_lax_matrix


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_spread_compositions_match_the_reference(rng):
    m = random_lax_matrix(rng, "spread")
    n = random_lax_matrix(rng, "spread", g=m.g_tgt)
    assert validate_delta1_matrix(m) == [] and validate_delta1_matrix(n) == []
    got, want = lax_compose_delta1(n, m), ref.lax_compose_delta1(n, m)
    assert validate_delta1_matrix(got) == []
    assert got.entries == want.entries
    for cell in ("cell_f0", "cell_0f", "cell_f1", "cell_1f"):
        assert getattr(got, cell) == getattr(want, cell)
    for u in (0, 1):
        for s in (0, 1):
            span, want_span = compose_entry_span(n, m, u, s), ref.compose_entry_span(n, m, u, s)
            assert span.left == want_span.left and span.right == want_span.right


def test_spread_cells_have_odd_degree_components():
    import random
    odd = 0
    for seed in range(20):
        m = random_lax_matrix(random.Random(seed), "spread")
        odd += any(k % 2 and not c.f(k).is_zero()
                   for c in (m.cell_f0, m.cell_0f, m.cell_f1, m.cell_1f) for k in c.comps)
    assert odd >= 15
