"""One homotopy test serves `check_homotopy` and `verify_encoding`, and the
flag encoding takes its monodromies from `flag_monodromies`.

The reference below is the degreewise loop `verify_encoding` carried
inline before: g_k - f_k against d_{k+1} h_k + h_{k-1} d_k over the
window of both complexes, one report line per failing degree.
"""

import random

from catcx.chain import ChainHomotopy, check_homotopy, homotopy_failures
from catcx.perverse import encode_sheaf, encode_sheaf_flag, flag_monodromies, verify_encoding
from helpers import (int_matrix, random_chain_map, random_disk, random_flag, small_complex,
                     tampered_monodromy)


def failing_degrees(f, g, h):
    A, B = f.source, f.target
    return [k for k in range(min(A.lo, B.lo), max(A.hi, B.hi) + 1)
            if g.f(k) - f.f(k) != B.d(k + 1) * h.h(k) + h.h(k - 1) * A.d(k)]


def homotopy_lines(E):
    lines = []
    for i, (m, t, h) in enumerate(zip(E.maps, E.monodromies, E.homotopies)):
        lhs = m.compose(t) if E.dual else t.compose(m)
        lines += [f"homotopy {i} fails at degree {k}" for k in failing_degrees(m, lhs, h)]
    return lines


def test_failing_degrees_of_random_triples():
    rng = random.Random(4)
    seen = set()
    for _ in range(60):
        A, B = small_complex(rng, max_len=3), small_complex(rng, max_len=3)
        f, g = random_chain_map(rng, A, B), random_chain_map(rng, A, B)
        h = ChainHomotopy(A, B, {k: int_matrix(rng, B.dim(k + 1), A.dim(k), 1)
                                 for k in A.degrees()})
        want = failing_degrees(f, g, h)
        assert list(homotopy_failures(f, g, h)) == want
        assert check_homotopy(f, g, h) == (not want)
        seen.add(bool(want))
    assert seen == {True, False}


def test_encoding_reports_name_each_failing_degree():
    rng = random.Random(9)
    for _ in range(12):
        for enc in (encode_sheaf(random_disk(rng)), encode_sheaf(random_disk(rng), dual=True),
                    encode_sheaf_flag(random_flag(rng))):
            assert verify_encoding(enc) == []
            bad = tampered_monodromy(enc, rng)
            lines = [p for p in verify_encoding(bad) if p.startswith("homotopy ")]
            assert lines == homotopy_lines(bad) != []


def test_flag_encoding_monodromies_are_the_flag_monodromies():
    rng = random.Random(2)
    for _ in range(15):
        P = random_flag(rng)
        ts = flag_monodromies(P)
        for i, t in enumerate(encode_sheaf_flag(P).monodromies, start=1):
            assert t.comps == {k: ts[k] for k in range(i, P.n + 1) if P.dims[k]}
