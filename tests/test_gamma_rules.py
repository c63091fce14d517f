"""gamma builds each face and degeneracy from its own rule.

A face d_i drops position i of a summand's surjection eta, and a
degeneracy s_i repeats it.  The generic map they replaced, which factors
eta . alpha in the simplex category for every structure map alpha, is kept
in `gamma_reference.py`: on seeded connective complexes with zero degrees
and absent differentials, truncated below and above their top degree,
both must build the same simplicial object, written to the same bytes.
"""

import random

import pytest

from catcx.chain import ChainComplex
from catcx.documents import serialize_document
from catcx.doldkan import gamma
from catcx.exactlin import DimensionError, Matrix
from helpers import random_complex
import gamma_reference as ref


def _cases(seed: int, count: int):
    """(C, N) with lo in 0..2, dims 0..3, some differentials dropped and
    N in 0..6."""
    rng = random.Random(seed)
    for _ in range(count):
        C, _ = random_complex(rng, max_len=4, max_dim=3, lo_range=(0, 2))
        kept = {k: m for k, m in C.diffs.items() if rng.random() < 0.7}
        yield ChainComplex(C.lo, C.hi, C.dims, kept), rng.randint(0, 6)


def test_rules_build_the_factored_maps():
    seen = {"hi above N": 0, "hi below N": 0, "zero degree": 0, "dropped differential": 0}
    for C, N in _cases(2401, 320):
        got, want = gamma(C, N), ref.gamma(C, N)
        assert got == want
        assert serialize_document(got) == serialize_document(want)
        seen["hi above N"] += C.hi > N
        seen["hi below N"] += C.hi < N
        seen["zero degree"] += 0 in C.dims
        seen["dropped differential"] += any(
            C.dim(k - 1) and C.dim(k) and k not in C.diffs for k in range(C.lo + 1, C.hi + 1))
    assert all(n >= 20 for n in seen.values()), seen


def test_identities_only_below_the_level(monkeypatch):
    # degrees above N carry no summand of Gamma_0..Gamma_N, so a tall complex
    # truncated low must not build their identity blocks
    sizes = []
    identity = Matrix.identity.__func__

    def counted(cls, n):
        sizes.append(n)
        return identity(cls, n)

    monkeypatch.setattr(Matrix, "identity", classmethod(counted))
    C = ChainComplex(0, 40, tuple(range(1, 42)))
    X = gamma(C, 1)
    assert sorted(sizes) == [1, 2]
    assert X.dims == (1, 1 + 2)


@pytest.mark.parametrize("lo, N", [(-1, 2), (0, -1)])
def test_refusals_are_the_same(lo, N):
    C = ChainComplex(lo, lo + 1, (1, 1))
    with pytest.raises(DimensionError) as got:
        gamma(C, N)
    with pytest.raises(DimensionError) as want:
        ref.gamma(C, N)
    assert str(got.value) == str(want.value)
