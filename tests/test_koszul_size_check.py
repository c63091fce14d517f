"""One size check for Koszul inputs, at parse time: every oversized or empty
lambda list exits 2 with one `error: $.lambdas: ...` line.

The probes run in a capped child (`test_derived_dims.run_capped`): a list
too long for C(n, n/2) to be printed, or even worked out quickly, the zero
algebra (whose dimension bound reads 0 whatever n is), and no lambdas.
"""

import json
from math import comb

import pytest

from catcx.documents import DocumentError
from catcx.koszul import _check_koszul_size
from test_derived_dims import run_capped

Q = {"type": "fd_algebra", "dim": 1, "structure": [[["1"]]], "unit": ["1"]}
ZERO = {"type": "fd_algebra", "dim": 0, "structure": [], "unit": []}


def _write(tmp_path, algebra, lambdas):
    f = tmp_path / "k.json"
    f.write_text(json.dumps({"type": "koszul_complex", "algebra": algebra,
                             "lambdas": lambdas}), encoding="utf-8")
    return f


PROBES = [
    # (algebra, n, lambda, the error after "error: $.lambdas: ", seconds allowed)
    (Q, 15_000, ["1"], "15000 lambdas over a 1-dimensional algebra imply a degree of "
     "dimension over 10^100, which exceeds CATCX_MAX_DIM=512", 1),
    (Q, 10 ** 6, ["1"], "1000000 lambdas over a 1-dimensional algebra imply a degree of "
     "dimension over 10^100, which exceeds CATCX_MAX_DIM=512", 2),
    (ZERO, 20, [], "20 lambdas imply 184756 basis subsets in degree 10, "
     "which exceeds CATCX_MAX_DIM=512", 1),
    (ZERO, 40, [], "40 lambdas imply 137846528820 basis subsets in degree 20, "
     "which exceeds CATCX_MAX_DIM=512", 1),
    (Q, 0, ["1"], "need at least one lambda", 1),
]


@pytest.mark.parametrize("command", ["validate", "koszul", "koszul-dual"])
@pytest.mark.parametrize("algebra, n, lam, message, seconds", PROBES,
                         ids=["q-15000", "q-10^6", "zero-20", "zero-40", "empty"])
def test_probe_exits_2_fast(tmp_path, command, algebra, n, lam, message, seconds):
    f = _write(tmp_path, algebra, [lam] * n)
    result, out, errors = run_capped(command, str(f))
    assert result["code"] == 2
    assert out == ""
    assert errors == [f"error: $.lambdas: {message}"]
    assert result["seconds"] < seconds


def test_the_zero_algebra_runs_up_to_the_cap(tmp_path):
    # C(11, 5) = 462 subsets are admitted, C(12, 6) = 924 are not
    result, out, _ = run_capped("koszul-dual", str(_write(tmp_path, ZERO, [[]] * 11)))
    assert result["code"] == 0 and json.loads(out)["n"] == 11
    result, out, errors = run_capped("koszul", str(_write(tmp_path, ZERO, [[]] * 12)))
    assert (result["code"], out) == (2, "")
    assert errors == ["error: $.lambdas: 12 lambdas imply 924 basis subsets in degree 6, "
                      "which exceeds CATCX_MAX_DIM=512"]


def _reference(n, dim, cap):
    """The check worked out from C(n, n // 2) itself: None, or the message."""
    if n == 0:
        return "need at least one lambda"
    subsets = comb(n, n // 2)
    largest = subsets * dim if dim else subsets
    if largest <= cap:
        return None
    shown = largest if largest < 10 ** 100 else "over 10^100"
    if dim:
        return (f"{n} lambdas over a {dim}-dimensional algebra imply a degree of "
                f"dimension {shown}, which exceeds CATCX_MAX_DIM={cap}")
    return f"{n} lambdas imply {shown} basis subsets in degree {n // 2}, " \
           f"which exceeds CATCX_MAX_DIM={cap}"


@pytest.mark.parametrize("cap", [0, 1, 6, 512, 10 ** 99, 10 ** 100, 10 ** 120],
                         ids=["0", "1", "6", "512", "10^99", "10^100", "10^120"])
@pytest.mark.parametrize("dim", [0, 1, 3])
def test_the_shortcut_on_n_agrees_with_the_binomial(cap, dim):
    # n runs past the point where 2^n / (n + 1) alone exceeds max(cap, 10^100)
    for n in range(0, 460):
        try:
            _check_koszul_size(n, dim, cap, "$.lambdas")
            got = None
        except DocumentError as e:
            assert e.path == "$.lambdas"
            got = str(e).removeprefix("$.lambdas: ")
        assert got == _reference(n, dim, cap), n
