"""The sheaf-side disk encoding is the flag encoding of the disk as the
flag Phi -f-> Psi, Psi -g-> Phi (n = 1), and a singular monodromy is
reported once per singular degree, by `verify_encoding` and by
`catcx verify-encoding` alike.

The reference below is the sheaf-side branch `encode_sheaf` carried
before it called the flag encoding.
"""

import json
import random

from catcx.chain import ChainComplex, ChainHomotopy, ChainMap
from catcx.cli import run
from catcx.documents import serialize_document
from catcx.exactlin import Matrix
from catcx.perverse import (PervDisk, PervFlag, SheafEncoding, encode_sheaf, encode_sheaf_flag,
                            verify_encoding)
from helpers import int_matrix, random_disk


def disk_encoding(P: PervDisk) -> SheafEncoding:
    f, g = P.f, P.g
    t = Matrix.identity(P.dim_psi) - f * g
    f0 = ChainComplex(0, 1, (P.dim_phi, P.dim_psi), {1: g})
    f1 = ChainComplex(1, 1, (P.dim_psi,))
    res = ChainMap(f0, f1, {1: Matrix.identity(P.dim_psi)})
    mono = ChainMap(f1, f1, {1: t})
    htp = ChainHomotopy(f0, f1, {0: -f})
    return SheafEncoding(False, [f0, f1], [res], [mono], [htp])


def test_disk_encoding_is_the_flag_encoding():
    rng = random.Random(15)
    disks = [random_disk(rng) for _ in range(300)]
    # singular and empty disks too: encoding does not check regularity
    for psi, phi in ((1, 1), (2, 3), (0, 2), (2, 0), (0, 0)):
        disks.append(PervDisk(int_matrix(rng, psi, phi, 2), int_matrix(rng, phi, psi, 2)))
    for P in disks:
        want = disk_encoding(P)
        flag = encode_sheaf_flag(PervFlag((P.dim_phi, P.dim_psi), (P.f,), (P.g,)))
        got = encode_sheaf(P)
        assert got == want == flag
        assert serialize_document(got) == serialize_document(want) == serialize_document(flag)


# A_1 = Q^2 with T_1 = diag(1 - 1, 1 - 2) singular; T_2 = 1 - 2 on A_2 is not
SINGULAR_IN_ONE_DEGREE = PervFlag(
    (1, 2, 1),
    (Matrix(2, 1, [1, 0]), Matrix(1, 2, [0, 1])),
    (Matrix(1, 2, [1, 0]), Matrix(2, 1, [0, 2])))


def test_singular_monodromy_is_reported_per_degree(tmp_path, capsys):
    enc = encode_sheaf_flag(SINGULAR_IN_ONE_DEGREE)
    assert [m.f(k).is_invertible() for m in enc.monodromies for k in m.source.degrees()] \
        == [False, True, True]
    want = ["monodromy 0 singular in degree 1"]
    assert verify_encoding(enc) == want

    path = tmp_path / "enc.json"
    path.write_text(serialize_document(enc), encoding="utf-8")
    code = run(["verify-encoding", str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert json.loads(out) == {"type": "report", "doc_type": "sheaf_encoding",
                               "valid": False, "problems": want}


def test_empty_monodromy_components_are_invertible():
    # Psi = 0: the monodromy is the 0 x 0 matrix in degree 1
    enc = encode_sheaf(PervDisk(Matrix(0, 2, []), Matrix(2, 0, [])))
    assert enc.monodromies[0].f(1).rows == 0
    assert verify_encoding(enc) == []
    singular = encode_sheaf(PervDisk(Matrix(1, 1, [1]), Matrix(1, 1, [1])))
    assert verify_encoding(singular) == ["monodromy 0 singular in degree 1"]
