"""serialize_document writes the bytes json.dumps wrote, for every type.

`serialize_reference` keeps the previous path: each matrix turned into
lists of rational strings, then `json.dumps(..., sort_keys=True)`.  Random
objects of every document type, with empty matrix shapes, entries inside
and outside the table of small ints, and p/q entries, must serialize to
the same text, compact and with --pretty.  Serializers do not validate, so
the objects need only have consistent shapes.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

import serialize_reference as ref
from catcx.chain import ChainComplex, ChainHomotopy, ChainMap
from catcx.documents import serialize_document
from catcx.doldkan import SimplicialVS
from catcx.exactlin import Matrix
from catcx.koszul import FDAlgebra, FreeKoszulComplex, KoszulSpec
from catcx.laxmat import Delta1ChainMatrix, FinPoset, IntMatrix
from catcx.multicplx import ChainCube, MultiComplex
from catcx.perverse import LocalStar, PervCube, PervDisk, PervFlag, SheafEncoding

ints = st.one_of(st.integers(-3, 3), st.integers(-300, 300), st.integers(-10**30, 10**30))
entries = st.one_of(ints, st.builds(Fraction, st.integers(-10**6, 10**6),
                                    st.integers(1, 10**6)))
dims = st.integers(0, 3)
labels = st.text(max_size=4)  # quotes, backslashes, control and non-ASCII characters


def matrix(draw, rows, cols):
    return Matrix(rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                            max_size=rows * cols)))


@st.composite
def matrices(draw):
    return matrix(draw, draw(dims), draw(dims))


@st.composite
def complexes(draw, lo=None, hi=None):
    lo = draw(st.integers(-3, 2)) if lo is None else lo
    hi = lo + draw(st.integers(0, 2)) if hi is None else hi
    ds = [draw(dims) for _ in range(lo, hi + 1)]
    return ChainComplex(lo, hi, ds, {k: matrix(draw, ds[k - 1 - lo], ds[k - lo])
                                     for k in range(lo + 1, hi + 1)})


def graded(draw, A, B, shift=0):
    lo, hi = min(A.lo, B.lo), max(A.hi, B.hi)
    return {k: matrix(draw, B.dim(k + shift), A.dim(k)) for k in range(lo, hi + 1)}


@st.composite
def chain_maps(draw, A=None, B=None):
    A = draw(complexes()) if A is None else A
    B = draw(complexes()) if B is None else B
    return ChainMap(A, B, graded(draw, A, B))


@st.composite
def chain_homotopies(draw):
    A, B = draw(complexes()), draw(complexes())
    return ChainHomotopy(A, B, graded(draw, A, B, shift=1))


@st.composite
def multicomplexes(draw, box=None):
    n = draw(st.integers(1, 2)) if box is None else box
    lo = [0] * n if box else [draw(st.integers(-1, 1)) for _ in range(n)]
    hi = [1] * n if box else [a + draw(st.integers(0, 1)) for a in lo]
    degs = list(product(*[range(a, b + 1) for a, b in zip(lo, hi)]))
    ds = {a: draw(dims) for a in degs}
    diffs = {}
    for j in range(1, n + 1):
        diffs[j] = {}
        for a in degs:
            if a[j - 1] > lo[j - 1]:
                b = tuple(x - (t == j - 1) for t, x in enumerate(a))
                diffs[j][a] = matrix(draw, ds[b], ds[a])
    return MultiComplex(n, lo, hi, ds, diffs)


@st.composite
def chain_cubes(draw):
    n = draw(st.integers(1, 2))
    subsets = [frozenset(i + 1 for i in range(n) if bits[i])
               for bits in product((0, 1), repeat=n)]
    vertices = {J: draw(complexes(lo=0, hi=1)) for J in subsets}
    edges = {i: {J: draw(chain_maps(vertices[J], vertices[J - {i}]))
                 for J in subsets if i in J} for i in range(1, n + 1)}
    return ChainCube(n, vertices, edges)


@st.composite
def fd_algebras(draw):
    m = draw(st.integers(0, 2))
    vec = st.lists(entries, min_size=m, max_size=m)
    return FDAlgebra(m, [[draw(vec) for _ in range(m)] for _ in range(m)], draw(vec))


@st.composite
def koszul_inputs(draw):
    alg = draw(fd_algebras())
    lams = draw(st.lists(st.lists(entries, min_size=alg.dim, max_size=alg.dim), max_size=3))
    lams = tuple(tuple(Fraction(x) for x in lam) for lam in lams)
    if draw(st.booleans()):
        return KoszulSpec(alg, lams)
    return FreeKoszulComplex(alg, lams, (), {})  # basis and differentials are not written


@st.composite
def perv_disks(draw):
    f = draw(matrices())
    return PervDisk(f, matrix(draw, f.cols, f.rows))


@st.composite
def perv_flags(draw):
    ds = draw(st.lists(dims, min_size=1, max_size=4))
    return PervFlag(tuple(ds), tuple(matrix(draw, ds[k + 1], ds[k]) for k in range(len(ds) - 1)),
                    tuple(matrix(draw, ds[k], ds[k + 1]) for k in range(len(ds) - 1)))


@st.composite
def perv_cubes(draw):
    n = draw(st.integers(1, 2))
    subsets = [frozenset(i + 1 for i in range(n) if bits[i])
               for bits in product((0, 1), repeat=n)]
    ds = {J: draw(dims) for J in subsets}
    f = {i: {J: matrix(draw, ds[J], ds[J | {i}]) for J in subsets if i not in J}
         for i in range(1, n + 1)}
    g = {i: {J: matrix(draw, ds[J | {i}], ds[J]) for J in subsets if i not in J}
         for i in range(1, n + 1)}
    return PervCube(n, ds, f, g)


@st.composite
def local_stars(draw):
    fs = draw(st.lists(matrices(), min_size=1, max_size=3))
    return LocalStar(tuple(fs), tuple(matrix(draw, f.cols, f.rows) for f in fs))


@st.composite
def sheaf_encodings(draw):
    stalks = draw(st.lists(complexes(), min_size=1, max_size=3))
    dual = draw(st.booleans())
    pairs = [(stalks[i + 1], stalks[i]) if dual else (stalks[i], stalks[i + 1])
             for i in range(len(stalks) - 1)]
    maps = [ChainMap(a, b, graded(draw, a, b)) for a, b in pairs]
    monos = [ChainMap(s, s, graded(draw, s, s)) for s in stalks[1:]]
    homos = [ChainHomotopy(a, b, graded(draw, a, b, shift=1)) for a, b in pairs]
    return SheafEncoding(dual, stalks, maps, monos, homos)


@st.composite
def simplicial(draw):
    N = draw(st.integers(0, 2))
    ds = [draw(dims) for _ in range(N + 1)]
    faces = {n: tuple(matrix(draw, ds[n - 1], ds[n]) for _ in range(n + 1))
             for n in range(1, N + 1)}
    degens = {n: tuple(matrix(draw, ds[n + 1], ds[n]) for _ in range(n + 1))
              for n in range(N)}
    return SimplicialVS(N, tuple(ds), faces, degens)


@st.composite
def fin_posets(draw):
    names = draw(st.lists(labels, max_size=4, unique=True))
    n = len(names)
    return FinPoset(tuple(names), tuple(tuple(draw(st.booleans()) for _ in range(n))
                                        for _ in range(n)))


@st.composite
def int_matrices(draw):
    rl, cl = draw(st.lists(labels, max_size=3)), draw(st.lists(labels, max_size=3))
    return IntMatrix(rl, cl, [[draw(ints) for _ in cl] for _ in rl])


@st.composite
def delta1_matrices(draw):
    g_src, g_tgt = draw(complexes()), draw(complexes())
    ents = {(t, s): draw(complexes()) for t in (0, 1) for s in (0, 1)}
    return Delta1ChainMatrix(g_src, g_tgt, ents, *[draw(chain_maps()) for _ in range(4)])


json_leaves = st.one_of(st.none(), st.booleans(), ints, st.floats(), labels)
json_values = st.recursive(
    st.one_of(json_leaves, matrices()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(labels, inner, max_size=3)),
    max_leaves=12)


@st.composite
def result_documents(draw):
    """Documents the command line builds as dicts, matrices as values."""
    doc = draw(st.dictionaries(labels, json_values, max_size=4))
    doc["type"] = draw(st.sampled_from(["report", "homology", "monodromy", "koszul_duality"]))
    return doc


DOCUMENTS = st.one_of(
    matrices(), complexes(), chain_maps(), chain_homotopies(), multicomplexes(),
    chain_cubes(), fd_algebras(), koszul_inputs(), perv_disks(), perv_flags(),
    perv_cubes(), local_stars(), sheaf_encodings(), simplicial(), fin_posets(),
    int_matrices(), delta1_matrices(), result_documents())


@settings(max_examples=400, deadline=None)
@given(doc=DOCUMENTS, pretty=st.booleans())
def test_every_document_type_writes_the_reference_bytes(doc, pretty):
    assert serialize_document(doc, pretty=pretty) == ref.serialize_document(doc, pretty=pretty)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 4), cols=st.integers(0, 4), data=st.data(), pretty=st.booleans())
def test_matrix_shapes_and_entries(rows, cols, data, pretty):
    """Empty shapes, and every entry kind in one matrix: the small-int
    table, ints past it, ints of many digits and p/q."""
    m = matrix(data.draw, rows, cols)
    doc = {"type": "report", "m": m, "nested": [m, {"again": m}]}
    for obj in (m, doc):
        assert serialize_document(obj, pretty=pretty) == ref.serialize_document(obj, pretty=pretty)


def test_zero_shapes_written_as_json_dumps_writes_them():
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        m = Matrix.zeros(rows, cols)
        for pretty in (False, True):
            assert serialize_document(m, pretty) == ref.serialize_document(m, pretty)
