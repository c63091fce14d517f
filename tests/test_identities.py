"""Identities of homological algebra as independent oracles.

A check against the code a rewrite replaced cannot catch an error the old
code already had; these read the package against the mathematics instead
(Weibel, An Introduction to Homological Algebra, 1994, 1.2 and 2.7).

* Hom: h is a homotopy from f to g exactly when the twisted coordinates of
  g - f in Map(A, B)_0 are the boundary of h's twisted coordinates in
  Map(A, B)_1.  This ties `check_homotopy` to `hom_complex` and to the
  places `hom_element` reads.
* Cone: for f: A -> B with cone C, the inclusion iota_k of A_k as the apex
  part of C_{k+1} satisfies d iota + iota d = -(from_target . f), so
  -iota is a homotopy from 0 to from_target . f, and +iota is one only
  where that map is zero.  This pins the sign of the cone.
* Tensor: A (x) B is the total complex of the double complex A_i (x) B_j
  with d_1 = d_A (x) 1 and d_2 = 1 (x) d_B (Weibel 2.7), built here with
  `Matrix.kron` and totalized by `multicplx.totalize`, whose sign
  (-1)^i on d_2 must be the sign `tensor` gives a (x) db.
* Lax composition is associative up to quasi-isomorphism: the entries of
  (N . M) . L and N . (M . L) have the same homology in every degree.
* The long exact sequence of f: A -> B (Weibel 1.5.2) splits into
  dim H_k(cone f) = (h_k(B) - r_k) + (h_{k-1}(A) - r_{k-1}), where r_k is
  the rank of H_k(f), computed here from cycles and boundaries alone; and
  fib f = (cone f)[-1].  For a span B <-p- A -q-> C, Mayer-Vietoris is the
  same sequence for (p, -q): A -> B (+) C, whose cone is `hpushout`.
"""

import json
import random
from fractions import Fraction

from catcx.chain import (ChainComplex, ChainHomotopy, ChainMap, check_homotopy, cone,
                         hom_complex, hom_element, homology_dims, inclusion, tensor,
                         validate_complex, zero_map)
from catcx.cli import run
from catcx.documents import serialize_document
from catcx.exactlin import Matrix
from catcx.laxmat import Span, fib, hpushout, lax_compose_delta1
from catcx.multicplx import MultiComplex, totalize
from helpers import int_matrix, random_chain_map, random_complex, random_lax_matrix, small_complex
from test_chain import twist


def some_homotopy(rng, A, B) -> ChainHomotopy:
    return ChainHomotopy(A, B, {k: int_matrix(rng, B.dim(k + 1), n) for k, n in A.support
                                if rng.random() < 0.8})


def boundary(h: ChainHomotopy) -> ChainMap:
    """d h + h d, degree by degree."""
    A, B = h.source, h.target
    return ChainMap(A, B, {k: B.d(k + 1) * h.h(k) + h.h(k - 1) * A.d(k)
                           for k in range(A.lo, A.hi + 1)})


def tampered(rng, f: ChainMap) -> ChainMap:
    """f with one entry of one nonzero component moved by 1, or f itself
    when every component is empty."""
    degrees = [k for k, n in f.source.support if f.target.dim(k)]
    if not degrees:
        return f
    k = rng.choice(degrees)
    m = f.f(k)
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    bump = Matrix.monomial(m.rows, [-1] * c + [r] + [-1] * (m.cols - c - 1))
    return f + ChainMap(f.source, f.target, {k: bump})


def test_homotopies_are_the_hom_boundaries():
    rng = random.Random(2706)
    held = failed = 0
    for case in range(450):
        A, _ = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))
        B, _ = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))
        f, h = random_chain_map(rng, A, B), some_homotopy(rng, A, B)
        g = f + boundary(h)
        if case % 3 == 1:
            g = tampered(rng, g)
        elif case % 3 == 2:  # another homotopy, often with the same boundary
            h = some_homotopy(rng, A, B)
        H = hom_complex(A, B)
        twisted_h = {k: m.scale(-1 if k % 2 else 1) for k, m in h.comps.items()}
        is_boundary = (hom_element(A, B, 0, twist(g - f))
                       == H.d(1) * hom_element(A, B, 1, twisted_h))
        assert check_homotopy(f, g, h) == is_boundary
        held += is_boundary
        failed += not is_boundary
    assert held >= 150 and failed >= 100, (held, failed)


def test_the_cone_inclusion_of_the_source_is_a_null_homotopy():
    rng = random.Random(2707)
    nonzero = 0
    for _ in range(300):
        A, _ = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))
        B, _ = random_complex(rng, max_len=3, max_dim=3, lo_range=(-1, 1))
        f = random_chain_map(rng, A, B)
        c = cone(f)
        C, through = c.complex, c.from_target.compose(f)
        iota = {k: inclusion(C.dim(k + 1), 0, n) for k, n in A.support}
        zero = zero_map(A, C)
        assert check_homotopy(zero, through, ChainHomotopy(A, C, {k: -m for k, m in iota.items()}))
        is_zero = through == zero
        assert check_homotopy(zero, through, ChainHomotopy(A, C, iota)) == is_zero
        nonzero += not is_zero
    assert nonzero >= 100, nonzero


def rational_complex(rng) -> ChainComplex:
    """A seeded complex with p/q entries and often a zero-dimensional degree:
    each differential of a random complex scaled by its own nonzero p/q."""
    C, _ = random_complex(rng, max_len=3, max_dim=3, lo_range=(-2, 2))
    scale = {k: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4)) for k in C.diffs}
    return ChainComplex(C.lo, C.hi, C.dims, {k: m.scale(scale[k]) for k, m in C.diffs.items()})


def double_complex(A: ChainComplex, B: ChainComplex) -> MultiComplex:
    """A_i (x) B_j at (i, j), d_1 = d_A (x) 1 and d_2 = 1 (x) d_B, with no signs."""
    one = Matrix.identity
    return MultiComplex(2, (A.lo, B.lo), (A.hi, B.hi),
                        {(i, j): A.dim(i) * B.dim(j) for i in A.degrees() for j in B.degrees()},
                        {1: {(i, j): A.d(i).kron(one(B.dim(j)))
                             for i in A.degrees() if i > A.lo for j in B.degrees()},
                         2: {(i, j): one(A.dim(i)).kron(B.d(j))
                             for i in A.degrees() for j in B.degrees() if j > B.lo}})


def test_tensor_is_the_total_complex_of_the_double_complex():
    rng = random.Random(2908)
    signed = zero_degrees = 0
    for _ in range(200):
        A, B = rational_complex(rng), rational_complex(rng)
        assert tensor(A, B) == totalize(double_complex(A, B))
        signed += any(k % 2 for k, n in A.support) and bool(B.diffs)
        zero_degrees += 0 in A.dims + B.dims
    assert signed >= 60 and zero_degrees >= 60, (signed, zero_degrees)


def test_lax_composition_is_associative_up_to_quasi_isomorphism():
    rng = random.Random(2909)
    nonzero = 0
    for _ in range(150):
        G = small_complex(rng, lo_range=(0, 1))
        N, M, L = (random_lax_matrix(rng, g=G) for _ in range(3))
        left = lax_compose_delta1(lax_compose_delta1(N, M), L)
        right = lax_compose_delta1(N, lax_compose_delta1(M, L))
        for key in left.entries:
            h = {k: n for k, n in homology_dims(left.entries[key]).items() if n}
            assert h == {k: n for k, n in homology_dims(right.entries[key]).items() if n}, key
            nonzero += bool(h)
    assert nonzero >= 150, nonzero


def rational_map(rng, A: ChainComplex, B: ChainComplex) -> ChainMap:
    """A seeded chain map A -> B scaled by a nonzero p/q."""
    c = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
    return ChainMap(A, B, {k: m.scale(c) for k, m in random_chain_map(rng, A, B).comps.items()})


def cycles(C: ChainComplex, k: int) -> Matrix:
    """A basis of Z_k(C), as the columns of one matrix."""
    basis = C.d(k).kernel_basis()
    return Matrix.block([basis]) if basis else Matrix.zeros(C.dim(k), 0)


def homology_rank(image_of_cycles: Matrix, boundaries: Matrix) -> int:
    """The rank of a map on H_k: the span of the images of the source's
    cycles, modulo the target's boundaries."""
    return image_of_cycles.hstack(boundaries).rank() - boundaries.rank()


def induced_ranks(f: ChainMap, degrees: range) -> dict:
    """r_k = rank H_k(f) for each k in degrees."""
    A, B = f.source, f.target
    return {k: homology_rank(f.f(k) * cycles(A, k), B.d(k + 1)) for k in degrees}


def h(C: ChainComplex, k: int) -> int:
    return homology_dims(C).get(k, 0)


def window(*Cs: ChainComplex) -> range:
    """Every degree where a complex of Cs or a cone of them can be nonzero."""
    return range(min(C.lo for C in Cs) - 1, max(C.hi for C in Cs) + 3)


def test_the_cone_and_the_fiber_split_the_long_exact_sequence():
    rng = random.Random(3001)
    induced = 0
    for _ in range(300):
        A, B = rational_complex(rng), rational_complex(rng)
        f = rational_map(rng, A, B)
        r = induced_ranks(f, window(A, B))
        C, F = cone(f).complex, fib(f)[0]
        assert validate_complex(C) == validate_complex(F) == []
        for k in window(A, B)[1:-1]:
            assert h(C, k) == h(B, k) - r[k] + h(A, k - 1) - r[k - 1], k
            assert h(F, k) == h(A, k) - r[k] + h(B, k + 1) - r[k + 1], k
        induced += any(r.values())
    assert induced >= 75, induced


def test_the_homotopy_pushout_satisfies_mayer_vietoris():
    rng = random.Random(3002)
    induced = 0
    for _ in range(250):
        A, B, C = rational_complex(rng), rational_complex(rng), rational_complex(rng)
        p, q = rational_map(rng, A, B), rational_map(rng, A, C)
        P = hpushout(Span(p, q)).cx
        assert validate_complex(P) == []
        r = {}
        for k in window(A, B, C):
            Z = cycles(A, k)
            pq = Matrix.block([[p.f(k) * Z], [-(q.f(k) * Z)]])
            bounds = Matrix.block([[B.d(k + 1), Matrix.zeros(B.dim(k), C.dim(k + 1))],
                                   [Matrix.zeros(C.dim(k), B.dim(k + 1)), C.d(k + 1)]])
            r[k] = homology_rank(pq, bounds)
        for k in window(A, B, C)[1:-1]:
            assert h(P, k) == h(B, k) + h(C, k) - r[k] + h(A, k - 1) - r[k - 1], k
        induced += any(r.values())
    assert induced >= 75, induced


def test_catcx_cone_then_homology_splits_the_long_exact_sequence(tmp_path, capsys):
    rng = random.Random(3003)
    f_doc, cone_doc = tmp_path / "f.json", tmp_path / "cone.json"
    for _ in range(12):
        A, B = rational_complex(rng), rational_complex(rng)
        f = rational_map(rng, A, B)
        f_doc.write_text(serialize_document(f))
        assert run(["cone", str(f_doc), "--output", str(cone_doc)]) == 0
        assert run(["homology", str(cone_doc)]) == 0
        dims = {int(k): v for k, v in json.loads(capsys.readouterr().out)["dims"].items()}
        r = induced_ranks(f, window(A, B))
        for k in window(A, B)[1:-1]:
            assert dims.get(k, 0) == h(B, k) - r[k] + h(A, k - 1) - r[k - 1], k
