"""Shared generators and oracles.

The guiding trick: build every random object from a transparent pattern
whose invariants are true by construction (slot-disjoint elementary
differentials, block projections, paired flags), then conjugate each
graded piece by a random unimodular matrix.  The invariants survive
conjugation, the entries stop looking special, and the pattern keeps an
independent record of the answer (homology dims, monodromy eigenvalues)
that the library code never sees.
"""

from fractions import Fraction
from functools import reduce
import random

from catcx.exactlin import Matrix
from catcx.chain import (ChainComplex, ChainMap, identity_map, tensor,
                         tensor_map, unit_complex, zero_complex, zero_map)
from catcx.perverse import PervDisk, PervFlag, LocalStar, SheafEncoding
from catcx.koszul import RMatrix
from catcx.doldkan import SimplicialVS, gamma
from catcx.laxmat import Delta1ChainMatrix, FinPoset, assoc_inv
from catcx.multicplx import MultiComplex


def unimodular(rng: random.Random, n: int, steps: int = None) -> Matrix:
    """Random product of elementary integer row operations; det = +-1."""
    if n == 0:
        return Matrix.identity(0)
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    if steps is None:
        steps = n + 2
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 2:
            rows[i] = [-a for a in rows[i]]
    return Matrix(n, n, [x for r in rows for x in r])


def int_matrix(rng: random.Random, rows: int, cols: int, bound: int = 3) -> Matrix:
    return Matrix(rows, cols,
                  [rng.randint(-bound, bound) for _ in range(rows * cols)])


def random_complex(rng, max_len=4, max_dim=4, lo_range=(-3, 3)):
    """(complex, homology dims by degree), homology known by construction.

    Pattern: in degree k the first s[k] slots are killed by d_k and the
    next s[k+1] slots are hit by d_{k+1}; everything else survives.
    Conjugating degreewise by unimodular matrices hides the pattern.
    """
    lo = rng.randint(*lo_range)
    hi = lo + rng.randint(0, max_len)
    degs = range(lo, hi + 1)
    dims = {k: rng.randint(0, max_dim) for k in degs}
    s = {k: 0 for k in range(lo, hi + 2)}
    for k in range(hi, lo, -1):
        room = min(dims[k] - s[k + 1], dims[k - 1])
        s[k] = rng.randint(0, room) if room > 0 else 0
    u = {k: unimodular(rng, dims[k]) for k in degs}
    uinv = {k: u[k].invert() for k in degs}
    diffs = {}
    for k in range(lo + 1, hi + 1):
        ent = [Fraction(0)] * (dims[k - 1] * dims[k])
        for i in range(s[k]):
            ent[(s[k - 1] + i) * dims[k] + i] = Fraction(1)
        diffs[k] = u[k - 1] * Matrix(dims[k - 1], dims[k], ent) * uinv[k]
    hdims = {k: dims[k] - s[k] - s[k + 1] for k in degs}
    cx = ChainComplex(lo, hi, tuple(dims[k] for k in degs), diffs)
    return cx, hdims


def random_chain_map(rng, A: ChainComplex, B: ChainComplex, bound: int = 2) -> ChainMap:
    """Uniform-ish sample from the space of chain maps A -> B.

    The commutation constraints are linear in the components, so sample a
    random integer combination of a kernel basis of the constraint system.
    """
    lo = min(A.lo, B.lo)
    hi = max(A.hi, B.hi)
    degs = [k for k in range(lo, hi + 1) if A.dim(k) and B.dim(k)]
    offs = {}
    total = 0
    for k in degs:
        offs[k] = total
        total += B.dim(k) * A.dim(k)
    if total == 0:
        return zero_map(A, B)
    rows = []
    for k in range(lo, hi + 1):
        # d_B(k) f_k - f_{k-1} d_A(k) = 0, an equation per entry
        if B.dim(k - 1) * A.dim(k) == 0:
            continue
        db = B.d(k)
        da = A.d(k)
        for p in range(B.dim(k - 1)):
            for q in range(A.dim(k)):
                row = [Fraction(0)] * total
                if k in offs:
                    for r in range(B.dim(k)):
                        row[offs[k] + r * A.dim(k) + q] += db[p, r]
                if k - 1 in offs:
                    for r in range(A.dim(k - 1)):
                        row[offs[k - 1] + p * A.dim(k - 1) + r] -= da[r, q]
                rows.append(row)
    if not rows:
        vec = [Fraction(rng.randint(-bound, bound)) for _ in range(total)]
    else:
        basis = Matrix(len(rows), total, [x for r in rows for x in r]).kernel_basis()
        if not basis:
            return zero_map(A, B)
        vec = [Fraction(0)] * total
        for w in basis:
            c = rng.randint(-bound, bound)
            if c:
                vec = [a + c * w[i, 0] for i, a in enumerate(vec)]
    comps = {}
    for k in degs:
        ent = vec[offs[k]: offs[k] + B.dim(k) * A.dim(k)]
        comps[k] = Matrix(B.dim(k), A.dim(k), ent)
    return ChainMap(A, B, comps)


def random_disk(rng, max_dim=6, psi=None) -> PervDisk:
    """Rejection sample; id - fg is invertible generically."""
    if psi is None:
        psi = rng.randint(1, max_dim)
    phi = rng.randint(1, max_dim)
    while True:
        f = int_matrix(rng, psi, phi, 2)
        g = int_matrix(rng, phi, psi, 2)
        if (Matrix.identity(psi) - f * g).is_invertible():
            return PervDisk(f, g)


NONUNIT = (-2, -1, 2, 3)


def random_flag(rng, max_n=4, max_dim=5) -> PervFlag:
    """Paired-slot pattern conjugated levelwise.

    Pairing k matches rho[k] slots of level k with slots of level k+1;
    d sends slot to slot, delta sends it back scaled by lambda != 1.  The
    p-slots of pairing k-1 and the q-slots of pairing k are kept disjoint
    inside level k, which gives d.d = delta.delta = 0 slotwise.
    """
    n = rng.randint(1, max_n)
    dims = {k: rng.randint(1, max_dim) for k in range(n + 1)}
    rho = {k: 0 for k in range(n + 1)}
    for k in range(n - 1, -1, -1):
        # p-slots of pairing k share level k+1 with q-slots of pairing k+1
        room = min(dims[k + 1] - rho[k + 1], dims[k])
        rho[k] = rng.randint(0, max(0, room))
    u = {k: unimodular(rng, dims[k]) for k in range(n + 1)}
    uinv = {k: u[k].invert() for k in range(n + 1)}
    d = []
    delta = []
    for k in range(n):
        # level k: slots [rho[k-1] .. rho[k-1]+rho[k]) feed pairing k
        # level k+1: slots [0 .. rho[k]) receive it
        base = rho[k - 1] if k >= 1 else 0
        dent = [Fraction(0)] * (dims[k + 1] * dims[k])
        gent = [Fraction(0)] * (dims[k] * dims[k + 1])
        for i in range(rho[k]):
            lam = Fraction(rng.choice(NONUNIT))
            dent[i * dims[k] + base + i] = Fraction(1)
            gent[(base + i) * dims[k + 1] + i] = lam
        d.append(u[k + 1] * Matrix(dims[k + 1], dims[k], dent) * uinv[k])
        delta.append(u[k] * Matrix(dims[k], dims[k + 1], gent) * uinv[k + 1])
    return PervFlag(tuple(dims[k] for k in range(n + 1)), tuple(d), tuple(delta))


def random_local_star(rng, max_n=3, max_block=3) -> LocalStar:
    """Block model: Phi = n blocks of size p, f_i projects, g_i includes
    into block i plus an invertible leak into block i+1 (cyclically)."""
    n = rng.randint(1, max_n)
    p = rng.randint(1, max_block)
    m = n * p
    u = unimodular(rng, m)
    uinv = u.invert()
    fs = []
    gs = []
    for i in range(n):
        v = unimodular(rng, p)
        proj = Matrix(p, m, [Fraction(1) if c == i * p + r else Fraction(0)
                             for r in range(p) for c in range(m)])
        inc_ent = [Fraction(0)] * (m * p)
        for a in range(p):
            inc_ent[(i * p + a) * p + a] = Fraction(1)
        nxt = (i + 1) % n
        if n > 1:
            # invertible leak into the successor block; when n = 1 the
            # successor is the block itself and f g = id forbids a leak
            c_leak = unimodular(rng, p)
            for a in range(p):
                for b in range(p):
                    inc_ent[(nxt * p + a) * p + b] += c_leak[a, b]
        inc = Matrix(m, p, inc_ent)
        fs.append(v * proj * uinv)
        gs.append(u * inc * v.invert())
    return LocalStar(tuple(fs), tuple(gs))


def random_simplicial(rng, max_len=3, max_dim=3, conjugate=True) -> SimplicialVS:
    """gamma of a random connective complex, optionally conjugated levelwise
    so the degeneracy images are no longer coordinate subspaces."""
    lo = rng.randint(0, 1)
    cx, _ = random_complex(rng, max_len=max_len, max_dim=max_dim,
                           lo_range=(lo, lo))
    N = cx.hi + rng.randint(0, 1)
    X = gamma(cx, N)
    if not conjugate:
        return X
    w = {k: unimodular(rng, X.dims[k]) for k in range(N + 1)}
    winv = {k: w[k].invert() for k in range(N + 1)}
    faces = {n: tuple(w[n - 1] * m * winv[n] for m in X.faces[n])
             for n in range(1, N + 1)}
    degs = {n: tuple(w[n + 1] * m * winv[n] for m in X.degeneracies[n])
            for n in range(N)}
    return SimplicialVS(N, X.dims, faces, degs)


def random_poset(rng, max_size=7) -> FinPoset:
    """Reflexive-transitive closure of a random acyclic relation on a
    shuffled label set."""
    n = rng.randint(1, max_size)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                leq[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    perm = list(range(n))
    rng.shuffle(perm)
    labels = tuple(f"p{i}" for i in range(n))
    shuffled = [[leq[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return FinPoset(labels, tuple(tuple(r) for r in shuffled))


def small_complex(rng, max_len=2, max_dim=2, lo_range=(-1, 1)) -> ChainComplex:
    return random_complex(rng, max_len=max_len, max_dim=max_dim,
                          lo_range=lo_range)[0]


def same_up_to_padding(X: ChainComplex, Y: ChainComplex) -> bool:
    """Equal dims and differentials degreewise, ignoring zero padding."""
    lo = min(X.lo, Y.lo)
    hi = max(X.hi, Y.hi)
    if any(X.dim(k) != Y.dim(k) for k in range(lo, hi + 1)):
        return False
    return all(X.d(k) == Y.d(k) for k in range(lo + 1, hi + 1))


def random_lax_matrix(rng, style=None, g=None) -> Delta1ChainMatrix:
    """Three families of valid Delta^1 chain matrices.

    'corner': E01 = 0, so the structure square is vacuous and the two
    remaining cells are free chain maps.  'augmented': every entry is a
    common complex E and all four cells are built from two augmentations
    G -> Q, which satisfies the square by bifunctoriality.  'spread': the
    augmentations become chain maps phi: G -> U and psi: G -> V, and
    E01 = E, E00 = E (x) V, E11 = U (x) E, E10 = (U (x) E) (x) V, with cells
    phi (x) 1 and 1 (x) psi (rebracketed for f0); the square again holds by
    bifunctoriality.  G, E, U and V are nonzero in degrees 0 and 1, so the
    cells have odd-degree components and E01 feeds the apex of every
    entry span.  With no style given, the draw is 'corner' or 'augmented'.
    """
    if style is None:
        style = rng.choice(("corner", "augmented"))
    if style == "spread":
        def two_term(top):
            a, b = rng.randint(1, top), rng.randint(1, top)
            return ChainComplex(0, 1, (a, b), {1: int_matrix(rng, a, b, 1)})
        G = two_term(2) if g is None else g
        E, U, V = two_term(1), two_term(1), two_term(1)
        phi = random_chain_map(rng, G, U)
        psi = random_chain_map(rng, G, V)
        EV, UE = tensor(E, V), tensor(U, E)
        entries = {(0, 0): EV, (0, 1): E, (1, 0): tensor(UE, V), (1, 1): UE}
        cell_f0 = assoc_inv(U, E, V).compose(tensor_map(phi, identity_map(EV)))
        cell_0f = tensor_map(identity_map(E), psi)
        cell_f1 = tensor_map(phi, identity_map(E))
        cell_1f = tensor_map(identity_map(UE), psi)
        return Delta1ChainMatrix(G, G, entries, cell_f0, cell_0f, cell_f1, cell_1f)
    G = small_complex(rng, lo_range=(0, 1)) if g is None else g
    one = unit_complex()
    if style == "corner":
        zero = zero_complex()
        e00 = small_complex(rng)
        e10 = small_complex(rng)
        e11 = small_complex(rng)
        entries = {(0, 0): e00, (0, 1): zero, (1, 0): e10, (1, 1): e11}
        cell_f0 = random_chain_map(rng, tensor(G, e00), e10)
        cell_0f = zero_map(tensor(zero, G), e00)
        cell_f1 = zero_map(tensor(G, zero), e11)
        cell_1f = random_chain_map(rng, tensor(e11, G), e10)
        return Delta1ChainMatrix(G, G, entries, cell_f0, cell_0f, cell_f1, cell_1f)
    E = small_complex(rng)
    phi = random_chain_map(rng, G, one)
    psi = random_chain_map(rng, G, one)
    entries = {(0, 0): E, (0, 1): E, (1, 0): E, (1, 1): E}
    cell_f0 = tensor_map(phi, identity_map(E))
    cell_0f = tensor_map(identity_map(E), psi)
    cell_f1 = tensor_map(phi, identity_map(E))
    cell_1f = tensor_map(identity_map(E), psi)
    return Delta1ChainMatrix(G, G, entries, cell_f0, cell_0f, cell_f1, cell_1f)


def bicomplex_from_map(f: ChainMap) -> MultiComplex:
    """Two-row multicomplex: row 0 carries the target, row 1 the source,
    axis 2 is the map."""
    A, B = f.source, f.target
    lo1 = min(A.lo, B.lo)
    hi1 = max(A.hi, B.hi)
    dims = {}
    d1 = {}
    d2 = {}
    for k in range(lo1, hi1 + 1):
        dims[(k, 0)] = B.dim(k)
        dims[(k, 1)] = A.dim(k)
        if k > lo1:
            d1[(k, 0)] = B.d(k)
            d1[(k, 1)] = A.d(k)
        d2[(k, 1)] = f.f(k)
    return MultiComplex(2, (lo1, 0), (hi1, 1), dims, {1: d1, 2: d2})


def random_multicomplex(rng, n=2, max_dim=2, max_width=2) -> MultiComplex:
    """Random valid multicomplex built as a tensor box of n complexes.

    dims[a] = prod dims_i[a_i]; d_j acts on factor j alone (Kronecker with
    identities), so the axes commute strictly and each axis squares to 0.
    """
    factors = [small_complex(rng, max_len=max_width, max_dim=max_dim)
               for _ in range(n)]
    lo = tuple(F.lo for F in factors)
    hi = tuple(F.hi for F in factors)
    from itertools import product as iproduct
    dims = {}
    diffs = {j: {} for j in range(1, n + 1)}
    for a in iproduct(*[range(F.lo, F.hi + 1) for F in factors]):
        dims[a] = 1
        for F, x in zip(factors, a):
            dims[a] *= F.dim(x)
    for a in dims:
        for j in range(1, n + 1):
            if a[j - 1] == lo[j - 1]:
                continue
            m = Matrix.identity(1)
            for pos, (F, x) in enumerate(zip(factors, a)):
                blk = F.d(x) if pos == j - 1 else Matrix.identity(F.dim(x))
                m = m.kron(blk)
            diffs[j][a] = m
    return MultiComplex(n, lo, hi, dims, diffs)


def random_unit_box(rng) -> MultiComplex:
    """{0,1}^2 bicomplex built as a box of two 2-term complexes."""
    a = rng.randint(1, 2)
    b = rng.randint(1, 2)
    ma = int_matrix(rng, a, a, 1)
    mb = int_matrix(rng, b, b, 1)
    dims = {(x, y): a * b for x in (0, 1) for y in (0, 1)}
    d1 = {(1, y): ma.kron(Matrix.identity(b)) for y in (0, 1)}
    d2 = {(x, 1): Matrix.identity(a).kron(mb) for x in (0, 1)}
    return MultiComplex(2, (0, 0), (1, 1), dims, {1: d1, 2: d2})
def bump(m, r, c, eps=1):
    """Copy of m with one entry nudged by eps."""
    ents = list(m.entries())
    ents[r * m.cols + c] += eps
    return Matrix(m.rows, m.cols, ents)


def tampered_monodromy(enc, rng):
    """Bump one entry of one monodromy component, leave the rest alone."""
    i = rng.randrange(len(enc.monodromies))
    t = enc.monodromies[i]
    degs = [k for k in t.source.degrees() if t.source.dim(k) > 0]
    k = rng.choice(degs)
    m = t.f(k)
    comps = {d: t.f(d) for d in t.source.degrees()}
    comps[k] = bump(m, rng.randrange(m.rows), rng.randrange(m.cols),
                    rng.choice((-2, -1, 1, 2)))
    monos = list(enc.monodromies)
    monos[i] = ChainMap(t.source, t.target, comps)
    return SheafEncoding(enc.dual, enc.stalks, enc.maps, monos, enc.homotopies)


def tensor_over_r(alg, left, right):
    """Tensor of free R-complexes given as (ranks by degree, diffs by degree).

    Independent of the subset bookkeeping in koszul(): plain left-to-right
    block assembly with d(a (x) b) = da (x) b + (-1)^|a| a (x) db.
    """
    lranks, ldiffs = left
    rranks, rdiffs = right
    degs_l = sorted(lranks)
    degs_r = sorted(rranks)
    lo = degs_l[0] + degs_r[0]
    hi = degs_l[-1] + degs_r[-1]
    ranks = {}
    offsets = {}
    for n in range(lo, hi + 1):
        pos = 0
        for i in degs_l:
            j = n - i
            if j in rranks:
                offsets[(i, j)] = pos
                pos += lranks[i] * rranks[j]
        ranks[n] = pos
    diffs = {}
    for n in range(lo + 1, hi + 1):
        m = RMatrix.zeros(alg, ranks[n - 1], ranks[n])
        for i in degs_l:
            j = n - i
            if j not in rranks:
                continue
            for a in range(lranks[i]):
                for b in range(rranks[j]):
                    col = offsets[(i, j)] + a * rranks[j] + b
                    if (i - 1, j) in offsets and i in ldiffs:
                        dl = ldiffs[i]
                        for a2 in range(lranks[i - 1]):
                            v = dl[a2, a]
                            if v != alg.zero():
                                row = offsets[(i - 1, j)] + a2 * rranks[j] + b
                                m = m.put(row, col, v)
                    if (i, j - 1) in offsets and j in rdiffs:
                        dr = rdiffs[j]
                        for b2 in range(rranks[j - 1]):
                            v = dr[b2, b]
                            if v != alg.zero():
                                if i % 2:
                                    v = tuple(-x for x in v)
                                row = offsets[(i, j - 1)] + a * rranks[j - 1] + b2
                                m = m.put(row, col, v)
        diffs[n] = m
    return ranks, diffs


def koszul_oracle(alg, lambdas):
    """Iterated R-linear tensor of the two-term complexes (R -l-> R)."""
    pieces = []
    for l in lambdas:
        ranks = {0: 1, 1: 1}
        diffs = {1: RMatrix(alg, 1, 1, [alg.element(l)])}
        pieces.append((ranks, diffs))
    return reduce(lambda x, y: tensor_over_r(alg, x, y), pieces)
