"""Linear models of perverse sheaves and their sheaf-theoretic encodings.

Four quiver-type models, all over Q with exact invertibility checks:

  PervDisk    (Phi, Psi, f: Phi -> Psi, g: Psi -> Phi), id - fg invertible.
              Monodromies T_Psi = id - fg, T_Phi = id - gf.
  PervFlag    A_0 .. A_n with d raising and delta lowering the index,
              d.d = delta.delta = 0, and id - d delta, id - delta d
              invertible at every level.
  PervCube    spaces V_J for J inside {1..n}, maps f_i: V_{J+i} -> V_J and
              g_i: V_J -> V_{J+i}, each family commuting, mixed composites
              commuting, and g_i f_i - id, f_i g_i - id invertible.
  LocalStar   one Phi with n pairs (f_i, g_i) through Psi_i, f_i g_i = id,
              f_{i+1} g_i invertible (cyclically), f_j g_i = 0 otherwise.

amalgamate glues two disks over a common Psi; the new monodromy is the
product of the old ones, which is the basic gluing identity the test suite
exercises at scale.

The encodings turn a disk or flag into stalk complexes, restriction (or
corestriction) chain maps, monodromies, and explicit homotopies making the
monodromy act trivially on the nearby part.  Chain-degree conventions: the
disk sheaf puts Psi in degree 1 and Phi in degree 0; the flag stalk at
index i is A_n -> ... -> A_i with A_k in chain degree k.  verify_encoding
replays every axiom from scratch, so a single tampered entry is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .exactlin import DimensionError, Matrix
from .chain import ChainComplex, ChainMap, ChainHomotopy, validate_complex


@dataclass(frozen=True)
class PervDisk:
    f: Matrix  # Phi -> Psi
    g: Matrix  # Psi -> Phi

    @property
    def dim_phi(self) -> int:
        return self.f.cols

    @property
    def dim_psi(self) -> int:
        return self.f.rows


def validate_disk(P: PervDisk) -> List[str]:
    report = []
    if P.g.rows != P.f.cols or P.g.cols != P.f.rows:
        report.append("f and g shapes are not transposed-compatible")
        return report
    t = Matrix.identity(P.dim_psi) - P.f * P.g
    if not t.is_invertible():
        report.append("id - f g is singular")
    return report


def disk_monodromies(P: PervDisk) -> Tuple[Matrix, Matrix]:
    """(T_Psi, T_Phi) = (id - f g, id - g f)."""
    t_psi = Matrix.identity(P.dim_psi) - P.f * P.g
    t_phi = Matrix.identity(P.dim_phi) - P.g * P.f
    return t_psi, t_phi


def amalgamate(P: PervDisk, Q: PervDisk) -> PervDisk:
    """Glue two disks along a shared Psi.

    Phi_new = Phi (+) Phi', f_new = (f | f'), g_new = (g T'; g') where
    T' = id - f' g'.  Then id - f_new g_new = (id - f g)(id - f' g').
    """
    if P.dim_psi != Q.dim_psi:
        raise DimensionError("amalgamation requires equal Psi dimensions")
    t_prime = Matrix.identity(Q.dim_psi) - Q.f * Q.g
    f_new = P.f.hstack(Q.f)
    g_new = (P.g * t_prime).vstack(Q.g)
    return PervDisk(f_new, g_new)


@dataclass(frozen=True)
class PervFlag:
    """Spaces A_0..A_n; d[k]: A_k -> A_{k+1}, delta[k]: A_{k+1} -> A_k."""

    dims: Tuple[int, ...]
    d: Tuple[Matrix, ...]
    delta: Tuple[Matrix, ...]

    @property
    def n(self) -> int:
        return len(self.dims) - 1


def validate_flag(P: PervFlag) -> List[str]:
    report = []
    n = P.n
    if len(P.d) != n or len(P.delta) != n:
        report.append("need exactly n maps in each direction")
        return report
    for k in range(n):
        if (P.d[k].rows, P.d[k].cols) != (P.dims[k + 1], P.dims[k]):
            report.append(f"d[{k}] has the wrong shape")
            return report
        if (P.delta[k].rows, P.delta[k].cols) != (P.dims[k], P.dims[k + 1]):
            report.append(f"delta[{k}] has the wrong shape")
            return report
    for k in range(n - 1):
        if not (P.d[k + 1] * P.d[k]).is_zero():
            report.append(f"d.d != 0 at index {k}")
        if not (P.delta[k] * P.delta[k + 1]).is_zero():
            report.append(f"delta.delta != 0 at index {k}")
    for k in range(n):
        if not (Matrix.identity(P.dims[k + 1]) - P.d[k] * P.delta[k]).is_invertible():
            report.append(f"id - d delta singular at level {k + 1}")
        if not (Matrix.identity(P.dims[k]) - P.delta[k] * P.d[k]).is_invertible():
            report.append(f"id - delta d singular at level {k}")
    return report


def flag_monodromies(P: PervFlag) -> List[Matrix]:
    """T_k = id - d delta - delta d on A_k, absent terms read as zero."""
    out = []
    for k in range(P.n + 1):
        t = Matrix.identity(P.dims[k])
        if k >= 1:
            t = t - P.d[k - 1] * P.delta[k - 1]
        if k < P.n:
            t = t - P.delta[k] * P.d[k]
        out.append(t)
    return out


def flag_factorization_checks(P: PervFlag) -> bool:
    """id - d delta - delta d = (id - d delta)(id - delta d), both orders,
    degreewise.  This is the exact identity the flag validator certifies."""
    ts = flag_monodromies(P)
    for k in range(P.n + 1):
        ident = Matrix.identity(P.dims[k])
        a = ident - (P.d[k - 1] * P.delta[k - 1] if k >= 1 else Matrix.zeros(P.dims[k], P.dims[k]))
        b = ident - (P.delta[k] * P.d[k] if k < P.n else Matrix.zeros(P.dims[k], P.dims[k]))
        if ts[k] != a * b or ts[k] != b * a:
            return False
    return True


def flag_to_disk(P: PervFlag) -> PervDisk:
    """n = 1 flags are exactly disks: Phi = A_0, Psi = A_1, f = d, g = delta."""
    if P.n != 1:
        raise DimensionError("only n = 1 flags are disks")
    return PervDisk(P.d[0], P.delta[0])


Subset = FrozenSet[int]


@dataclass
class PervCube:
    """n-cube model; keys of dims are frozensets of {1..n}."""

    n: int
    dims: Dict[Subset, int]
    f: Dict[int, Dict[Subset, Matrix]]  # f[i][J]: V_{J+i} -> V_J   (i not in J)
    g: Dict[int, Dict[Subset, Matrix]]  # g[i][J]: V_J -> V_{J+i}

    def dim(self, J) -> int:
        return self.dims.get(frozenset(J), 0)

    def fmap(self, i: int, J) -> Matrix:
        return self.f[i][frozenset(J)]

    def gmap(self, i: int, J) -> Matrix:
        return self.g[i][frozenset(J)]


def _cube_subsets(n: int) -> List[Subset]:
    from itertools import product
    out = []
    for bits in product((0, 1), repeat=n):
        out.append(frozenset(i + 1 for i in range(n) if bits[i]))
    return out


def validate_cube(P: PervCube) -> List[str]:
    report = []
    subs = _cube_subsets(P.n)
    for J in subs:
        for i in range(1, P.n + 1):
            if i in J:
                continue
            base = frozenset(J)
            fi = P.f.get(i, {}).get(base)
            gi = P.g.get(i, {}).get(base)
            if fi is None or gi is None:
                report.append(f"missing f_{i} or g_{i} at {sorted(J)}")
                continue
            if (fi.rows, fi.cols) != (P.dim(J), P.dim(J | {i})):
                report.append(f"f_{i} at {sorted(J)} has the wrong shape")
            if (gi.rows, gi.cols) != (P.dim(J | {i}), P.dim(J)):
                report.append(f"g_{i} at {sorted(J)} has the wrong shape")
    if report:
        return report
    for J in subs:
        for i in range(1, P.n + 1):
            for j in range(i + 1, P.n + 1):
                if i in J or j in J:
                    continue
                # f_i f_j = f_j f_i : V_{J+i+j} -> V_J
                if P.fmap(i, J) * P.fmap(j, J | {i}) != P.fmap(j, J) * P.fmap(i, J | {j}):
                    report.append(f"f_{i} f_{j} != f_{j} f_{i} at {sorted(J)}")
                # g_i g_j = g_j g_i : V_J -> V_{J+i+j}
                if P.gmap(i, J | {j}) * P.gmap(j, J) != P.gmap(j, J | {i}) * P.gmap(i, J):
                    report.append(f"g_{i} g_{j} != g_{j} g_{i} at {sorted(J)}")
                # g_i f_j = f_j g_i : V_{J+j} -> V_{J+i}
                if P.gmap(i, J) * P.fmap(j, J) != P.fmap(j, J | {i}) * P.gmap(i, J | {j}):
                    report.append(f"g_{i} f_{j} != f_{j} g_{i} at {sorted(J)}")
    for J in subs:
        for i in range(1, P.n + 1):
            if i in J:
                continue
            gf = P.gmap(i, J) * P.fmap(i, J) - Matrix.identity(P.dim(J | {i}))
            fg = P.fmap(i, J) * P.gmap(i, J) - Matrix.identity(P.dim(J))
            if not gf.is_invertible():
                report.append(f"g_{i} f_{i} - id singular at {sorted(J)}")
            if not fg.is_invertible():
                report.append(f"f_{i} g_{i} - id singular at {sorted(J)}")
    return report


def flag_embed_cube(P: PervFlag) -> PervCube:
    """Place A_k at the initial-segment vertex {1..k}, zero elsewhere.

    The cube maps out of nonzero vertices are f_{k} = delta_{k-1} and
    g_{k} = d_{k-1} on the spine; everything touching a zero vertex is a
    zero matrix.  The commutation squares through zero vertices hold
    precisely because d.d = delta.delta = 0.
    """
    n = P.n
    dims: Dict[Subset, int] = {}
    for J in _cube_subsets(n):
        k = len(J)
        dims[J] = P.dims[k] if J == frozenset(range(1, k + 1)) else 0
    f: Dict[int, Dict[Subset, Matrix]] = {i: {} for i in range(1, n + 1)}
    g: Dict[int, Dict[Subset, Matrix]] = {i: {} for i in range(1, n + 1)}
    for J in _cube_subsets(n):
        for i in range(1, n + 1):
            if i in J:
                continue
            src = dims[J | {i}]
            tgt = dims[J]
            spine = J == frozenset(range(1, len(J) + 1)) and i == len(J) + 1
            if spine:
                f[i][J] = P.delta[len(J)]
                g[i][J] = P.d[len(J)]
            else:
                f[i][J] = Matrix.zeros(tgt, src)
                g[i][J] = Matrix.zeros(src, tgt)
    return PervCube(n, dims, f, g)


@dataclass(frozen=True)
class LocalStar:
    """One Phi, cyclically indexed Psi_1..Psi_n."""

    f: Tuple[Matrix, ...]  # f[i]: Phi -> Psi_{i+1}
    g: Tuple[Matrix, ...]  # g[i]: Psi_{i+1} -> Phi

    @property
    def n(self) -> int:
        return len(self.f)

    @property
    def dim_phi(self) -> int:
        return self.f[0].cols


def validate_local_star(P: LocalStar) -> List[str]:
    report = []
    n = P.n
    if len(P.g) != n or n < 1:
        report.append("need matching nonempty f and g families")
        return report
    dphi = P.dim_phi
    for i in range(n):
        if P.f[i].cols != dphi or P.g[i].rows != dphi:
            report.append(f"pair {i + 1} is not based at a common Phi")
            return report
        if P.f[i].rows != P.g[i].cols:
            report.append(f"pair {i + 1} has mismatched Psi dimensions")
            return report
    for i in range(n):
        if not (P.f[i] * P.g[i]).is_identity():
            report.append(f"f_{i + 1} g_{i + 1} != id")
    for i in range(n):
        nxt = (i + 1) % n
        m = P.f[nxt] * P.g[i]
        if not m.is_invertible():
            report.append(f"f_{nxt + 1} g_{i + 1} singular")
    for i in range(n):
        for j in range(n):
            if j == i or j == (i + 1) % n:
                continue
            if not (P.f[j] * P.g[i]).is_zero():
                report.append(f"f_{j + 1} g_{i + 1} != 0")
    return report


# -- sheaf-style encodings ----------------------------------------------------

@dataclass
class SheafEncoding:
    """Stalk complexes with comparison maps, monodromies and homotopies.

    maps[i] goes stalks[i] -> stalks[i+1] when dual is False (restriction)
    and stalks[i+1] -> stalks[i] when dual is True (corestriction).
    monodromies[i] is a chain automorphism of stalks[i+1].  homotopies[i]
    witnesses T . maps[i] - maps[i] (resp. maps[i] . T - maps[i]) as a
    boundary, so the monodromy acts trivially after passing to the smaller
    stratum.
    """

    dual: bool
    stalks: List[ChainComplex]
    maps: List[ChainMap]
    monodromies: List[ChainMap]
    homotopies: List[ChainHomotopy]


def encode_sheaf(P: PervDisk, dual: bool = False) -> SheafEncoding:
    """Disk encoding.

    Sheaf side: F_0 = [Psi -g-> Phi] in degrees 1, 0; F_1 = Psi in degree 1;
    res = (id, 0); T = id - f g on F_1; homotopy h_0 = -f.
    Cosheaf side (dual): F_0 = [Phi -f-> Psi] in degrees 0, -1; F_1 = Psi in
    degree -1; cores: F_1 -> F_0 is the identity in degree -1; h_{-1} = -g.
    """
    f, g = P.f, P.g
    t = Matrix.identity(P.dim_psi) - f * g
    if not dual:
        f0 = ChainComplex(0, 1, (P.dim_phi, P.dim_psi), {1: g})
        f1 = ChainComplex(1, 1, (P.dim_psi,))
        res = ChainMap(f0, f1, {1: Matrix.identity(P.dim_psi)})
        mono = ChainMap(f1, f1, {1: t})
        htp = ChainHomotopy(f0, f1, {0: -f})
        return SheafEncoding(False, [f0, f1], [res], [mono], [htp])
    f0 = ChainComplex(-1, 0, (P.dim_psi, P.dim_phi), {0: f})
    f1 = ChainComplex(-1, -1, (P.dim_psi,))
    cores = ChainMap(f1, f0, {-1: Matrix.identity(P.dim_psi)})
    mono = ChainMap(f1, f1, {-1: t})
    htp = ChainHomotopy(f1, f0, {-1: -g})
    return SheafEncoding(True, [f0, f1], [cores], [mono], [htp])


def _flag_stalk(P: PervFlag, i: int) -> ChainComplex:
    """[A_n -> ... -> A_i] with A_k in chain degree k and differential delta."""
    n = P.n
    dims = tuple(P.dims[k] for k in range(i, n + 1))
    diffs = {k: P.delta[k - 1] for k in range(i + 1, n + 1)}
    return ChainComplex(i, n, dims, diffs)


def encode_sheaf_flag(P: PervFlag) -> SheafEncoding:
    """Flag encoding on the stratified disk with n strata.

    Stalk i is [A_n -> ... -> A_i]; res_i: stalk_{i-1} -> stalk_i drops the
    bottom term; T_i = id - d delta - delta d degreewise (absent terms are
    zero at the ends); the homotopy against res_i is h_k = -d_k.
    """
    n = P.n
    stalks = [_flag_stalk(P, i) for i in range(n + 1)]
    maps = []
    monos = []
    htps = []
    for i in range(1, n + 1):
        src, tgt = stalks[i - 1], stalks[i]
        res = ChainMap(src, tgt, {k: Matrix.identity(P.dims[k])
                                  for k in range(i, n + 1)})
        t_comps = {}
        for k in range(i, n + 1):
            t = Matrix.identity(P.dims[k])
            if k >= 1:
                t = t - P.d[k - 1] * P.delta[k - 1]
            if k < n:
                t = t - P.delta[k] * P.d[k]
            t_comps[k] = t
        mono = ChainMap(tgt, tgt, t_comps)
        htp = ChainHomotopy(src, tgt, {k: -P.d[k] for k in range(i - 1, n)})
        maps.append(res)
        monos.append(mono)
        htps.append(htp)
    return SheafEncoding(False, stalks, maps, monos, htps)


def verify_encoding(E: SheafEncoding) -> List[str]:
    """Replay every axiom: complexes, chain maps, invertibility, homotopies."""
    report = []
    for i, st in enumerate(E.stalks):
        for msg in validate_complex(st):
            report.append(f"stalk {i}: {msg}")
    if len(E.maps) != len(E.stalks) - 1:
        report.append("expected one comparison map per adjacent stalk pair")
        return report
    if len(E.monodromies) != len(E.maps) or len(E.homotopies) != len(E.maps):
        report.append("monodromy/homotopy count mismatch")
        return report
    for i, m in enumerate(E.maps):
        inner, outer = E.stalks[i], E.stalks[i + 1]
        expect = (outer, inner) if E.dual else (inner, outer)
        if (m.source, m.target) != expect:
            report.append(f"comparison map {i} has wrong endpoints")
            return report
        for msg in m.validate():
            report.append(f"comparison map {i}: {msg}")
    for i, t in enumerate(E.monodromies):
        st = E.stalks[i + 1]
        if t.source != st or t.target != st:
            report.append(f"monodromy {i} is not an endomorphism of stalk {i + 1}")
            return report
        for msg in t.validate():
            report.append(f"monodromy {i}: {msg}")
        for k in st.degrees():
            if t.f(k).invert() is None:
                report.append(f"monodromy {i} singular in degree {k}")
    for i, h in enumerate(E.homotopies):
        m = E.maps[i]
        t = E.monodromies[i]
        if E.dual:
            # corestriction: m: stalk_{i+1} -> stalk_i, compare m . T with m
            lhs = m.compose(t)
        else:
            # restriction: m: stalk_i -> stalk_{i+1}, compare T . m with m
            lhs = t.compose(m)
        if h.source != m.source or h.target != m.target:
            report.append(f"homotopy {i} has wrong endpoints")
            continue
        A, B = m.source, m.target
        lo = min(A.lo, B.lo)
        hi = max(A.hi, B.hi)
        for k in range(lo, hi + 1):
            want = lhs.f(k) - m.f(k)
            got = B.d(k + 1) * h.h(k) + h.h(k - 1) * A.d(k)
            if want != got:
                report.append(f"homotopy {i} fails at degree {k}")
    return report
