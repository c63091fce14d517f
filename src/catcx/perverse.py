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

The two invertibility conditions of a gluing pair are one: for any
f: X -> Y and g: Y -> X, det(id_Y - f g) = det(id_X - g f) (Sylvester's
determinant identity).  So the validators check each pair once, as
validate_disk checks id - f g alone, and a singular pair is reported
with both of its texts.

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

from typing import Dict, FrozenSet, List, Tuple

from .exactlin import DimensionError, Matrix
from .record import Record
from .chain import ChainComplex, ChainMap, ChainHomotopy, homotopy_failures, validate_complex
from .documents import (DocumentError, _Ctx, _as_int, _as_list, _check_dim,
                        _components_json, _dims, _field, _int_keys, _parse_chain_complex,
                        _parse_map, _parse_matrix, _subset_key, _subset_keys,
                        check_cube_size, cube_subsets)


class PervDisk(Record):
    __slots__ = ("f", "g")
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


class PervFlag(Record):
    """Spaces A_0..A_n; d[k]: A_k -> A_{k+1}, delta[k]: A_{k+1} -> A_k."""

    __slots__ = ("dims", "d", "delta")
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
        # det(id - d delta) = det(id - delta d): one check decides both
        if not (Matrix.identity(P.dims[k + 1]) - P.d[k] * P.delta[k]).is_invertible():
            report += [f"id - d delta singular at level {k + 1}",
                       f"id - delta d singular at level {k}"]
    return report


def flag_monodromies(P: PervFlag) -> List[Matrix]:
    """T_k = id - d delta - delta d on A_k, absent terms read as zero."""
    return [_flag_monodromy(P, k) for k in range(P.n + 1)]


def _flag_monodromy(P: PervFlag, k: int) -> Matrix:
    """T_k alone; see `flag_monodromies`."""
    t = Matrix.identity(P.dims[k])
    if k >= 1:
        t = t - P.d[k - 1] * P.delta[k - 1]
    if k < P.n:
        t = t - P.delta[k] * P.d[k]
    return t


def flag_factorization_checks(P: PervFlag) -> bool:
    """id - d delta - delta d = (id - d delta)(id - delta d), both orders,
    degreewise.  This is the exact identity the flag validator certifies."""
    ts = flag_monodromies(P)
    for k in range(P.n + 1):
        ident = Matrix.identity(P.dims[k])
        a = ident - P.d[k - 1] * P.delta[k - 1] if k >= 1 else ident
        b = ident - P.delta[k] * P.d[k] if k < P.n else ident
        if ts[k] != a * b or ts[k] != b * a:
            return False
    return True


def flag_to_disk(P: PervFlag) -> PervDisk:
    """n = 1 flags are exactly disks: Phi = A_0, Psi = A_1, f = d, g = delta."""
    if P.n != 1:
        raise DimensionError("only n = 1 flags are disks")
    return PervDisk(P.d[0], P.delta[0])


Subset = FrozenSet[int]


class PervCube(Record):
    """n-cube model; keys of dims are frozensets of {1..n}."""

    __slots__ = ("n", "dims", "f", "g")
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


def validate_cube(P: PervCube) -> List[str]:
    report = []
    subs = cube_subsets(P.n)
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
            # det(g f - id) = +-det(f g - id): one check decides both
            gf = P.gmap(i, J) * P.fmap(i, J) - Matrix.identity(P.dim(J | {i}))
            if not gf.is_invertible():
                report += [f"g_{i} f_{i} - id singular at {sorted(J)}",
                           f"f_{i} g_{i} - id singular at {sorted(J)}"]
    return report


def flag_embed_cube(P: PervFlag) -> PervCube:
    """Place A_k at the initial-segment vertex {1..k}, zero elsewhere.

    The cube maps out of nonzero vertices are f_{k} = delta_{k-1} and
    g_{k} = d_{k-1} on the spine; everything touching a zero vertex is a
    zero matrix.  The commutation squares through zero vertices hold
    precisely because d.d = delta.delta = 0.
    """
    n, subsets = P.n, cube_subsets(P.n)
    spine = {frozenset(range(1, k + 1)): k for k in range(n + 1)}
    dims = {J: P.dims[spine[J]] if J in spine else 0 for J in subsets}
    f: Dict[int, Dict[Subset, Matrix]] = {i: {} for i in range(1, n + 1)}
    g: Dict[int, Dict[Subset, Matrix]] = {i: {} for i in range(1, n + 1)}
    for J in subsets:
        for i in range(1, n + 1):
            if i in J:
                continue
            if spine.get(J) == i - 1:  # J = {1..i-1}, so J + i is on the spine too
                f[i][J], g[i][J] = P.delta[i - 1], P.d[i - 1]
            else:
                src, tgt = dims[J | {i}], dims[J]
                f[i][J], g[i][J] = Matrix.zeros(tgt, src), Matrix.zeros(src, tgt)
    return PervCube(n, dims, f, g)


class LocalStar(Record):
    """One Phi, cyclically indexed Psi_1..Psi_n."""

    __slots__ = ("f", "g")
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

class SheafEncoding(Record):
    """Stalk complexes with comparison maps, monodromies and homotopies.

    maps[i] goes stalks[i] -> stalks[i+1] when dual is False (restriction)
    and stalks[i+1] -> stalks[i] when dual is True (corestriction).
    monodromies[i] is a chain automorphism of stalks[i+1].  homotopies[i]
    witnesses T . maps[i] - maps[i] (resp. maps[i] . T - maps[i]) as a
    boundary, so the monodromy acts trivially after passing to the smaller
    stratum.
    """

    __slots__ = ("dual", "stalks", "maps", "monodromies", "homotopies")
    dual: bool
    stalks: List[ChainComplex]
    maps: List[ChainMap]
    monodromies: List[ChainMap]
    homotopies: List[ChainHomotopy]


def encode_sheaf(P: PervDisk, dual: bool = False) -> SheafEncoding:
    """Disk encoding.

    Sheaf side: the flag encoding of the disk as the flag Phi -f-> Psi,
    Psi -g-> Phi (n = 1): F_0 = [Psi -g-> Phi] in degrees 1, 0; F_1 = Psi in
    degree 1; res = (id, 0); T = id - f g on F_1; homotopy h_0 = -f.
    Cosheaf side (dual): F_0 = [Phi -f-> Psi] in degrees 0, -1; F_1 = Psi in
    degree -1; cores: F_1 -> F_0 is the identity in degree -1; h_{-1} = -g.
    """
    f, g = P.f, P.g
    if not dual:
        return encode_sheaf_flag(PervFlag((P.dim_phi, P.dim_psi), (f,), (g,)))
    t = Matrix.identity(P.dim_psi) - f * g
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
    # no stalk has A_0 as a monodromy degree, so T_0 is not computed
    ts = {k: _flag_monodromy(P, k) for k in range(1, n + 1)}
    maps = []
    monos = []
    htps = []
    for i in range(1, n + 1):
        src, tgt = stalks[i - 1], stalks[i]
        res = ChainMap(src, tgt, {k: Matrix.identity(P.dims[k])
                                  for k in range(i, n + 1)})
        mono = ChainMap(tgt, tgt, {k: ts[k] for k in range(i, n + 1)})
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
            if not t.f(k).is_invertible():
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
        for k in homotopy_failures(m, lhs, h):
            report.append(f"homotopy {i} fails at degree {k}")
    return report

# -- document codecs (rows of documents._TYPES) ---------------------------------

def _parse_perv_disk(d: dict, ctx: _Ctx, path: str) -> PervDisk:
    f = _parse_matrix(_field(d, "f", path), ctx, f"{path}.f")
    g = _parse_matrix(_field(d, "g", path), ctx, f"{path}.g",
                      rows=f.cols, cols=f.rows)
    return PervDisk(f, g)


def _parse_perv_flag(d: dict, ctx: _Ctx, path: str) -> PervFlag:
    dims = _dims(d, path, ctx.cap, bool, "dims must be nonempty")
    n = len(dims) - 1
    d_raw = _field(d, "d", path, _as_list)
    delta_raw = _field(d, "delta", path, _as_list)
    if len(d_raw) != n or len(delta_raw) != n:
        raise DocumentError(f"need exactly {n} maps in d and delta", path)
    ds = tuple(_parse_matrix(m, ctx, f"{path}.d[{k}]", rows=dims[k + 1], cols=dims[k])
               for k, m in enumerate(d_raw))
    deltas = tuple(_parse_matrix(m, ctx, f"{path}.delta[{k}]",
                                 rows=dims[k], cols=dims[k + 1])
                   for k, m in enumerate(delta_raw))
    return PervFlag(dims, ds, deltas)


def _parse_perv_cube(d: dict, ctx: _Ctx, path: str) -> PervCube:
    n = _field(d, "n", path, _as_int)
    if n < 1:
        raise DocumentError("n must be at least 1", f"{path}.n")
    check_cube_size(n, ctx.cap, f"{path}.n")
    dims = {J: _check_dim(v, f"{path}.dims.{key}", ctx.cap)
            for J, key, v in _subset_keys(_field(d, "dims", path), f"{path}.dims", n)}

    def dim_of(J) -> int:
        return dims.get(frozenset(J), 0)

    def parse_side(field: str, rows_of, cols_of):
        out: Dict[int, Dict[frozenset, Matrix]] = {}
        for i, axkey, table in _int_keys(_field(d, field, path), f"{path}.{field}", "axis",
                                         range(1, n + 1), "axis {} out of range"):
            at = f"{path}.{field}.{axkey}"
            out[i] = {J: _parse_matrix(mat, ctx, f"{at}.{key}",
                                       rows=rows_of(i, J), cols=cols_of(i, J))
                      for J, key, mat in _subset_keys(table, at, n)}
        return out

    f = parse_side("f", lambda i, J: dim_of(J), lambda i, J: dim_of(J | {i}))
    g = parse_side("g", lambda i, J: dim_of(J | {i}), lambda i, J: dim_of(J))
    return PervCube(n, dims, f, g)


def _parse_local_star(d: dict, ctx: _Ctx, path: str) -> LocalStar:
    f_raw = _field(d, "f", path, _as_list)
    g_raw = _field(d, "g", path, _as_list)
    if not f_raw or len(f_raw) != len(g_raw):
        raise DocumentError("f and g must be nonempty lists of equal length", path)
    fs = [_parse_matrix(m, ctx, f"{path}.f[{i}]") for i, m in enumerate(f_raw)]
    gs = [_parse_matrix(m, ctx, f"{path}.g[{i}]",
                        rows=fs[i].cols, cols=fs[i].rows)
          for i, m in enumerate(g_raw)]
    return LocalStar(tuple(fs), tuple(gs))


def _parse_sheaf_encoding(d: dict, ctx: _Ctx, path: str) -> SheafEncoding:
    dual = _field(d, "dual", path)
    if not isinstance(dual, bool):
        raise DocumentError("dual must be a boolean", f"{path}.dual")
    stalks = [_parse_chain_complex(s, ctx, f"{path}.stalks[{i}]")
              for i, s in enumerate(_field(d, "stalks", path, _as_list))]
    if not stalks:
        raise DocumentError("need at least one stalk", f"{path}.stalks")
    m = len(stalks) - 1
    maps_raw = _field(d, "maps", path, _as_list)
    mono_raw = _field(d, "monodromies", path, _as_list)
    homo_raw = _field(d, "homotopies", path, _as_list)
    if len(maps_raw) != m or len(mono_raw) != m or len(homo_raw) != m:
        raise DocumentError(f"need exactly {m} maps, monodromies and homotopies", path)
    maps = []
    monos = []
    homos = []
    for i in range(m):
        if dual:
            src, tgt = stalks[i + 1], stalks[i]
        else:
            src, tgt = stalks[i], stalks[i + 1]
        maps.append(_parse_map(ChainMap, maps_raw[i], src, tgt, ctx, f"{path}.maps[{i}]"))
        monos.append(_parse_map(ChainMap, mono_raw[i], stalks[i + 1], stalks[i + 1], ctx,
                                f"{path}.monodromies[{i}]"))
        homos.append(_parse_map(ChainHomotopy, homo_raw[i], src, tgt, ctx,
                                f"{path}.homotopies[{i}]"))
    return SheafEncoding(dual, stalks, maps, monos, homos)


def _perv_cube_json(P) -> dict:
    def side(table):
        return {str(i): {_subset_key(J): m for J, m in sub.items()}
                for i, sub in table.items()}
    return {"n": P.n, "dims": {_subset_key(J): v for J, v in P.dims.items()},
            "f": side(P.f), "g": side(P.g)}


def _sheaf_encoding_json(E) -> dict:
    return {"dual": E.dual, "stalks": E.stalks,
            "maps": [_components_json(m) for m in E.maps],
            "monodromies": [_components_json(m) for m in E.monodromies],
            "homotopies": [_components_json(h) for h in E.homotopies]}
