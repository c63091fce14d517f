"""JSON document layer: one tagged document per file.

Every serializable value carries a "type" discriminator.  Rationals travel
as strings, "p" or "p/q" in lowest terms with a positive denominator.  In
strict mode any other spelling is rejected; by default non-canonical but
meaningful spellings ("4/6", "007") are normalized and reported through
the warn callback.  Matrices are nested arrays of rational strings; where
a containing document pins the shape (a complex's dims, a flag's dims)
the array must match it exactly.

Degree keys in JSON objects are strings ("2", "-1"); multidegrees and
subsets are comma-joined ("1,0", "1,3", "" for the empty set).

The environment variable CATCX_MAX_DIM (default 512) caps every declared
dimension and matrix side at parse time, and the largest degree a Koszul
input implies, so a malicious or runaway input fails fast instead of
allocating.

Each document type is one row of the table `_TYPES`: tag, defining module
and class, parser and serializer.  A domain module is imported only when a
document of its type is parsed, and serialization finds the row from the
object's class without importing anything, so handling one type never
loads the modules of the others.

serialize_document is deterministic: sorted keys, fixed separators, one
trailing newline.  parse_document(serialize_document(x)) reproduces x,
and serializing again reproduces the exact bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Dict, Optional, Tuple

from .exactlin import DimensionError, Matrix, rat_str

MAX_DIM_ENV = "CATCX_MAX_DIM"
DEFAULT_MAX_DIM = 512

# numerators and denominators are capped at Python's default int/str
# conversion limit, so every parsed rational can be written back out
MAX_RATIONAL_DIGITS = 4300
_TOO_MANY_DIGITS = 10 ** MAX_RATIONAL_DIGITS

Warn = Optional[Callable[[str], None]]


class DocumentError(ValueError):
    """Malformed document: bad JSON, bad tag, bad shape, or oversized."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


def dim_cap() -> int:
    raw = os.environ.get(MAX_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        raise DocumentError(f"{MAX_DIM_ENV} is not an integer: {raw!r}")
    if cap < 0:
        raise DocumentError(f"{MAX_DIM_ENV} must be nonnegative")
    return cap


def _check_dim(n: int, path: str, cap: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise DocumentError("dimension must be an integer", path)
    if n < 0:
        raise DocumentError("dimension must be nonnegative", path)
    if n > cap:
        raise DocumentError(f"dimension {n} exceeds {MAX_DIM_ENV}={cap}", path)
    return n


def _exponent_too_large(x: str) -> bool:
    """Whether x's exponent alone would push Fraction(x) past the digit cap.

    Fraction('1e400000') builds 10**400000 before its size can be seen, so
    the exponent is bounded on the string itself.
    """
    mantissa, e, exp = x.upper().partition("E")
    exp = exp.strip().lstrip("+-").replace("_", "")
    if not e or not exp.isdigit():
        return False  # no exponent, or one Fraction rejects anyway
    digits = sum(ch.isdigit() for ch in mantissa)
    return len(exp) > 6 or digits + int(exp) > MAX_RATIONAL_DIGITS


def _canonical_int(x: str) -> Optional[int]:
    """x as an int when it is spelled exactly as str() spells that int."""
    digits = x[1:] if x[:1] == "-" else x
    if digits.isdecimal() and len(digits) <= MAX_RATIONAL_DIGITS:
        n = int(x)
        if str(n) == x:
            return n
    return None


def parse_rational(x, strict: bool, warn: Warn, path: str) -> Fraction:
    if isinstance(x, str):
        n = _canonical_int(x)
        if n is not None:  # skip Fraction's string parser
            return Fraction(n)
        if _exponent_too_large(x):
            raise DocumentError(f"rational exceeds {MAX_RATIONAL_DIGITS} digits", path)
        try:
            v = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"not a rational: {x!r}", path)
        if abs(v.numerator) >= _TOO_MANY_DIGITS or v.denominator >= _TOO_MANY_DIGITS:
            raise DocumentError(f"rational exceeds {MAX_RATIONAL_DIGITS} digits", path)
        if rat_str(v) != x:
            if strict:
                raise DocumentError(f"non-canonical rational {x!r}", path)
            if warn:
                warn(f"{path}: normalized non-canonical rational {x!r} to {rat_str(v)!r}")
        return v
    if isinstance(x, int) and not isinstance(x, bool):
        if strict:
            raise DocumentError("rationals must be strings in strict mode", path)
        if warn:
            warn(f"{path}: rational given as a JSON number")
        return Fraction(x)
    raise DocumentError(f"not a rational: {x!r}", path)


def _req(d: dict, key: str, path: str):
    if key not in d:
        raise DocumentError(f"missing field {key!r}", path)
    return d[key]


def _as_dict(x, path: str) -> dict:
    if not isinstance(x, dict):
        raise DocumentError("expected an object", path)
    return x


def _as_list(x, path: str) -> list:
    if not isinstance(x, list):
        raise DocumentError("expected an array", path)
    return x


def _as_int(x, path: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise DocumentError("expected an integer", path)
    return x


def _parse_matrix(data, ctx: "_Ctx", path: str,
                  rows: Optional[int] = None, cols: Optional[int] = None) -> Matrix:
    arr = _as_list(data, path)
    r = len(arr)
    widths = set()
    ent = []
    for i, row in enumerate(arr):
        row = _as_list(row, f"{path}[{i}]")
        widths.add(len(row))
        for j, cell in enumerate(row):
            # canonical integers stay ints, so Matrix takes its all-int path
            n = _canonical_int(cell) if type(cell) is str else None
            ent.append(n if n is not None
                       else parse_rational(cell, ctx.strict, ctx.warn, f"{path}[{i}][{j}]"))
    if len(widths) > 1:
        raise DocumentError("ragged matrix", path)
    c = widths.pop() if widths else (cols if cols is not None else 0)
    _check_dim(r, path, ctx.cap)
    _check_dim(c, path, ctx.cap)
    if rows is not None and r != rows:
        raise DocumentError(f"expected {rows} rows, found {r}", path)
    if cols is not None and c != cols:
        raise DocumentError(f"expected {cols} columns, found {c}", path)
    return Matrix(r, c, ent)


def _subset_key(J) -> str:
    return ",".join(str(i) for i in sorted(J))


def _parse_subset(key: str, path: str):
    if key == "":
        return frozenset()
    try:
        return frozenset(int(p) for p in key.split(","))
    except ValueError:
        raise DocumentError(f"bad subset key {key!r}", path)


def _deg_key(a: Tuple[int, ...]) -> str:
    return ",".join(str(x) for x in a)


def _parse_deg(key: str, n: int, path: str) -> Tuple[int, ...]:
    parts = key.split(",")
    if len(parts) != n:
        raise DocumentError(f"multidegree {key!r} needs {n} entries", path)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise DocumentError(f"bad multidegree key {key!r}", path)


@dataclass
class _Ctx:
    strict: bool
    warn: Warn
    cap: int


@dataclass
class KoszulSpec:
    """Parsed but not yet verified Koszul input (algebra + lambda vectors)."""

    algebra: FDAlgebra
    lambdas: Tuple[Tuple[Fraction, ...], ...]


# -- per-type parsers ----------------------------------------------------------

def _parse_chain_complex(d: dict, ctx: _Ctx, path: str) -> ChainComplex:
    from .chain import ChainComplex
    lo = _as_int(_req(d, "lo", path), f"{path}.lo")
    hi = _as_int(_req(d, "hi", path), f"{path}.hi")
    if hi < lo:
        raise DocumentError("hi < lo", path)
    dims_raw = _as_list(_req(d, "dims", path), f"{path}.dims")
    if len(dims_raw) != hi - lo + 1:
        raise DocumentError("dims length does not match lo..hi", f"{path}.dims")
    dims = tuple(_check_dim(_as_int(x, f"{path}.dims[{i}]"), f"{path}.dims[{i}]", ctx.cap)
                 for i, x in enumerate(dims_raw))
    probe = ChainComplex(lo, hi, dims)
    diffs = {}
    for key, mat in _as_dict(d.get("differentials", {}), f"{path}.differentials").items():
        try:
            k = int(key)
        except ValueError:
            raise DocumentError(f"bad degree key {key!r}", f"{path}.differentials")
        if not (lo < k <= hi):
            raise DocumentError(f"degree {k} outside lo+1..hi", f"{path}.differentials")
        diffs[k] = _parse_matrix(mat, ctx, f"{path}.differentials.{key}",
                                 rows=probe.dim(k - 1), cols=probe.dim(k))
    return ChainComplex(lo, hi, dims, diffs)


def _parse_components(d, src: ChainComplex, tgt: ChainComplex, ctx: _Ctx,
                      path: str, degree_shift: int = 0) -> Dict[int, Matrix]:
    comps = {}
    for key, mat in _as_dict(d, path).items():
        try:
            k = int(key)
        except ValueError:
            raise DocumentError(f"bad degree key {key!r}", path)
        comps[k] = _parse_matrix(mat, ctx, f"{path}.{key}",
                                 rows=tgt.dim(k + degree_shift), cols=src.dim(k))
    return comps


def _parse_chain_map(d: dict, ctx: _Ctx, path: str) -> ChainMap:
    from .chain import ChainMap
    src = _parse_chain_complex(_as_dict(_req(d, "source", path), f"{path}.source"),
                               ctx, f"{path}.source")
    tgt = _parse_chain_complex(_as_dict(_req(d, "target", path), f"{path}.target"),
                               ctx, f"{path}.target")
    comps = _parse_components(d.get("components", {}), src, tgt, ctx,
                              f"{path}.components")
    return ChainMap(src, tgt, comps)


def _parse_chain_homotopy(d: dict, ctx: _Ctx, path: str) -> ChainHomotopy:
    from .chain import ChainHomotopy
    src = _parse_chain_complex(_as_dict(_req(d, "source", path), f"{path}.source"),
                               ctx, f"{path}.source")
    tgt = _parse_chain_complex(_as_dict(_req(d, "target", path), f"{path}.target"),
                               ctx, f"{path}.target")
    comps = _parse_components(d.get("components", {}), src, tgt, ctx,
                              f"{path}.components", degree_shift=1)
    return ChainHomotopy(src, tgt, comps)


def _parse_multicomplex(d: dict, ctx: _Ctx, path: str) -> MultiComplex:
    from .multicplx import MultiComplex
    n = _as_int(_req(d, "n", path), f"{path}.n")
    if n < 1:
        raise DocumentError("n must be at least 1", f"{path}.n")
    sup = _as_dict(_req(d, "support", path), f"{path}.support")
    lo = [_as_int(x, f"{path}.support.lo") for x in _as_list(_req(sup, "lo", f"{path}.support"), f"{path}.support.lo")]
    hi = [_as_int(x, f"{path}.support.hi") for x in _as_list(_req(sup, "hi", f"{path}.support"), f"{path}.support.hi")]
    if len(lo) != n or len(hi) != n:
        raise DocumentError("support bounds must have one entry per axis", f"{path}.support")
    dims = {}
    for key, v in _as_dict(_req(d, "dims", path), f"{path}.dims").items():
        a = _parse_deg(key, n, f"{path}.dims")
        dims[a] = _check_dim(_as_int(v, f"{path}.dims.{key}"), f"{path}.dims.{key}", ctx.cap)
    probe = MultiComplex(n, lo, hi, dims)
    diffs: Dict[int, Dict[Tuple[int, ...], Matrix]] = {}
    for axkey, table in _as_dict(d.get("differentials", {}), f"{path}.differentials").items():
        try:
            j = int(axkey)
        except ValueError:
            raise DocumentError(f"bad axis key {axkey!r}", f"{path}.differentials")
        if not (1 <= j <= n):
            raise DocumentError(f"axis {j} out of range", f"{path}.differentials")
        diffs[j] = {}
        for key, mat in _as_dict(table, f"{path}.differentials.{axkey}").items():
            a = _parse_deg(key, n, f"{path}.differentials.{axkey}")
            b = tuple(x - (1 if t == j - 1 else 0) for t, x in enumerate(a))
            diffs[j][a] = _parse_matrix(mat, ctx, f"{path}.differentials.{axkey}.{key}",
                                        rows=probe.dim(b), cols=probe.dim(a))
    return MultiComplex(n, lo, hi, dims, diffs)


def _parse_chain_cube(d: dict, ctx: _Ctx, path: str) -> ChainCube:
    from .chain import ChainMap
    from .multicplx import ChainCube
    n = _as_int(_req(d, "n", path), f"{path}.n")
    vertices = {}
    for key, v in _as_dict(_req(d, "vertices", path), f"{path}.vertices").items():
        J = _parse_subset(key, f"{path}.vertices")
        vertices[J] = _parse_chain_complex(_as_dict(v, f"{path}.vertices.{key}"),
                                           ctx, f"{path}.vertices.{key}")
    edges: Dict[int, Dict[frozenset, ChainMap]] = {}
    for axkey, table in _as_dict(_req(d, "edges", path), f"{path}.edges").items():
        try:
            i = int(axkey)
        except ValueError:
            raise DocumentError(f"bad axis key {axkey!r}", f"{path}.edges")
        edges[i] = {}
        for key, comps in _as_dict(table, f"{path}.edges.{axkey}").items():
            J = _parse_subset(key, f"{path}.edges.{axkey}")
            if J not in vertices or (J - {i}) not in vertices:
                raise DocumentError(f"edge at {key!r} references missing vertices",
                                    f"{path}.edges.{axkey}")
            cm = _parse_components(comps, vertices[J], vertices[J - {i}], ctx,
                                   f"{path}.edges.{axkey}.{key}")
            edges[i][J] = ChainMap(vertices[J], vertices[J - {i}], cm)
    try:
        return ChainCube(n, vertices, edges)
    except DimensionError as e:
        raise DocumentError(str(e), path)


def _parse_fd_algebra(d: dict, ctx: _Ctx, path: str) -> FDAlgebra:
    from .koszul import FDAlgebra
    m = _check_dim(_as_int(_req(d, "dim", path), f"{path}.dim"), f"{path}.dim", ctx.cap)
    structure_raw = _as_list(_req(d, "structure", path), f"{path}.structure")
    if len(structure_raw) != m:
        raise DocumentError("structure must have dim planes", f"{path}.structure")
    structure = []
    for i, plane in enumerate(structure_raw):
        plane = _as_list(plane, f"{path}.structure[{i}]")
        if len(plane) != m:
            raise DocumentError("plane has wrong size", f"{path}.structure[{i}]")
        prow = []
        for j, row in enumerate(plane):
            row = _as_list(row, f"{path}.structure[{i}][{j}]")
            if len(row) != m:
                raise DocumentError("row has wrong size", f"{path}.structure[{i}][{j}]")
            prow.append(tuple(parse_rational(x, ctx.strict, ctx.warn,
                                             f"{path}.structure[{i}][{j}][{k}]")
                              for k, x in enumerate(row)))
        structure.append(tuple(prow))
    unit_raw = _as_list(_req(d, "unit", path), f"{path}.unit")
    if len(unit_raw) != m:
        raise DocumentError("unit vector has wrong length", f"{path}.unit")
    unit = tuple(parse_rational(x, ctx.strict, ctx.warn, f"{path}.unit[{k}]")
                 for k, x in enumerate(unit_raw))
    return FDAlgebra(m, tuple(structure), unit)


def _parse_koszul(d: dict, ctx: _Ctx, path: str) -> KoszulSpec:
    alg = _parse_fd_algebra(_as_dict(_req(d, "algebra", path), f"{path}.algebra"),
                            ctx, f"{path}.algebra")
    lams_raw = _as_list(_req(d, "lambdas", path), f"{path}.lambdas")
    # K has C(n, k) * dim basis vectors in degree k, most at k = n // 2
    n = len(lams_raw)
    largest = comb(n, n // 2) * alg.dim
    if largest > ctx.cap:
        raise DocumentError(f"{n} lambdas over a {alg.dim}-dimensional algebra imply a "
                            f"degree of dimension {largest}, which exceeds "
                            f"{MAX_DIM_ENV}={ctx.cap}", f"{path}.lambdas")
    lams = []
    for i, lam in enumerate(lams_raw):
        lam = _as_list(lam, f"{path}.lambdas[{i}]")
        if len(lam) != alg.dim:
            raise DocumentError("lambda vector has wrong length", f"{path}.lambdas[{i}]")
        lams.append(tuple(parse_rational(x, ctx.strict, ctx.warn,
                                         f"{path}.lambdas[{i}][{k}]")
                          for k, x in enumerate(lam)))
    return KoszulSpec(alg, tuple(lams))


def _parse_perv_disk(d: dict, ctx: _Ctx, path: str) -> PervDisk:
    from .perverse import PervDisk
    f = _parse_matrix(_req(d, "f", path), ctx, f"{path}.f")
    g = _parse_matrix(_req(d, "g", path), ctx, f"{path}.g",
                      rows=f.cols, cols=f.rows)
    return PervDisk(f, g)


def _parse_perv_flag(d: dict, ctx: _Ctx, path: str) -> PervFlag:
    from .perverse import PervFlag
    dims_raw = _as_list(_req(d, "dims", path), f"{path}.dims")
    if not dims_raw:
        raise DocumentError("dims must be nonempty", f"{path}.dims")
    dims = tuple(_check_dim(_as_int(x, f"{path}.dims[{i}]"), f"{path}.dims[{i}]", ctx.cap)
                 for i, x in enumerate(dims_raw))
    n = len(dims) - 1
    d_raw = _as_list(_req(d, "d", path), f"{path}.d")
    delta_raw = _as_list(_req(d, "delta", path), f"{path}.delta")
    if len(d_raw) != n or len(delta_raw) != n:
        raise DocumentError(f"need exactly {n} maps in d and delta", path)
    ds = tuple(_parse_matrix(m, ctx, f"{path}.d[{k}]", rows=dims[k + 1], cols=dims[k])
               for k, m in enumerate(d_raw))
    deltas = tuple(_parse_matrix(m, ctx, f"{path}.delta[{k}]",
                                 rows=dims[k], cols=dims[k + 1])
                   for k, m in enumerate(delta_raw))
    return PervFlag(dims, ds, deltas)


def _parse_perv_cube(d: dict, ctx: _Ctx, path: str) -> PervCube:
    from .perverse import PervCube
    n = _as_int(_req(d, "n", path), f"{path}.n")
    if n < 1:
        raise DocumentError("n must be at least 1", f"{path}.n")
    dims = {}
    for key, v in _as_dict(_req(d, "dims", path), f"{path}.dims").items():
        J = _parse_subset(key, f"{path}.dims")
        dims[J] = _check_dim(_as_int(v, f"{path}.dims.{key}"), f"{path}.dims.{key}", ctx.cap)

    def dim_of(J) -> int:
        return dims.get(frozenset(J), 0)

    def parse_side(field: str, rows_of, cols_of):
        out: Dict[int, Dict[frozenset, Matrix]] = {}
        for axkey, table in _as_dict(_req(d, field, path), f"{path}.{field}").items():
            try:
                i = int(axkey)
            except ValueError:
                raise DocumentError(f"bad axis key {axkey!r}", f"{path}.{field}")
            out[i] = {}
            for key, mat in _as_dict(table, f"{path}.{field}.{axkey}").items():
                J = _parse_subset(key, f"{path}.{field}.{axkey}")
                out[i][J] = _parse_matrix(mat, ctx, f"{path}.{field}.{axkey}.{key}",
                                          rows=rows_of(i, J), cols=cols_of(i, J))
        return out

    f = parse_side("f", lambda i, J: dim_of(J), lambda i, J: dim_of(J | {i}))
    g = parse_side("g", lambda i, J: dim_of(J | {i}), lambda i, J: dim_of(J))
    return PervCube(n, dims, f, g)


def _parse_local_star(d: dict, ctx: _Ctx, path: str) -> LocalStar:
    from .perverse import LocalStar
    f_raw = _as_list(_req(d, "f", path), f"{path}.f")
    g_raw = _as_list(_req(d, "g", path), f"{path}.g")
    if not f_raw or len(f_raw) != len(g_raw):
        raise DocumentError("f and g must be nonempty lists of equal length", path)
    fs = [_parse_matrix(m, ctx, f"{path}.f[{i}]") for i, m in enumerate(f_raw)]
    gs = [_parse_matrix(m, ctx, f"{path}.g[{i}]",
                        rows=fs[i].cols, cols=fs[i].rows)
          for i, m in enumerate(g_raw)]
    return LocalStar(tuple(fs), tuple(gs))


def _parse_sheaf_encoding(d: dict, ctx: _Ctx, path: str) -> SheafEncoding:
    from .chain import ChainHomotopy, ChainMap
    from .perverse import SheafEncoding
    dual = _req(d, "dual", path)
    if not isinstance(dual, bool):
        raise DocumentError("dual must be a boolean", f"{path}.dual")
    stalks = [
        _parse_chain_complex(_as_dict(s, f"{path}.stalks[{i}]"), ctx, f"{path}.stalks[{i}]")
        for i, s in enumerate(_as_list(_req(d, "stalks", path), f"{path}.stalks"))
    ]
    if not stalks:
        raise DocumentError("need at least one stalk", f"{path}.stalks")
    m = len(stalks) - 1
    maps_raw = _as_list(_req(d, "maps", path), f"{path}.maps")
    mono_raw = _as_list(_req(d, "monodromies", path), f"{path}.monodromies")
    homo_raw = _as_list(_req(d, "homotopies", path), f"{path}.homotopies")
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
        maps.append(ChainMap(src, tgt, _parse_components(
            maps_raw[i], src, tgt, ctx, f"{path}.maps[{i}]")))
        monos.append(ChainMap(stalks[i + 1], stalks[i + 1], _parse_components(
            mono_raw[i], stalks[i + 1], stalks[i + 1], ctx, f"{path}.monodromies[{i}]")))
        homos.append(ChainHomotopy(src, tgt, _parse_components(
            homo_raw[i], src, tgt, ctx, f"{path}.homotopies[{i}]", degree_shift=1)))
    return SheafEncoding(dual, stalks, maps, monos, homos)


def _parse_simplicial(d: dict, ctx: _Ctx, path: str) -> SimplicialVS:
    from .doldkan import SimplicialVS
    N = _as_int(_req(d, "N", path), f"{path}.N")
    if N < 0:
        raise DocumentError("N must be nonnegative", f"{path}.N")
    dims_raw = _as_list(_req(d, "dims", path), f"{path}.dims")
    if len(dims_raw) != N + 1:
        raise DocumentError("dims must list X_0..X_N", f"{path}.dims")
    dims = tuple(_check_dim(_as_int(x, f"{path}.dims[{i}]"), f"{path}.dims[{i}]", ctx.cap)
                 for i, x in enumerate(dims_raw))

    def parse_ops(field: str, valid_levels, rows_at, cols_at):
        table = _as_dict(_req(d, field, path), f"{path}.{field}") if valid_levels else {}
        out = {}
        for nkey, ops in table.items():
            try:
                n = int(nkey)
            except ValueError:
                raise DocumentError(f"bad level key {nkey!r}", f"{path}.{field}")
            if n not in valid_levels:
                raise DocumentError(f"level {n} out of range", f"{path}.{field}")
            ops = _as_list(ops, f"{path}.{field}.{nkey}")
            if len(ops) != n + 1:
                raise DocumentError(f"level {n} needs {n + 1} maps",
                                    f"{path}.{field}.{nkey}")
            out[n] = tuple(
                _parse_matrix(m, ctx, f"{path}.{field}.{nkey}[{i}]",
                              rows=rows_at(n), cols=cols_at(n))
                for i, m in enumerate(ops))
        return out

    faces = parse_ops("faces", range(1, N + 1),
                      lambda n: dims[n - 1], lambda n: dims[n])
    degeneracies = parse_ops("degeneracies", range(N),
                             lambda n: dims[n + 1], lambda n: dims[n])
    try:
        return SimplicialVS(N, dims, faces, degeneracies)
    except DimensionError as e:
        raise DocumentError(str(e), path)


def _parse_fin_poset(d: dict, ctx: _Ctx, path: str) -> FinPoset:
    from .laxmat import FinPoset
    labels_raw = _as_list(_req(d, "labels", path), f"{path}.labels")
    labels = []
    for i, s in enumerate(labels_raw):
        if not isinstance(s, str):
            raise DocumentError("labels must be strings", f"{path}.labels[{i}]")
        labels.append(s)
    if len(set(labels)) != len(labels):
        raise DocumentError("labels must be distinct", f"{path}.labels")
    _check_dim(len(labels), f"{path}.labels", ctx.cap)
    leq_raw = _as_list(_req(d, "leq", path), f"{path}.leq")
    if len(leq_raw) != len(labels):
        raise DocumentError("leq must be square over the labels", f"{path}.leq")
    leq = []
    for i, row in enumerate(leq_raw):
        row = _as_list(row, f"{path}.leq[{i}]")
        if len(row) != len(labels):
            raise DocumentError("leq must be square over the labels", f"{path}.leq[{i}]")
        for j, v in enumerate(row):
            if not isinstance(v, bool):
                raise DocumentError("leq entries must be booleans", f"{path}.leq[{i}][{j}]")
        leq.append(tuple(row))
    return FinPoset(tuple(labels), tuple(leq))


def _parse_int_matrix(d: dict, ctx: _Ctx, path: str) -> IntMatrix:
    from .laxmat import IntMatrix
    rl = _as_list(_req(d, "row_labels", path), f"{path}.row_labels")
    cl = _as_list(_req(d, "col_labels", path), f"{path}.col_labels")
    for i, s in enumerate(rl + cl):
        if not isinstance(s, str):
            raise DocumentError("labels must be strings", path)
    _check_dim(len(rl), f"{path}.row_labels", ctx.cap)
    _check_dim(len(cl), f"{path}.col_labels", ctx.cap)
    ent_raw = _as_list(_req(d, "entries", path), f"{path}.entries")
    if len(ent_raw) != len(rl):
        raise DocumentError("entry rows do not match row_labels", f"{path}.entries")
    ent = []
    for i, row in enumerate(ent_raw):
        row = _as_list(row, f"{path}.entries[{i}]")
        if len(row) != len(cl):
            raise DocumentError("entry row width does not match col_labels",
                                f"{path}.entries[{i}]")
        ent.append([_as_int(x, f"{path}.entries[{i}][{j}]") for j, x in enumerate(row)])
    return IntMatrix(rl, cl, ent)


def _parse_delta1(d: dict, ctx: _Ctx, path: str) -> Delta1ChainMatrix:
    from .chain import ChainMap, tensor
    from .laxmat import Delta1ChainMatrix
    g_src = _parse_chain_complex(_as_dict(_req(d, "g_src", path), f"{path}.g_src"),
                                 ctx, f"{path}.g_src")
    g_tgt = _parse_chain_complex(_as_dict(_req(d, "g_tgt", path), f"{path}.g_tgt"),
                                 ctx, f"{path}.g_tgt")
    entries = {}
    ent_raw = _as_dict(_req(d, "entries", path), f"{path}.entries")
    for t in (0, 1):
        for s in (0, 1):
            key = f"{t},{s}"
            if key not in ent_raw:
                raise DocumentError(f"missing entry {key!r}", f"{path}.entries")
            entries[(t, s)] = _parse_chain_complex(
                _as_dict(ent_raw[key], f"{path}.entries.{key}"), ctx,
                f"{path}.entries.{key}")
    cells_raw = _as_dict(_req(d, "cells", path), f"{path}.cells")
    shapes = {
        "f0": (tensor(g_tgt, entries[(0, 0)]), entries[(1, 0)]),
        "0f": (tensor(entries[(0, 1)], g_src), entries[(0, 0)]),
        "f1": (tensor(g_tgt, entries[(0, 1)]), entries[(1, 1)]),
        "1f": (tensor(entries[(1, 1)], g_src), entries[(1, 0)]),
    }
    cells = {}
    for name, (src, tgt) in shapes.items():
        if name not in cells_raw:
            raise DocumentError(f"missing cell {name!r}", f"{path}.cells")
        comps = _parse_components(cells_raw[name], src, tgt, ctx, f"{path}.cells.{name}")
        cells[name] = ChainMap(src, tgt, comps)
    return Delta1ChainMatrix(g_src, g_tgt, entries,
                             cell_f0=cells["f0"], cell_0f=cells["0f"],
                             cell_f1=cells["f1"], cell_1f=cells["1f"])


# -- serializers: one per type, each returning the document without its tag --
#
# Key order does not matter: serialize_document sorts keys.

def _components_json(comps: Dict[int, Matrix]) -> dict:
    return {str(k): m.to_str_lists() for k, m in comps.items() if m.rows and m.cols}


def _chain_complex_json(C) -> dict:
    diffs = {}
    for k in range(C.lo + 1, C.hi + 1):
        m = C.d(k)
        if m.rows and m.cols:
            diffs[str(k)] = m.to_str_lists()
    return {"lo": C.lo, "hi": C.hi, "dims": list(C.dims), "differentials": diffs}


def _chain_map_json(f) -> dict:
    """Chain maps and chain homotopies alike."""
    return {"source": _to_jsonable(f.source), "target": _to_jsonable(f.target),
            "components": _components_json(f.comps)}


def _multicomplex_json(M) -> dict:
    diffs = {}
    for j in range(1, M.n + 1):
        table = {}
        for a, m in M.diffs.get(j, {}).items():
            if m.rows and m.cols:
                table[_deg_key(a)] = m.to_str_lists()
        if table:
            diffs[str(j)] = table
    return {"n": M.n, "support": {"lo": list(M.lo), "hi": list(M.hi)},
            "dims": {_deg_key(a): v for a, v in M.dims.items()},
            "differentials": diffs}


def _chain_cube_json(Q) -> dict:
    edges = {}
    for i in range(1, Q.n + 1):
        edges[str(i)] = {_subset_key(J): _components_json(e.comps)
                         for J, e in Q.edges[i].items()}
    return {"n": Q.n, "vertices": {_subset_key(J): _to_jsonable(v)
                                   for J, v in Q.vertices.items()},
            "edges": edges}


def _fd_algebra_json(A) -> dict:
    return {"dim": A.dim,
            "structure": [[[rat_str(x) for x in row] for row in plane]
                          for plane in A.structure],
            "unit": [rat_str(x) for x in A.unit]}


def _koszul_json(K) -> dict:
    """Koszul inputs and built Koszul complexes alike."""
    return {"algebra": _to_jsonable(K.algebra),
            "lambdas": [[rat_str(x) for x in lam] for lam in K.lambdas]}


def _perv_cube_json(P) -> dict:
    def side(table):
        return {str(i): {_subset_key(J): m.to_str_lists() for J, m in sub.items()}
                for i, sub in table.items()}
    return {"n": P.n, "dims": {_subset_key(J): v for J, v in P.dims.items()},
            "f": side(P.f), "g": side(P.g)}


def _sheaf_encoding_json(E) -> dict:
    return {"dual": E.dual, "stalks": [_to_jsonable(s) for s in E.stalks],
            "maps": [_components_json(m.comps) for m in E.maps],
            "monodromies": [_components_json(m.comps) for m in E.monodromies],
            "homotopies": [_components_json(h.comps) for h in E.homotopies]}


def _simplicial_json(X) -> dict:
    def ops(table):
        return {str(n): [m.to_str_lists() for m in maps] for n, maps in table.items()}
    return {"N": X.n_max, "dims": list(X.dims),
            "faces": ops(X.faces), "degeneracies": ops(X.degeneracies)}


def _delta1_json(N) -> dict:
    return {"g_src": _to_jsonable(N.g_src), "g_tgt": _to_jsonable(N.g_tgt),
            "entries": {f"{t},{s}": _to_jsonable(N.entry(t, s))
                        for t in (0, 1) for s in (0, 1)},
            "cells": {"f0": _components_json(N.cell_f0.comps),
                      "0f": _components_json(N.cell_0f.comps),
                      "f1": _components_json(N.cell_f1.comps),
                      "1f": _components_json(N.cell_1f.comps)}}


def _parse_matrix_document(d: dict, ctx: _Ctx, path: str) -> Matrix:
    return _parse_matrix(_req(d, "entries", path), ctx, f"{path}.entries")


# -- the table of document types -------------------------------------------------

_TYPES = (
    # (tag, module, class, parse, to_json)
    ("chain_complex", "chain", "ChainComplex", _parse_chain_complex, _chain_complex_json),
    ("chain_map", "chain", "ChainMap", _parse_chain_map, _chain_map_json),
    ("chain_homotopy", "chain", "ChainHomotopy", _parse_chain_homotopy, _chain_map_json),
    ("multicomplex", "multicplx", "MultiComplex", _parse_multicomplex, _multicomplex_json),
    ("chain_cube", "multicplx", "ChainCube", _parse_chain_cube, _chain_cube_json),
    ("fd_algebra", "koszul", "FDAlgebra", _parse_fd_algebra, _fd_algebra_json),
    ("koszul_complex", "documents", "KoszulSpec", _parse_koszul, _koszul_json),
    ("koszul_complex", "koszul", "FreeKoszulComplex", _parse_koszul, _koszul_json),
    ("perv_disk", "perverse", "PervDisk", _parse_perv_disk,
     lambda P: {"f": P.f.to_str_lists(), "g": P.g.to_str_lists()}),
    ("perv_flag", "perverse", "PervFlag", _parse_perv_flag,
     lambda P: {"dims": list(P.dims), "d": [m.to_str_lists() for m in P.d],
                "delta": [m.to_str_lists() for m in P.delta]}),
    ("perv_cube", "perverse", "PervCube", _parse_perv_cube, _perv_cube_json),
    ("local_star", "perverse", "LocalStar", _parse_local_star,
     lambda S: {"f": [m.to_str_lists() for m in S.f],
                "g": [m.to_str_lists() for m in S.g]}),
    ("sheaf_encoding", "perverse", "SheafEncoding", _parse_sheaf_encoding,
     _sheaf_encoding_json),
    ("simplicial_vs", "doldkan", "SimplicialVS", _parse_simplicial, _simplicial_json),
    ("fin_poset", "laxmat", "FinPoset", _parse_fin_poset,
     lambda P: {"labels": list(P.labels), "leq": [list(row) for row in P.leq]}),
    ("int_matrix", "laxmat", "IntMatrix", _parse_int_matrix,
     lambda M: {"row_labels": list(M.row_labels), "col_labels": list(M.col_labels),
                "entries": [list(row) for row in M.entries]}),
    ("delta1_chain_matrix", "laxmat", "Delta1ChainMatrix", _parse_delta1, _delta1_json),
    ("matrix", "exactlin", "Matrix", _parse_matrix_document,
     lambda m: {"entries": m.to_str_lists()}),
)

_PARSER_OF = {tag: parse for tag, _, _, parse, _ in _TYPES}
_ROW_OF_CLASS = {(f"{__package__}.{module}", cls): (tag, to_json)
                 for tag, module, cls, _, to_json in _TYPES}

_PASSTHROUGH_TYPES = ("report", "homology", "monodromy", "koszul_duality")


def _row_of(obj) -> Optional[Tuple[str, Callable]]:
    """(tag, to_json) of the nearest class in obj's MRO with a document type.

    Walking the MRO gives isinstance semantics without importing any
    domain module: obj's own classes are loaded already.
    """
    for cls in type(obj).__mro__:
        row = _ROW_OF_CLASS.get((cls.__module__, cls.__qualname__))
        if row is not None:
            return row
    return None


def tag_of(obj) -> str:
    """The document tag of obj's type, or its class name if it has none."""
    row = _row_of(obj)
    return row[0] if row is not None else type(obj).__name__


def parse_document(text: str, strict: bool = False, warn: Warn = None):
    """Parse one tagged JSON document into its library value."""
    ctx = _Ctx(strict, warn, dim_cap())
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON at byte {e.pos}: {e.msg}")
    except RecursionError:
        raise DocumentError("document nested too deeply")
    except ValueError as e:  # an integer literal past the int/str digit limit
        raise DocumentError(f"invalid JSON: {e}")
    if not isinstance(data, dict):
        raise DocumentError("top level must be an object")
    tag = data.get("type")
    if not isinstance(tag, str):
        raise DocumentError("missing or non-string 'type' field")
    if tag in _PASSTHROUGH_TYPES:
        return data
    parser = _PARSER_OF.get(tag)
    if parser is None:
        raise DocumentError(f"unknown document type {tag!r}")
    try:
        return parser(data, ctx, "$")
    except DimensionError as e:
        raise DocumentError(str(e))


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return obj
    row = _row_of(obj)
    if row is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    tag, to_json = row
    return {"type": tag, **to_json(obj)}


def serialize_document(obj, pretty: bool = False) -> str:
    data = _to_jsonable(obj)
    if pretty:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    return json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"
