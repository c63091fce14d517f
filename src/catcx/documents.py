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
dimension and matrix side at parse time, and the largest degree of a
Koszul input and its basis subsets, so a malicious or runaway input fails
fast instead of allocating.  The tensor, hom-complex, totalize, cone, cof,
fib, cc2, dk-gamma and lax-compose commands apply it to each degree of
their result too, before building it.

Each document type is one row of the table `_TYPES`: (tag, module, class,
parse, to_json, check), where check lists the invariants `catcx validate`
finds broken.  The codecs of the chain types (complex, map, homotopy) and
of bare matrices live here, beside the readers every codec shares; the
codecs and checks of every other type live in their domain module
(multicplx, koszul, perverse, doldkan, laxmat), and the row names them.
A domain module, and so its codec, is imported only when a document of its
type is parsed, and serialization finds the row from the object's class
without importing anything, so handling one type never loads or compiles
the code of the others.

The codecs read documents through shared readers, which raise each error
at the `$.path` of the value at fault: `_field` (one field, of a given
kind), `_dims` (a list of dimensions), `_int_keys` and `_subset_keys` (the
keys of a table by degree, axis or level, or by subset), `_complex` (a
nested chain complex) and `_parse_matrix` (a matrix of a pinned shape).

A serializer returns the document's fields; values may be matrices and
library objects with a document type, which are written as rows of
rational strings and as nested documents.  A row with no serializer is a
`Record` whose document is its fields: {slot: value} over its `__slots__`
(the disk, flag and local-star models of perverse sheaves, and finite
posets), so the record alone decides which fields its document has.
serialize_document writes the JSON text itself, byte for byte as
json.dumps(..., sort_keys=True) would (compact or with indent=2): sorted
keys, fixed separators, one trailing newline; tuples are written as lists.
A matrix goes straight from its int numerators to text, without
a string object per entry.  parse_document(serialize_document(x))
reproduces x, and serializing again reproduces the exact bytes.
"""

from __future__ import annotations

import json
import os
from importlib import import_module
from typing import Callable, Dict, Optional, Union

from .exactlin import _QUOTED, DimensionError, Matrix, _fraction, rat_str
from .record import Record

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


def _check_dim(n, path: str, cap: int) -> int:
    if _as_int(n, path) < 0:
        raise DocumentError("dimension must be nonnegative", path)
    if n > cap:
        raise DocumentError(f"dimension {n} exceeds {MAX_DIM_ENV}={cap}", path)
    return n


def check_cube_size(n: int, cap: int, path: str) -> None:
    """Exit-2 error at path when the n-cube's 2^n vertices exceed cap."""
    if n >= cap.bit_length():  # 2^n > cap
        shown = n if n < 10 ** 100 else "over 10^100"
        raise DocumentError(f"the n-cube for n = {shown} has 2^n vertices, more than "
                            f"{MAX_DIM_ENV}={cap}", path)


def check_dims(dims: Dict[int, int], cap: int, what: str, path: str = "$") -> None:
    """Exit-2 error at path when `what`, of dimension dims[k] in degree k,
    exceeds cap in some degree."""
    for k, n in dims.items():
        if n > cap:
            shown = n if n < 10 ** 100 else "over 10^100"
            raise DocumentError(f"{what} has dimension {shown} in degree {k}, which exceeds "
                                f"{MAX_DIM_ENV}={cap}", path)


def cube_subsets(n: int) -> list:
    """The 2^n subsets of {1..n}, as frozensets."""
    from itertools import compress, product
    return [frozenset(compress(range(1, n + 1), bits)) for bits in product((0, 1), repeat=n)]


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


def parse_rational(x, strict: bool, warn: Warn, path: str) -> Union[int, "Fraction"]:
    """x as an int when it is integral, else as a Fraction; only a spelling
    other than a canonical int imports `fractions`."""
    if isinstance(x, str):
        n = _canonical_int(x)
        if n is not None:  # skip Fraction's string parser
            return n
        if _exponent_too_large(x):
            raise DocumentError(f"rational exceeds {MAX_RATIONAL_DIGITS} digits", path)
        try:
            v = _fraction()(x)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"not a rational: {x!r}", path)
        if abs(v.numerator) >= _TOO_MANY_DIGITS or v.denominator >= _TOO_MANY_DIGITS:
            raise DocumentError(f"rational exceeds {MAX_RATIONAL_DIGITS} digits", path)
        if rat_str(v) != x:
            if strict:
                raise DocumentError(f"non-canonical rational {x!r}", path)
            if warn:
                warn(f"{path}: normalized non-canonical rational {x!r} to {rat_str(v)!r}")
        return v.numerator if v.denominator == 1 else v
    if isinstance(x, int) and not isinstance(x, bool):
        if strict:
            raise DocumentError("rationals must be strings in strict mode", path)
        if warn:
            warn(f"{path}: rational given as a JSON number")
        return x
    raise DocumentError(f"not a rational: {x!r}", path)


def _field(d: dict, key: str, path: str, kind=None, default=...):
    """d[key], or default when that is given and key is absent, checked by
    kind (_as_dict, _as_list or _as_int) at path.key."""
    x = d.get(key, default)
    if x is ...:
        raise DocumentError(f"missing field {key!r}", path)
    return x if kind is None else kind(x, f"{path}.{key}")


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


# str(n) -> n for the small ints `_QUOTED` writes: one lookup parses such a cell
_INT = {q[1:-1]: n for n, q in _QUOTED.items()}


def _canonical_ints(row: list) -> Optional[list]:
    """row's values when every cell is an int spelled exactly as str() spells
    it: one table lookup per cell if all are small, else one int/str round trip."""
    try:
        return list(map(_INT.__getitem__, row))
    except (KeyError, TypeError):
        pass
    try:
        if max(map(len, row), default=0) > MAX_RATIONAL_DIGITS:
            return None  # the per-cell path decides (a sign and 4300 digits pass)
        values = list(map(int, row))
    except (TypeError, ValueError):
        return None
    return values if list(map(str, values)) == row else None


def _parse_matrix(data, ctx: "_Ctx", path: str,
                  rows: Optional[int] = None, cols: Optional[int] = None) -> Matrix:
    arr = _as_list(data, path)
    r = len(arr)
    widths = set()
    ent = []
    exact = True  # every entry is an int from a row's canonical fast path
    for i, row in enumerate(arr):
        row = _as_list(row, f"{path}[{i}]")
        widths.add(len(row))
        values = _canonical_ints(row)
        if values is not None:
            ent.extend(values)
            continue
        exact = False
        for j, cell in enumerate(row):
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
    return Matrix._of(r, c, ent) if exact else Matrix(r, c, ent)


def _dims(d: dict, path: str, cap: int, fits, message: str) -> tuple:
    """d's "dims" list, whose length must pass fits (else message at
    path.dims) before any dimension is read."""
    raw = _field(d, "dims", path, _as_list)
    if not fits(len(raw)):
        raise DocumentError(message, f"{path}.dims")
    return tuple(_check_dim(x, f"{path}.dims[{i}]", cap) for i, x in enumerate(raw))


def _int_keys(table, path: str, what: str, valid=None, outside: str = ""):
    """(k, key, value) per item of the object table: a key that is not an int
    is a bad `what` key, and a k not in valid the error outside.format(k),
    both at path."""
    for key, value in _as_dict(table, path).items():
        try:
            k = int(key)
        except ValueError:
            raise DocumentError(f"bad {what} key {key!r}", path)
        if valid is not None and k not in valid:
            raise DocumentError(outside.format(k), path)
        yield k, key, value


def _subset_key(J) -> str:
    return ",".join(str(i) for i in sorted(J))


def _subset_keys(table, path: str, n: Optional[int] = None):
    """(J, key, value) per item of the object table, whose keys are subsets,
    each named by one key only, and of {1..n} when n is given; an error is
    raised at the key's path."""
    named = {}
    for key, value in _as_dict(table, path).items():
        try:
            J = frozenset(map(int, key.split(","))) if key else frozenset()
        except ValueError:
            raise DocumentError(f"bad subset key {key!r}", path)
        if n is not None and J and not (1 <= min(J) and max(J) <= n):
            raise DocumentError(f"subset has an element outside 1..{n}", f"{path}.{key}")
        if J in named:
            raise DocumentError(f"subset already named by key {named[J]!r}", f"{path}.{key}")
        named[J] = key
        yield J, key, value


class _Ctx(Record):
    __slots__ = ("strict", "warn", "cap")
    strict: bool
    warn: Warn
    cap: int


# -- per-type parsers ----------------------------------------------------------

def _parse_chain_complex(d, ctx: _Ctx, path: str) -> ChainComplex:
    from .chain import ChainComplex
    d = _as_dict(d, path)
    lo = _field(d, "lo", path, _as_int)
    hi = _field(d, "hi", path, _as_int)
    if hi < lo:
        raise DocumentError("hi < lo", path)
    dims = _dims(d, path, ctx.cap, lambda n: n == hi - lo + 1,
                 "dims length does not match lo..hi")
    table = _field(d, "differentials", path, default={})
    diffs = {k: _parse_matrix(mat, ctx, f"{path}.differentials.{key}",
                              rows=dims[k - 1 - lo], cols=dims[k - lo])
             for k, key, mat in _int_keys(table, f"{path}.differentials", "degree",
                                          range(lo + 1, hi + 1), "degree {} outside lo+1..hi")}
    return ChainComplex(lo, hi, dims, diffs)


def _complex(d: dict, key: str, ctx: _Ctx, path: str) -> ChainComplex:
    """The chain complex in d's field key."""
    return _parse_chain_complex(_field(d, key, path), ctx, f"{path}.{key}")


def _parse_map(kind, d, src: ChainComplex, tgt: ChainComplex, ctx: _Ctx, path: str):
    """The chain map or homotopy of class kind with the components by degree
    in d, each A_k -> B_{k + kind._deg}: the reader of `_components_json`."""
    return kind(src, tgt, {k: _parse_matrix(mat, ctx, f"{path}.{key}",
                                            rows=tgt.dim(k + kind._deg), cols=src.dim(k))
                           for k, key, mat in _int_keys(d, path, "degree")})


def _parse_chain_map(d: dict, ctx: _Ctx, path: str, homotopy: bool = False):
    """A chain map, or a chain homotopy (whose components raise the degree)."""
    from .chain import ChainHomotopy, ChainMap
    src = _complex(d, "source", ctx, path)
    tgt = _complex(d, "target", ctx, path)
    return _parse_map(ChainHomotopy if homotopy else ChainMap, d.get("components", {}),
                      src, tgt, ctx, f"{path}.components")


def _parse_chain_homotopy(d: dict, ctx: _Ctx, path: str) -> ChainHomotopy:
    return _parse_chain_map(d, ctx, path, homotopy=True)


# -- serializers: one per type, each returning the document without its tag --
#
# Key order does not matter: the writer sorts keys.


def _components_json(f) -> dict:
    """A chain map's or homotopy's component out of each degree k of its
    source window, where its shape is non-empty; zero where none is stored."""
    return {str(k): f._comp(k) for k, _ in f.source.support if f.target.dim(k + f._deg)}


def _chain_complex_json(C) -> dict:
    diffs = {str(k): C.d(k) for k, _ in C.support if C.dim(k - 1)}
    return {"lo": C.lo, "hi": C.hi, "dims": C.dims, "differentials": diffs}


def _chain_map_json(f) -> dict:
    """Chain maps and chain homotopies alike."""
    return {"source": f.source, "target": f.target, "components": _components_json(f)}


def _parse_matrix_document(d: dict, ctx: _Ctx, path: str) -> Matrix:
    return _parse_matrix(_field(d, "entries", path), ctx, f"{path}.entries")


# -- the table of document types -------------------------------------------------

_TYPES = (
    # (tag, module, class, parse, to_json, check): the codecs and the check
    # are functions here, or the names of functions in the type's own module;
    # a type with no serializer (None) is a Record written as its fields, and
    # a type with no check (None) has no invariants past its shape
    ("chain_complex", "chain", "ChainComplex", _parse_chain_complex, _chain_complex_json,
     "validate_complex"),
    ("chain_map", "chain", "ChainMap", _parse_chain_map, _chain_map_json, "validate_map"),
    ("chain_homotopy", "chain", "ChainHomotopy", _parse_chain_homotopy, _chain_map_json,
     "validate_map"),
    ("multicomplex", "multicplx", "MultiComplex", "_parse_multicomplex", "_multicomplex_json",
     "validate_multicomplex"),
    ("chain_cube", "multicplx", "ChainCube", "_parse_chain_cube", "_chain_cube_json",
     "validate_chain_cube"),
    ("fd_algebra", "koszul", "FDAlgebra", "_parse_fd_algebra", "_fd_algebra_json",
     lambda A: A.validate()),
    ("koszul_complex", "koszul", "KoszulSpec", "_parse_koszul", "_koszul_json",
     lambda K: K.algebra.validate()),
    ("koszul_complex", "koszul", "FreeKoszulComplex", "_parse_koszul", "_koszul_json",
     lambda K: K.algebra.validate()),
    ("perv_disk", "perverse", "PervDisk", "_parse_perv_disk", None, "validate_disk"),
    ("perv_flag", "perverse", "PervFlag", "_parse_perv_flag", None, "validate_flag"),
    ("perv_cube", "perverse", "PervCube", "_parse_perv_cube", "_perv_cube_json", "validate_cube"),
    ("local_star", "perverse", "LocalStar", "_parse_local_star", None, "validate_local_star"),
    ("sheaf_encoding", "perverse", "SheafEncoding", "_parse_sheaf_encoding",
     "_sheaf_encoding_json", "verify_encoding"),
    ("simplicial_vs", "doldkan", "SimplicialVS", "_parse_simplicial", "_simplicial_json",
     "validate_simplicial"),
    ("fin_poset", "laxmat", "FinPoset", "_parse_fin_poset", None, "validate_poset"),
    ("int_matrix", "laxmat", "IntMatrix", "_parse_int_matrix", "_int_matrix_json", None),
    ("delta1_chain_matrix", "laxmat", "Delta1ChainMatrix", "_parse_delta1", "_delta1_json",
     "validate_delta1_matrix"),
    ("matrix", "exactlin", "Matrix", _parse_matrix_document, lambda m: {"entries": m}, None),
)

_ROW_OF_TAG = {row[0]: row for row in _TYPES}
_ROW_OF_CLASS = {(f"{__package__}.{row[1]}", row[2]): row for row in _TYPES}

_PASSTHROUGH_TYPES = ("report", "homology", "monodromy", "koszul_duality")


def _codec(module: str, fn):
    """A row's parser, serializer or check: fn itself, or the function named
    fn in the row's module (imported by now when the object is of its class)."""
    return fn if callable(fn) else getattr(import_module(f".{module}", __package__), fn)


def _row_of(obj) -> Optional[tuple]:
    """The row of the nearest class in obj's MRO with a document type.

    Walking the MRO gives isinstance semantics without importing any
    domain module: obj's own classes are loaded already.
    """
    for cls in type(obj).__mro__:
        row = _ROW_OF_CLASS.get((cls.__module__, cls.__qualname__))
        if row is not None:
            return row
    return None


def tag_of(obj) -> str:
    """The document tag of obj's type, a passthrough document's own type, or
    obj's class name if it has neither."""
    if isinstance(obj, dict) and obj.get("type") in _PASSTHROUGH_TYPES:
        return obj["type"]
    row = _row_of(obj)
    return row[0] if row is not None else type(obj).__name__


def problems_of(obj) -> list:
    """The invariants obj breaks, by the check in the row of its type."""
    row = _row_of(obj)
    if row is None:
        raise DocumentError(f"validate does not support {tag_of(obj)} documents")
    return _codec(row[1], row[5])(obj) if row[5] else []


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
    row = _ROW_OF_TAG.get(tag)
    if row is None:
        raise DocumentError(f"unknown document type {tag!r}")
    try:
        return _codec(row[1], row[3])(data, ctx, "$")
    except DimensionError as e:
        raise DocumentError(str(e))


# -- the writer -----------------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it


def _write(x, out: list, nl: Optional[str]) -> None:
    """Append the JSON text of x to out.

    The text is json.dumps(x, sort_keys=True)'s, with separators (",", ":")
    when nl is None, and with indent=2 otherwise, where nl is a newline
    followed by the indentation of x's own line.  Dict keys are strings.
    A Matrix is written as its rows of rational strings, and an object
    with a document type as that document.
    """
    if isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, Matrix):
        _write_matrix(x, out, nl)
    elif isinstance(x, (dict, list, tuple)):
        brackets = "{}" if isinstance(x, dict) else "[]"
        if not x:
            out.append(brackets)
            return
        inner = None if nl is None else nl + "  "
        colon = ":" if nl is None else ": "
        items = ([(_quote(k) + colon, x[k]) for k in sorted(x)] if isinstance(x, dict)
                 else [("", v) for v in x])
        for i, (key, value) in enumerate(items):
            out.append(("," if i else brackets[0]) + (inner or "") + key)
            _write(value, out, inner)
        out.append((nl or "") + brackets[1])
    elif x is None or isinstance(x, (bool, int, float)):
        out.append(json.dumps(x))
    else:
        _write(_document(x), out, nl)


def _document(obj) -> dict:
    """obj as its tagged document, whose values may still be objects."""
    row = _row_of(obj)
    if row is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    fields = (dict(zip(obj.__slots__, obj._fields())) if row[4] is None
              else _codec(row[1], row[4])(obj))
    return {"type": row[0], **fields}


def _write_matrix(m: Matrix, out: list, nl: Optional[str]) -> None:
    if not m.rows:
        out.append("[]")
    elif nl is None:
        out.append("[[" + "],[".join(m.json_rows(",")) + "]]")
    else:
        row_nl = nl + "  "
        cell_nl = row_nl + "  "
        rows = (("[" + cell_nl + text + row_nl + "]" for text in m.json_rows("," + cell_nl))
                if m.cols else ("[]" for _ in range(m.rows)))
        out.append("[" + row_nl + ("," + row_nl).join(rows) + nl + "]")


def serialize_document(obj, pretty: bool = False) -> str:
    out = []
    _write(obj if isinstance(obj, dict) else _document(obj), out, "\n" if pretty else None)
    out.append("\n")
    return "".join(out)
