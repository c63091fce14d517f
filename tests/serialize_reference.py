"""Reference serializer: every matrix entry as a `str`, then `json.dumps`.

This is how `catcx.documents` wrote documents before it wrote JSON text
itself: each type's serializer turned every matrix into lists of rational
strings (`Matrix.to_str_lists`) and every nested object into a dict, and
`json.dumps(..., sort_keys=True)` wrote the result.  Here the strings are
spelled from each entry as a `Fraction`, so the oracle shares no code with
the package's writer.  It is kept only as the oracle for the byte-identity
tests in `test_serialize_text.py`; nothing in the package imports it.
"""

from __future__ import annotations

import json

from catcx.exactlin import Matrix


def rat_str(x) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def to_str_lists(m: Matrix) -> list:
    return [[rat_str(x) for x in m.row(i)] for i in range(m.rows)]


def _subset_key(J) -> str:
    return ",".join(str(i) for i in sorted(J))


def _deg_key(a) -> str:
    return ",".join(str(x) for x in a)


def _components_json(comps) -> dict:
    return {str(k): to_str_lists(m) for k, m in comps.items() if m.rows and m.cols}


def _chain_complex_json(C) -> dict:
    diffs = {}
    for k in range(C.lo + 1, C.hi + 1):
        m = C.d(k)
        if m.rows and m.cols:
            diffs[str(k)] = to_str_lists(m)
    return {"lo": C.lo, "hi": C.hi, "dims": list(C.dims), "differentials": diffs}


def _chain_map_json(f) -> dict:
    return {"source": to_jsonable(f.source), "target": to_jsonable(f.target),
            "components": _components_json(f.comps)}


def _multicomplex_json(M) -> dict:
    diffs = {}
    for j in range(1, M.n + 1):
        table = {}
        for a, m in M.diffs.get(j, {}).items():
            if m.rows and m.cols:
                table[_deg_key(a)] = to_str_lists(m)
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
    return {"n": Q.n, "vertices": {_subset_key(J): to_jsonable(v)
                                   for J, v in Q.vertices.items()},
            "edges": edges}


def _fd_algebra_json(A) -> dict:
    return {"dim": A.dim,
            "structure": [[[rat_str(x) for x in row] for row in plane]
                          for plane in A.structure],
            "unit": [rat_str(x) for x in A.unit]}


def _koszul_json(K) -> dict:
    return {"algebra": to_jsonable(K.algebra),
            "lambdas": [[rat_str(x) for x in lam] for lam in K.lambdas]}


def _perv_cube_json(P) -> dict:
    def side(table):
        return {str(i): {_subset_key(J): to_str_lists(m) for J, m in sub.items()}
                for i, sub in table.items()}
    return {"n": P.n, "dims": {_subset_key(J): v for J, v in P.dims.items()},
            "f": side(P.f), "g": side(P.g)}


def _sheaf_encoding_json(E) -> dict:
    return {"dual": E.dual, "stalks": [to_jsonable(s) for s in E.stalks],
            "maps": [_components_json(m.comps) for m in E.maps],
            "monodromies": [_components_json(m.comps) for m in E.monodromies],
            "homotopies": [_components_json(h.comps) for h in E.homotopies]}


def _simplicial_json(X) -> dict:
    def ops(table):
        return {str(n): [to_str_lists(m) for m in maps] for n, maps in table.items()}
    return {"N": X.n_max, "dims": list(X.dims),
            "faces": ops(X.faces), "degeneracies": ops(X.degeneracies)}


def _delta1_json(N) -> dict:
    return {"g_src": to_jsonable(N.g_src), "g_tgt": to_jsonable(N.g_tgt),
            "entries": {f"{t},{s}": to_jsonable(N.entry(t, s))
                        for t in (0, 1) for s in (0, 1)},
            "cells": {"f0": _components_json(N.cell_f0.comps),
                      "0f": _components_json(N.cell_0f.comps),
                      "f1": _components_json(N.cell_f1.comps),
                      "1f": _components_json(N.cell_1f.comps)}}


# class name -> (tag, serializer); subclasses are not used in the tests
_TYPES = {
    "ChainComplex": ("chain_complex", _chain_complex_json),
    "ChainMap": ("chain_map", _chain_map_json),
    "ChainHomotopy": ("chain_homotopy", _chain_map_json),
    "MultiComplex": ("multicomplex", _multicomplex_json),
    "ChainCube": ("chain_cube", _chain_cube_json),
    "FDAlgebra": ("fd_algebra", _fd_algebra_json),
    "KoszulSpec": ("koszul_complex", _koszul_json),
    "FreeKoszulComplex": ("koszul_complex", _koszul_json),
    "PervDisk": ("perv_disk", lambda P: {"f": to_str_lists(P.f), "g": to_str_lists(P.g)}),
    "PervFlag": ("perv_flag", lambda P: {"dims": list(P.dims),
                                         "d": [to_str_lists(m) for m in P.d],
                                         "delta": [to_str_lists(m) for m in P.delta]}),
    "PervCube": ("perv_cube", _perv_cube_json),
    "LocalStar": ("local_star", lambda S: {"f": [to_str_lists(m) for m in S.f],
                                           "g": [to_str_lists(m) for m in S.g]}),
    "SheafEncoding": ("sheaf_encoding", _sheaf_encoding_json),
    "SimplicialVS": ("simplicial_vs", _simplicial_json),
    "FinPoset": ("fin_poset", lambda P: {"labels": list(P.labels),
                                         "leq": [list(row) for row in P.leq]}),
    "IntMatrix": ("int_matrix", lambda M: {"row_labels": list(M.row_labels),
                                           "col_labels": list(M.col_labels),
                                           "entries": [list(row) for row in M.entries]}),
    "Delta1ChainMatrix": ("delta1_chain_matrix", _delta1_json),
    "Matrix": ("matrix", lambda m: {"entries": to_str_lists(m)}),
}


def to_jsonable(obj):
    """obj as plain JSON data.  A dict is taken as a finished document,
    except that a Matrix value in it becomes its rows of strings, as the
    command line used to convert result matrices itself."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    tag, to_json = _TYPES[type(obj).__name__]
    return {"type": tag, **to_json(obj)}


def _plain(v):
    if isinstance(v, Matrix):
        return to_str_lists(v)
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def serialize_document(obj, pretty: bool = False) -> str:
    data = to_jsonable(obj)
    if pretty:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    return json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"
