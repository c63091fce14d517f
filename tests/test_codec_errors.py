"""Every message a document codec raises, pinned with its `$.path`.

Each case parses one small document that is wrong in one place and asserts
the exact text of the DocumentError, so the codecs can be rewritten without
changing a message a user or a script may match on.
"""

import json

import pytest

from catcx.documents import DocumentError, parse_document

DROP = object()


def put(doc: dict, path: str, value) -> dict:
    """A deep copy of doc with the field at the dotted path set (or dropped)."""
    out = json.loads(json.dumps(doc))  # no part shared with doc, or within it
    *parents, last = path.split(".")
    node = out
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        node[int(last)] = value
    elif value is DROP:
        del node[last]
    else:
        node[last] = value
    return out


CX = {"lo": 0, "hi": 1, "dims": [1, 1], "differentials": {"1": [["1"]]}}
ZERO = {"lo": 0, "hi": 0, "dims": [0]}
ALG = {"dim": 1, "structure": [[["1"]]], "unit": ["1"]}

DOCS = {
    "chain_complex": CX,
    "chain_map": {"source": CX, "target": CX, "components": {"0": [["1"]], "1": [["1"]]}},
    "chain_homotopy": {"source": CX, "target": CX, "components": {"0": [["1"]]}},
    "multicomplex": {"n": 2, "support": {"lo": [0, 0], "hi": [1, 0]},
                     "dims": {"0,0": 1, "1,0": 1},
                     "differentials": {"1": {"1,0": [["1"]]}}},
    "chain_cube": {"n": 1, "vertices": {"": ZERO, "1": ZERO}, "edges": {"1": {"1": {}}}},
    "fd_algebra": ALG,
    "koszul_complex": {"algebra": ALG, "lambdas": [["1"]]},
    "perv_disk": {"f": [["1"]], "g": [["1"]]},
    "perv_flag": {"dims": [1, 1], "d": [[["0"]]], "delta": [[["0"]]]},
    "perv_cube": {"n": 1, "dims": {"": 1, "1": 1},
                  "f": {"1": {"": [["0"]]}}, "g": {"1": {"": [["0"]]}}},
    "local_star": {"f": [[["1"]]], "g": [[["1"]]]},
    "sheaf_encoding": {"dual": False, "stalks": [CX, CX],
                       "maps": [{}], "monodromies": [{}], "homotopies": [{}]},
    "simplicial_vs": {"N": 1, "dims": [1, 1], "faces": {"1": [[["1"]], [["1"]]]},
                      "degeneracies": {"0": [[["1"]]]}},
    "fin_poset": {"labels": ["a", "b"], "leq": [[True, True], [False, True]]},
    "int_matrix": {"row_labels": ["a"], "col_labels": ["b"], "entries": [[1]]},
    "delta1_chain_matrix": {"g_src": ZERO, "g_tgt": ZERO,
                            "entries": {k: ZERO for k in ("0,0", "0,1", "1,0", "1,1")},
                            "cells": {k: {} for k in ("f0", "0f", "f1", "1f")}},
    "matrix": {"entries": [["1"]]},
}


def doc(tag: str, path: str = None, value=None) -> dict:
    base = {"type": tag, **DOCS[tag]}
    return base if path is None else put(base, path, value)


# (document, strict, the DocumentError's text)
CASES = [
    # the document layer
    ("[1]", False, "$: top level must be an object"),
    ({"lo": 0}, False, "$: missing or non-string 'type' field"),
    ({"type": "nope"}, False, "$: unknown document type 'nope'"),
    # fields and their kinds
    (doc("chain_complex", "lo", DROP), False, "$: missing field 'lo'"),
    (doc("chain_complex", "hi", "1"), False, "$.hi: expected an integer"),
    (doc("chain_complex", "dims", {}), False, "$.dims: expected an array"),
    (doc("chain_complex", "differentials", []), False, "$.differentials: expected an object"),
    (doc("chain_map", "source", []), False, "$.source: expected an object"),
    (doc("chain_map", "target.dims", DROP), False, "$.target: missing field 'dims'"),
    (doc("koszul_complex", "algebra.dim", True), False, "$.algebra.dim: expected an integer"),
    (doc("multicomplex", "support.hi", DROP), False, "$.support: missing field 'hi'"),
    (doc("multicomplex", "support.lo", [0, "0"]), False, "$.support.lo: expected an integer"),
    # dimensions
    (doc("chain_complex", "dims", [1, -1]), False, "$.dims[1]: dimension must be nonnegative"),
    (doc("chain_complex", "dims", [1, 513]), False,
     "$.dims[1]: dimension 513 exceeds CATCX_MAX_DIM=512"),
    (doc("perv_flag", "dims", [1, 1.5]), False, "$.dims[1]: expected an integer"),
    (doc("perv_cube", "dims", {"": "1"}), False, "$.dims.: expected an integer"),
    (doc("multicomplex", "dims", {"0,0": -2}), False,
     "$.dims.0,0: dimension must be nonnegative"),
    # rationals
    (doc("matrix", "entries", [["x"]]), False, "$.entries[0][0]: not a rational: 'x'"),
    (doc("matrix", "entries", [[None]]), False, "$.entries[0][0]: not a rational: None"),
    (doc("matrix", "entries", [["1e5000"]]), False,
     "$.entries[0][0]: rational exceeds 4300 digits"),
    (doc("matrix", "entries", [["4/6"]]), True, "$.entries[0][0]: non-canonical rational '4/6'"),
    (doc("matrix", "entries", [[1]]), True,
     "$.entries[0][0]: rationals must be strings in strict mode"),
    (doc("fd_algebra", "unit", ["1/0"]), False, "$.unit[0]: not a rational: '1/0'"),
    (doc("koszul_complex", "lambdas", [[True]]), False, "$.lambdas[0][0]: not a rational: True"),
    # matrix shapes
    (doc("matrix", "entries", "1"), False, "$.entries: expected an array"),
    (doc("matrix", "entries", [["1"], "1"]), False, "$.entries[1]: expected an array"),
    (doc("matrix", "entries", [["1"], ["1", "2"]]), False, "$.entries: ragged matrix"),
    (doc("perv_disk", "g", [["1"], ["1"]]), False, "$.g: expected 1 rows, found 2"),
    (doc("perv_disk", "g", [["1", "1"]]), False, "$.g: expected 1 columns, found 2"),
    (doc("chain_complex", "differentials", {"1": []}), False,
     "$.differentials.1: expected 1 rows, found 0"),
    # chain complexes, maps and homotopies
    (doc("chain_complex", "hi", -1), False, "$: hi < lo"),
    (doc("chain_complex", "dims", [1]), False, "$.dims: dims length does not match lo..hi"),
    (doc("chain_complex", "differentials", {"x": []}), False,
     "$.differentials: bad degree key 'x'"),
    (doc("chain_complex", "differentials", {"0": []}), False,
     "$.differentials: degree 0 outside lo+1..hi"),
    (doc("chain_map", "components", {"1.0": []}), False, "$.components: bad degree key '1.0'"),
    (doc("chain_map", "components", {"0": [["1", "0"]]}), False,
     "$.components.0: expected 1 columns, found 2"),
    (doc("chain_homotopy", "components", {"1": [["1"]]}), False,
     "$.components.1: expected 0 rows, found 1"),
    (doc("chain_map", "components", []), False, "$.components: expected an object"),
    # multicomplexes
    (doc("multicomplex", "n", 0), False, "$.n: n must be at least 1"),
    (doc("multicomplex", "support", []), False, "$.support: expected an object"),
    (doc("multicomplex", "support.lo", [0]), False,
     "$.support: support bounds must have one entry per axis"),
    (doc("multicomplex", "support.hi", [600, 0]), False,
     "$.support: the support box holds more than CATCX_MAX_DIM=512 multidegrees"),
    (doc("multicomplex", "dims", {"0": 1}), False, "$.dims: multidegree '0' needs 2 entries"),
    (doc("multicomplex", "dims", {"0,a": 1}), False, "$.dims: bad multidegree key '0,a'"),
    (doc("multicomplex", "differentials", {"a": {}}), False,
     "$.differentials: bad axis key 'a'"),
    (doc("multicomplex", "differentials", {"3": {}}), False,
     "$.differentials: axis 3 out of range"),
    (doc("multicomplex", "differentials", {"1": []}), False,
     "$.differentials.1: expected an object"),
    (doc("multicomplex", "differentials", {"1": {"1": []}}), False,
     "$.differentials.1: multidegree '1' needs 2 entries"),
    (doc("multicomplex", "differentials", {"1": {"1,0": [["1", "1"]]}}), False,
     "$.differentials.1.1,0: expected 1 columns, found 2"),
    (doc("multicomplex", "support.hi", [-1, 0]), False, "$: empty support box"),
    # cubes of complexes
    (doc("chain_cube", "n", "1"), False, "$.n: expected an integer"),
    (doc("chain_cube", "vertices", {"x": ZERO}), False, "$.vertices: bad subset key 'x'"),
    (doc("chain_cube", "vertices.1", []), False, "$.vertices.1: expected an object"),
    (doc("chain_cube", "vertices.1", {"lo": 0}), False, "$.vertices.1: missing field 'hi'"),
    (doc("chain_cube", "edges", {"a": {}}), False, "$.edges: bad axis key 'a'"),
    (doc("chain_cube", "edges", {"1": {"1,2": {}}}), False,
     "$.edges.1: edge at '1,2' references missing vertices"),
    (doc("chain_cube", "edges", {"1": {"1": {"0": [["1"]]}}}), False,
     "$.edges.1.1.0: expected 0 rows, found 1"),
    (put(doc("chain_cube", "vertices", {"": ZERO}), "edges", {}), False,
     "$: missing vertex [1]"),
    (doc("chain_cube", "edges", {}), False, "$: missing edge along axis 1 at [1]"),
    # perverse models
    (doc("perv_disk", "f", DROP), False, "$: missing field 'f'"),
    (doc("perv_flag", "dims", []), False, "$.dims: dims must be nonempty"),
    (doc("perv_flag", "d", []), False, "$: need exactly 1 maps in d and delta"),
    (doc("perv_flag", "delta", [[["0", "0"]]]), False, "$.delta[0]: expected 1 columns, found 2"),
    (doc("perv_cube", "n", 0), False, "$.n: n must be at least 1"),
    (doc("perv_cube", "n", 10), False,
     "$.n: the n-cube for n = 10 has 2^n vertices, more than CATCX_MAX_DIM=512"),
    (doc("perv_cube", "dims", {"1,x": 1}), False, "$.dims: bad subset key '1,x'"),
    (doc("perv_cube", "f", {"x": {}}), False, "$.f: bad axis key 'x'"),
    (doc("perv_cube", "g", {"1": {"a": []}}), False, "$.g.1: bad subset key 'a'"),
    (doc("perv_cube", "g", {"1": []}), False, "$.g.1: expected an object"),
    (doc("perv_cube", "f", {"1": {"": [["0", "0"]]}}), False,
     "$.f.1.: expected 1 columns, found 2"),
    (doc("local_star", "g", []), False, "$: f and g must be nonempty lists of equal length"),
    (doc("local_star", "g", [[["1", "1"]]]), False, "$.g[0]: expected 1 columns, found 2"),
    (doc("sheaf_encoding", "dual", 0), False, "$.dual: dual must be a boolean"),
    (doc("sheaf_encoding", "stalks", []), False, "$.stalks: need at least one stalk"),
    (doc("sheaf_encoding", "stalks", [CX, 1]), False, "$.stalks[1]: expected an object"),
    (doc("sheaf_encoding", "homotopies", []), False,
     "$: need exactly 1 maps, monodromies and homotopies"),
    (doc("sheaf_encoding", "maps", [{"x": []}]), False, "$.maps[0]: bad degree key 'x'"),
    (doc("sheaf_encoding", "homotopies", [{"1": [["1"]]}]), False,
     "$.homotopies[0].1: expected 0 rows, found 1"),
    # Koszul inputs
    (doc("fd_algebra", "structure", []), False, "$.structure: structure must have dim planes"),
    (doc("fd_algebra", "structure", [[]]), False, "$.structure[0]: plane has wrong size"),
    (doc("fd_algebra", "structure", [[[]]]), False, "$.structure[0][0]: row has wrong size"),
    (doc("fd_algebra", "structure", [[1]]), False, "$.structure[0][0]: expected an array"),
    (doc("fd_algebra", "unit", []), False, "$.unit: unit vector has wrong length"),
    (doc("fd_algebra", "dim", -1), False, "$.dim: dimension must be nonnegative"),
    (doc("koszul_complex", "lambdas", [["1"]] * 12), False,
     "$.lambdas: 12 lambdas over a 1-dimensional algebra imply a degree of dimension 924, "
     "which exceeds CATCX_MAX_DIM=512"),
    (doc("koszul_complex", "lambdas", [["1", "0"]]), False,
     "$.lambdas[0]: lambda vector has wrong length"),
    (doc("koszul_complex", "lambdas", ["1"]), False, "$.lambdas[0]: expected an array"),
    # simplicial objects
    (doc("simplicial_vs", "N", -1), False, "$.N: N must be nonnegative"),
    (doc("simplicial_vs", "dims", [1]), False, "$.dims: dims must list X_0..X_N"),
    (doc("simplicial_vs", "faces", {"x": []}), False, "$.faces: bad level key 'x'"),
    (doc("simplicial_vs", "faces", {"2": []}), False, "$.faces: level 2 out of range"),
    (doc("simplicial_vs", "degeneracies", {"0": [[["1"]], [["1"]]]}), False,
     "$.degeneracies.0: level 0 needs 1 maps"),
    (doc("simplicial_vs", "faces", {"1": {}}), False, "$.faces.1: expected an array"),
    (doc("simplicial_vs", "faces", {"1": [[["1"]], [["1", "1"]]]}), False,
     "$.faces.1[1]: expected 1 columns, found 2"),
    (doc("simplicial_vs", "faces", {}), False, "$: need faces d_0..d_1 at level 1"),
    (doc("simplicial_vs", "degeneracies", DROP), False, "$: missing field 'degeneracies'"),
    # posets and integer matrices
    (doc("fin_poset", "labels", ["a", 1]), False, "$.labels[1]: labels must be strings"),
    (doc("fin_poset", "labels", ["a", "a"]), False, "$.labels: labels must be distinct"),
    (doc("fin_poset", "leq", [[True, True]]), False,
     "$.leq: leq must be square over the labels"),
    (doc("fin_poset", "leq", [[True, True], [False]]), False,
     "$.leq[1]: leq must be square over the labels"),
    (doc("fin_poset", "leq", [[True, 1], [False, True]]), False,
     "$.leq[0][1]: leq entries must be booleans"),
    (doc("int_matrix", "col_labels", [2]), False, "$: labels must be strings"),
    (doc("int_matrix", "entries", []), False, "$.entries: entry rows do not match row_labels"),
    (doc("int_matrix", "entries", [[1, 2]]), False,
     "$.entries[0]: entry row width does not match col_labels"),
    (doc("int_matrix", "entries", [["1"]]), False, "$.entries[0][0]: expected an integer"),
    (doc("int_matrix", "row_labels", "a"), False, "$.row_labels: expected an array"),
    # Delta^1 chain matrices
    (doc("delta1_chain_matrix", "g_src", DROP), False, "$: missing field 'g_src'"),
    (doc("delta1_chain_matrix", "entries", {"0,0": ZERO}), False,
     "$.entries: missing entry '0,1'"),
    (doc("delta1_chain_matrix", "entries.1,1", []), False, "$.entries.1,1: expected an object"),
    (doc("delta1_chain_matrix", "cells", {}), False, "$.cells: missing cell 'f0'"),
    (doc("delta1_chain_matrix", "cells.1f", {"x": []}), False, "$.cells.1f: bad degree key 'x'"),
    (doc("delta1_chain_matrix", "cells", []), False, "$.cells: expected an object"),
]


def _id(case):
    text = case[2]
    return text if len(text) < 60 else text[:57] + "..."


@pytest.mark.parametrize("document, strict, message", CASES, ids=[_id(c) for c in CASES])
def test_each_codec_message_is_pinned(document, strict, message):
    text = document if isinstance(document, str) else json.dumps(document)
    with pytest.raises(DocumentError) as err:
        parse_document(text, strict=strict)
    assert str(err.value) == message


def test_every_type_has_a_valid_base_document():
    # the cases above differ from these in one place only
    for tag in DOCS:
        parse_document(json.dumps(doc(tag)), strict=True)
