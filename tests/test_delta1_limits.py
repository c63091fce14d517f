"""A Delta^1 chain matrix is sized from its declared dimensions before any
tensor product is built.

Parsing sizes each cell's source and the triple product the structure
square is checked on; `lax-compose` sizes the entries of the composition
and the sources of its cells.  Past CATCX_MAX_DIM each exits 2 with one
`error:` line and an empty stdout.  Every call runs in a child whose
address space is capped (`test_derived_dims.run_capped`): at these sizes
the old code died of a MemoryError.
"""

import json
from pathlib import Path

import pytest

from test_derived_dims import run_capped

GOLDEN = Path(__file__).resolve().parent / "golden"


def _square(tmp_path, width):
    """g_src, g_tgt and all four entries dims [width, width] on 0..1, zero cells."""
    c = {"type": "chain_complex", "lo": 0, "hi": 1, "dims": [width, width]}
    doc = tmp_path / f"d{width}.json"
    doc.write_text(json.dumps({"type": "delta1_chain_matrix", "g_src": c, "g_tgt": c,
                               "entries": {k: c for k in ("0,0", "0,1", "1,0", "1,1")},
                               "cells": {"f0": {}, "0f": {}, "f1": {}, "1f": {}}}))
    return str(doc)


def _fails(result, out, errors, message):
    assert result["code"] == 2 and out == "" and errors == [f"error: {message}"]
    assert result["seconds"] < 1


CAPPED = {"CATCX_MAX_DIM": "8"}


@pytest.mark.parametrize("command", ["validate", "lax-compose"])
def test_a_wide_cell_source_exits_2(tmp_path, command):
    doc = _square(tmp_path, 40)  # g_tgt (x) E00 is 1600-dimensional in degree 0
    files = [doc] * (2 if command == "lax-compose" else 1)
    _fails(*run_capped(command, *files), "$.cells: the source of cell f0 has dimension 1600 "
           "in degree 0, which exceeds CATCX_MAX_DIM=512")
    _fails(*run_capped(command, *files, env_extra=CAPPED),
           "$.g_src.dims[0]: dimension 40 exceeds CATCX_MAX_DIM=8")


@pytest.mark.parametrize("command", ["validate", "lax-compose"])
def test_a_wide_structure_square_exits_2(tmp_path, command):
    doc = _square(tmp_path, 10)  # every cell's source fits; the square's triple does not
    files = [doc] * (2 if command == "lax-compose" else 1)
    _fails(*run_capped(command, *files), "$: the structure square's g_tgt (x) entry 0,1 (x) "
           "g_src has dimension 1000 in degree 0, which exceeds CATCX_MAX_DIM=512")
    _fails(*run_capped(command, *files, env_extra=CAPPED),
           "$.g_src.dims[0]: dimension 10 exceeds CATCX_MAX_DIM=8")


def test_a_valid_pair_whose_composition_is_too_wide_exits_2(tmp_path):
    doc = _square(tmp_path, 4)
    result, out, _ = run_capped("validate", doc)
    assert result["code"] == 0 and json.loads(out)["valid"]
    _fails(*run_capped("lax-compose", doc, doc), "$: the result has dimension 640 in "
           "degree 1, which exceeds CATCX_MAX_DIM=512")


def test_a_composition_at_the_cap_still_composes():
    # the golden pair's largest entry or cell source is 32-dimensional (degree 8)
    files = [str(GOLDEN / "inputs" / f"lax_{side}.json") for side in ("left", "right")]
    result, out, _ = run_capped("lax-compose", *files, env_extra={"CATCX_MAX_DIM": "32"})
    assert result["code"] == 0
    assert out == (GOLDEN / "expected" / "lax_compose.out").read_text()
    _fails(*run_capped("lax-compose", *files, env_extra={"CATCX_MAX_DIM": "31"}),
           "$: the result has dimension 32 in degree 8, which exceeds CATCX_MAX_DIM=31")
