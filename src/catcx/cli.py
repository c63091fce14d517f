"""Batch command line: one JSON document per file, one result on stdout.

Exit codes are a contract: 0 success (and, for checks, "valid"); 1 a
validation failure (the input parsed but an invariant does not hold);
2 malformed input (unreadable file, bad JSON, unknown tag, wrong document
type for the subcommand, shape mismatch, oversized dimensions, bad usage).

Validation failures still print a report document to stdout, so scripts
can distinguish "invalid" from "could not read".  Warnings (for example
normalized rationals) go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .exactlin import DimensionError, rat_str
from .documents import (DocumentError, check_cube_size, check_dims, dim_cap, parse_document,
                        problems_of, serialize_document, tag_of)

# Each handler imports the modules it runs, so a call loads only what its
# subcommand needs (tests/test_lazy_imports.py lists what `import catcx.cli`
# leaves out).


class _Invalid(Exception):
    """Input parsed but failed validation; carries the report document."""

    def __init__(self, report: dict):
        super().__init__("validation failed")
        self.report = report


def _failed(e: Exception) -> _Invalid:
    """An invariant that failed while computing, reported like a failed check."""
    return _Invalid({"type": "report", "valid": False, "problems": [str(e)]})


def __getattr__(name):
    # cli used to bind koszul.koszul as `koszul_complex` at import time;
    # the name still resolves (bench/test_bench.py reads it), on first use
    if name == "koszul_complex":
        from .koszul import koszul
        return koszul
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _load(path: str, strict: bool, *tags: str):
    """The document in `path`; with tags given, it must have one of them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror or e}")
    obj = parse_document(text, strict=strict, warn=_warn)
    if tags and tag_of(obj) not in tags:
        raise DocumentError(f"expected a {' or '.join(tags)} document, found {tag_of(obj)}")
    return obj


def _report(obj, problems: List[str], extra: Optional[dict] = None) -> dict:
    doc = {"type": "report", "doc_type": tag_of(obj),
           "valid": not problems, "problems": list(problems)}
    if extra:
        doc.update(extra)
    return doc


def _require_valid(obj, problems: List[str]) -> None:
    if problems:
        raise _Invalid(_report(obj, problems))


def _valid(args, tag: str, *files: str, dims=None, check=problems_of) -> list:
    """The documents in args' `files`, each a valid `tag` document, as
    `check` (by default `problems_of`) finds it.

    All are read before any is checked, so a malformed file (exit 2) is
    reported ahead of an invalid one (exit 1).  With `dims` given,
    dims(*documents) is the result's dimension by degree, from the declared
    dimensions alone; a degree past CATCX_MAX_DIM also exits 2, before
    anything is built.
    """
    objs = [_load(getattr(args, f), args.strict, tag) for f in files]
    if dims is not None:
        check_dims(dims(*objs), dim_cap(), "the result")
    for obj in objs:
        _require_valid(obj, check(obj))
    return objs


# -- subcommand handlers -------------------------------------------------------

def cmd_validate(args, *tags: str):
    obj = _load(args.file, args.strict, *tags)
    problems = problems_of(obj)
    extra = None
    if not problems and tag_of(obj) == "perv_disk":
        from .perverse import disk_monodromies
        t_psi, t_phi = disk_monodromies(obj)
        extra = {"psi_monodromy": t_psi, "phi_monodromy": t_phi}
    return (0 if not problems else 1), _report(obj, problems, extra)


def cmd_homology(args):
    from .chain import homology_dims
    dims = homology_dims(*_valid(args, "chain_complex", "file"))
    return 0, {"type": "homology",
               "dims": {str(k): v for k, v in sorted(dims.items())}}


def _cone_dims(f) -> dict:
    """Dimension of cone(f) by degree, A_{k-1} + B_k, from the declared dimensions alone."""
    from .chain import sum_cone_dims
    return sum_cone_dims(f.source, f.target)


def cmd_cone(args):
    from .chain import cone
    return 0, cone(*_valid(args, "chain_map", "file", dims=_cone_dims)).complex


def cmd_tensor(args):
    from .chain import tensor, tensor_dims
    return 0, tensor(*_valid(args, "chain_complex", "left", "right", dims=tensor_dims))


def cmd_hom_complex(args):
    from .chain import hom_complex, hom_dims
    return 0, hom_complex(*_valid(args, "chain_complex", "left", "right", dims=hom_dims))


def cmd_totalize(args):
    from .multicplx import totalize, totalize_dims
    return 0, totalize(*_valid(args, "multicomplex", "file", dims=totalize_dims))


def cmd_koszul(args):
    from .koszul import koszul, realize
    spec, = _valid(args, "koszul_complex", "file")
    return 0, realize(koszul(spec.algebra, spec.lambdas))


def cmd_koszul_dual(args):
    from .koszul import KoszulDualityError, duality_iso, koszul
    spec, = _valid(args, "koszul_complex", "file")
    try:
        dual = duality_iso(koszul(spec.algebra, spec.lambdas))
    except KoszulDualityError as e:
        raise _failed(e)
    return 0, {"type": "koszul_duality", "n": dual.source.n,
               "target_lambdas": [[rat_str(x) for x in lam]
                                  for lam in dual.target.lambdas],
               "maps": {str(i): m.realize() for i, m in dual.maps.items()}}


def cmd_monodromy(args):
    from .perverse import disk_monodromies, flag_monodromies
    obj = _load(args.file, args.strict, "perv_disk", "perv_flag")
    _require_valid(obj, problems_of(obj))
    if tag_of(obj) == "perv_disk":
        t_psi, t_phi = disk_monodromies(obj)
        return 0, {"type": "monodromy", "psi": t_psi, "phi": t_phi}
    return 0, {"type": "monodromy", "levels": flag_monodromies(obj)}


def cmd_amalgamate(args):
    from .perverse import amalgamate
    return 0, amalgamate(*_valid(args, "perv_disk", "left", "right"))


def cmd_embed_cube(args):
    from .perverse import flag_embed_cube
    flag = _load(args.file, args.strict, "perv_flag")
    check_cube_size(len(flag.dims) - 1, dim_cap(), "$.dims")
    _require_valid(flag, problems_of(flag))
    return 0, flag_embed_cube(flag)


def cmd_encode_sheaf(args):
    from .perverse import encode_sheaf, encode_sheaf_flag
    obj = _load(args.file, args.strict, "perv_disk", "perv_flag")
    disk = tag_of(obj) == "perv_disk"
    if args.dual and not disk:
        raise DocumentError("--dual is only supported for perv_disk inputs")
    _require_valid(obj, problems_of(obj))
    return 0, encode_sheaf(obj, dual=args.dual) if disk else encode_sheaf_flag(obj)


def cmd_dk_normalize(args):
    from .doldkan import normalize
    return 0, normalize(*_valid(args, "simplicial_vs", "file"))


def cmd_dk_gamma(args):
    from .doldkan import gamma, gamma_dims

    def level_of(C):
        return args.level if args.level is not None else max(C.hi, 0)

    C, = _valid(args, "chain_complex", "file", dims=lambda C: gamma_dims(C, level_of(C)))
    return 0, gamma(C, level_of(C))


def cmd_zeta(args):
    from .laxmat import zeta
    return 0, zeta(*_valid(args, "fin_poset", "file"))


def cmd_mobius(args):
    from .laxmat import mobius
    return 0, mobius(*_valid(args, "fin_poset", "file"))


def cmd_k0_compose(args):
    from .laxmat import k0_compose
    N, M = _valid(args, "int_matrix", "left", "right")
    return 0, k0_compose(N, M, *_valid(args, "fin_poset", "middle"))


def cmd_lax_compose(args):
    from .chain import TensorMemo
    from .laxmat import lax_compose_delta1, lax_compose_dims, validate_delta1_matrix
    memo = TensorMemo()  # the checks' tensor products, reused by the composition
    N, M = _valid(args, "delta1_chain_matrix", "left", "right", dims=lax_compose_dims,
                  check=lambda D: validate_delta1_matrix(D, memo))
    return 0, lax_compose_delta1(N, M, memo)


def cmd_cof(args):
    from .laxmat import cof_action
    return 0, cof_action(*_valid(args, "chain_map", "file", dims=_cone_dims))


def cmd_fib(args):
    from .laxmat import fib_action
    # the fibre is the cone shifted down by one
    return 0, fib_action(*_valid(args, "chain_map", "file", dims=lambda f: {
        k - 1: n for k, n in _cone_dims(f).items()}))


def cmd_cc2(args):
    from .simplex import TotalizationError, cc2, cc2_dims
    try:
        return 0, cc2(*_valid(args, "chain_map", "left", "right", dims=cc2_dims)).total
    except TotalizationError as e:
        raise _failed(e)


# (name, handler, help, positional files, extra options as (flag, add_argument keywords))
_COMMANDS = (
    ("validate", cmd_validate, "check a document's invariants", ("file",), ()),
    ("homology", cmd_homology, "homology dimensions of a chain complex", ("file",), ()),
    ("cone", cmd_cone, "mapping cone of a chain map", ("file",), ()),
    ("tensor", cmd_tensor, "tensor product of two complexes", ("left", "right"), ()),
    ("hom-complex", cmd_hom_complex, "mapping complex of two complexes",
     ("left", "right"), ()),
    ("totalize", cmd_totalize, "total complex of a multicomplex", ("file",), ()),
    ("koszul", cmd_koszul, "realized Koszul complex of an algebra with lambdas",
     ("file",), ()),
    ("koszul-dual", cmd_koszul_dual, "verified self-duality data of a Koszul complex",
     ("file",), ()),
    ("monodromy", cmd_monodromy, "monodromy matrices of a disk or flag model",
     ("file",), ()),
    ("amalgamate", cmd_amalgamate, "amalgamate two disk models sharing Psi",
     ("left", "right"), ()),
    ("embed-cube", cmd_embed_cube, "embed a flag model into the n-cube model",
     ("file",), ()),
    ("encode-sheaf", cmd_encode_sheaf,
     "stalk/monodromy/homotopy encoding of a disk or flag model", ("file",),
     (("--dual", {"action": "store_true", "help": "cosheaf-style encoding (disk only)"}),)),
    ("verify-encoding", lambda args: cmd_validate(args, "sheaf_encoding"),
     "replay all encoding identities", ("file",), ()),
    ("dk-normalize", cmd_dk_normalize, "normalized chain complex of a simplicial object",
     ("file",), ()),
    ("dk-gamma", cmd_dk_gamma, "simplicial object built from a complex", ("file",),
     (("--level", {"type": int, "default": None,
                   "help": "truncation level (default: top degree)"}),)),
    ("zeta", cmd_zeta, "zeta matrix of a finite poset", ("file",), ()),
    ("mobius", cmd_mobius, "Moebius matrix of a finite poset", ("file",), ()),
    ("k0-compose", cmd_k0_compose, "compose K0 matrices over a middle poset",
     ("left", "right", "middle"), ()),
    ("lax-compose", cmd_lax_compose, "compose two Delta^1 chain matrices",
     ("left", "right"), ()),
    ("cof", cmd_cof, "cofiber action: target -> cone", ("file",), ()),
    ("fib", cmd_fib, "fiber action: fib -> source", ("file",), ()),
    ("cc2", cmd_cc2, "twisted total complex of a composable pair", ("left", "right"), ()),
)


def _build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand or with `only` that one.

    A parser with one subcommand parses that subcommand's command lines
    exactly as the full parser does, and writes the same usage and errors:
    its subcommand list is spelled as the full list in its usage line.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--strict", action="store_true",
                        help="reject non-canonical rationals instead of normalizing")
    common.add_argument("--output", metavar="FILE",
                        help="write the result document here instead of stdout")
    common.add_argument("--pretty", action="store_true",
                        help="indent the result document")

    parser = argparse.ArgumentParser(
        prog="catcx",
        description="Exact chain-level calculators for categorical complexes.")
    metavar = None if only is None else "{" + ",".join(c[0] for c in _COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, handler, help_text, files, options in _COMMANDS:
        if only is not None and name != only:
            continue
        p = sub.add_parser(name, parents=[common], help=help_text)
        for f in files:
            p.add_argument(f)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def _emit(doc, args) -> None:
    text = serialize_document(doc, pretty=args.pretty)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    named = argv[0] if argv and argv[0] in {c[0] for c in _COMMANDS} else None
    parser = _build_parser(named)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        code, doc = args.handler(args)
        _emit(doc, args)
        return code
    except _Invalid as e:
        try:
            _emit(e.report, args)
        except OSError as io_err:
            print(f"error: {io_err}", file=sys.stderr)
            return 2
        return 1
    except (DocumentError, DimensionError, OSError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
