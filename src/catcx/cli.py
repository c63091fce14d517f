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
from importlib import import_module
from typing import List, Optional

from .exactlin import DimensionError, rat_str
from .documents import DocumentError, parse_document, serialize_document, tag_of

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


# document tag -> (module, function) returning its problems, for the types
# whose check is one function of their own module
_CHECKS = {
    "chain_complex": ("chain", "validate_complex"),
    "multicomplex": ("multicplx", "validate_multicomplex"),
    "chain_cube": ("multicplx", "validate_chain_cube"),
    "perv_disk": ("perverse", "validate_disk"),
    "perv_flag": ("perverse", "validate_flag"),
    "perv_cube": ("perverse", "validate_cube"),
    "local_star": ("perverse", "validate_local_star"),
    "sheaf_encoding": ("perverse", "verify_encoding"),
    "simplicial_vs": ("doldkan", "validate_simplicial"),
    "fin_poset": ("laxmat", "validate_poset"),
    "delta1_chain_matrix": ("laxmat", "validate_delta1_matrix"),
}


def _problems(obj) -> List[str]:
    """The invariants `validate` checks, by document type."""
    tag = tag_of(obj)
    if tag in _CHECKS:
        module, check = _CHECKS[tag]
        return getattr(import_module(f".{module}", __package__), check)(obj)
    if tag in ("chain_map", "chain_homotopy"):
        problems = ([f"source: {m}" for m in _problems(obj.source)]
                    + [f"target: {m}" for m in _problems(obj.target)])
        return problems + obj.validate() if tag == "chain_map" else problems
    if tag == "fd_algebra":
        return obj.validate()
    if tag == "koszul_complex":
        from .koszul import AlgebraError, koszul
        problems = obj.algebra.validate()
        if not problems:
            try:
                koszul(obj.algebra, obj.lambdas)
            except AlgebraError as e:
                problems = [str(e)]
        return problems
    if tag in ("int_matrix", "matrix"):
        return []
    raise DocumentError(f"validate does not support {tag} documents")


def _valid(args, tag: str, *files: str) -> list:
    """The documents in args' `files`, each a valid `tag` document.

    All are read before any is checked, so a malformed file (exit 2) is
    reported ahead of an invalid one (exit 1).
    """
    objs = [_load(getattr(args, f), args.strict, tag) for f in files]
    for obj in objs:
        _require_valid(obj, _problems(obj))
    return objs


# -- subcommand handlers -------------------------------------------------------

def cmd_validate(args):
    obj = _load(args.file, args.strict)
    problems = _problems(obj)
    extra = None
    if not problems and tag_of(obj) == "perv_disk":
        from .perverse import disk_monodromies
        t_psi, t_phi = disk_monodromies(obj)
        extra = {"psi_monodromy": t_psi.to_str_lists(),
                 "phi_monodromy": t_phi.to_str_lists()}
    return (0 if not problems else 1), _report(obj, problems, extra)


def cmd_homology(args):
    from .chain import homology_dims
    dims = homology_dims(*_valid(args, "chain_complex", "file"))
    return 0, {"type": "homology",
               "dims": {str(k): v for k, v in sorted(dims.items())}}


def cmd_cone(args):
    from .chain import cone
    return 0, cone(*_valid(args, "chain_map", "file")).complex


def cmd_tensor(args):
    from .chain import tensor
    return 0, tensor(*_valid(args, "chain_complex", "left", "right"))


def cmd_hom_complex(args):
    from .chain import hom_complex
    return 0, hom_complex(*_valid(args, "chain_complex", "left", "right"))


def cmd_totalize(args):
    from .multicplx import totalize
    return 0, totalize(*_valid(args, "multicomplex", "file"))


def _koszul_input(args):
    # only the algebra is checked here: a differential that fails d.d = 0
    # surfaces from the construction itself
    spec = _load(args.file, args.strict, "koszul_complex")
    _require_valid(spec, spec.algebra.validate())
    return spec


def cmd_koszul(args):
    from .koszul import AlgebraError, koszul, realize
    spec = _koszul_input(args)
    try:
        return 0, realize(koszul(spec.algebra, spec.lambdas))
    except AlgebraError as e:
        raise _failed(e)


def cmd_koszul_dual(args):
    from .koszul import AlgebraError, KoszulDualityError, duality_iso, koszul
    spec = _koszul_input(args)
    try:
        K = koszul(spec.algebra, spec.lambdas)
        dual = duality_iso(K)
    except (AlgebraError, KoszulDualityError) as e:
        raise _failed(e)
    return 0, {"type": "koszul_duality", "n": K.n,
               "target_lambdas": [[rat_str(x) for x in lam]
                                  for lam in dual.target.lambdas],
               "maps": {str(i): m.realize().to_str_lists()
                        for i, m in sorted(dual.maps.items())}}


def cmd_monodromy(args):
    from .perverse import disk_monodromies, flag_monodromies
    obj = _load(args.file, args.strict, "perv_disk", "perv_flag")
    _require_valid(obj, _problems(obj))
    if tag_of(obj) == "perv_disk":
        t_psi, t_phi = disk_monodromies(obj)
        return 0, {"type": "monodromy", "psi": t_psi.to_str_lists(),
                   "phi": t_phi.to_str_lists()}
    return 0, {"type": "monodromy",
               "levels": [t.to_str_lists() for t in flag_monodromies(obj)]}


def cmd_amalgamate(args):
    from .perverse import amalgamate
    return 0, amalgamate(*_valid(args, "perv_disk", "left", "right"))


def cmd_embed_cube(args):
    from .perverse import flag_embed_cube
    return 0, flag_embed_cube(*_valid(args, "perv_flag", "file"))


def cmd_encode_sheaf(args):
    from .perverse import encode_sheaf, encode_sheaf_flag
    obj = _load(args.file, args.strict, "perv_disk", "perv_flag")
    disk = tag_of(obj) == "perv_disk"
    if args.dual and not disk:
        raise DocumentError("--dual is only supported for perv_disk inputs")
    _require_valid(obj, _problems(obj))
    return 0, encode_sheaf(obj, dual=args.dual) if disk else encode_sheaf_flag(obj)


def cmd_verify_encoding(args):
    E = _load(args.file, args.strict, "sheaf_encoding")
    problems = _problems(E)
    return (0 if not problems else 1), _report(E, problems)


def cmd_dk_normalize(args):
    from .doldkan import normalize
    return 0, normalize(*_valid(args, "simplicial_vs", "file"))


def cmd_dk_gamma(args):
    from .doldkan import gamma
    C, = _valid(args, "chain_complex", "file")
    level = args.level if args.level is not None else max(C.hi, 0)
    return 0, gamma(C, level)


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
    from .laxmat import lax_compose_delta1
    return 0, lax_compose_delta1(*_valid(args, "delta1_chain_matrix", "left", "right"))


def cmd_cof(args):
    from .laxmat import cof_action
    return 0, cof_action(*_valid(args, "chain_map", "file"))


def cmd_fib(args):
    from .laxmat import fib_action
    return 0, fib_action(*_valid(args, "chain_map", "file"))


def cmd_cc2(args):
    from .simplex import TotalizationError, cc2
    try:
        return 0, cc2(*_valid(args, "chain_map", "left", "right")).total
    except TotalizationError as e:
        raise _failed(e)


def _build_parser() -> argparse.ArgumentParser:
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
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, files=("file",)):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for f in files:
            p.add_argument(f)
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, "check a document's invariants")
    add("homology", cmd_homology, "homology dimensions of a chain complex")
    add("cone", cmd_cone, "mapping cone of a chain map")
    add("tensor", cmd_tensor, "tensor product of two complexes", ("left", "right"))
    add("hom-complex", cmd_hom_complex, "mapping complex of two complexes",
        ("left", "right"))
    add("totalize", cmd_totalize, "total complex of a multicomplex")
    add("koszul", cmd_koszul, "realized Koszul complex of an algebra with lambdas")
    add("koszul-dual", cmd_koszul_dual, "verified self-duality data of a Koszul complex")
    add("monodromy", cmd_monodromy, "monodromy matrices of a disk or flag model")
    add("amalgamate", cmd_amalgamate, "amalgamate two disk models sharing Psi",
        ("left", "right"))
    add("embed-cube", cmd_embed_cube, "embed a flag model into the n-cube model")
    p_enc = add("encode-sheaf", cmd_encode_sheaf,
                "stalk/monodromy/homotopy encoding of a disk or flag model")
    p_enc.add_argument("--dual", action="store_true",
                       help="cosheaf-style encoding (disk only)")
    add("verify-encoding", cmd_verify_encoding, "replay all encoding identities")
    add("dk-normalize", cmd_dk_normalize, "normalized chain complex of a simplicial object")
    p_gamma = add("dk-gamma", cmd_dk_gamma, "simplicial object built from a complex")
    p_gamma.add_argument("--level", type=int, default=None,
                         help="truncation level (default: top degree)")
    add("zeta", cmd_zeta, "zeta matrix of a finite poset")
    add("mobius", cmd_mobius, "Moebius matrix of a finite poset")
    add("k0-compose", cmd_k0_compose, "compose K0 matrices over a middle poset",
        ("left", "right", "middle"))
    add("lax-compose", cmd_lax_compose, "compose two Delta^1 chain matrices",
        ("left", "right"))
    add("cof", cmd_cof, "cofiber action: target -> cone", ("file",))
    add("fib", cmd_fib, "fiber action: fib -> source", ("file",))
    add("cc2", cmd_cc2, "twisted total complex of a composable pair", ("left", "right"))
    return parser


def _emit(doc, args) -> None:
    text = serialize_document(doc, pretty=args.pretty)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
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
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DimensionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
