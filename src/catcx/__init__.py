"""catcx: exact chain-level calculators for categorical complexes.

Everything is dense exact linear algebra over Q.  The package covers chain
complexes and their standard constructions (cones, shifts, tensors,
mapping complexes), multicomplexes and cubes with signed totalization,
Koszul complexes over finite-dimensional algebras with verified
self-duality, linear models of perverse sheaves (disk, flag, cube, local
star) with monodromy and sheaf-style encodings, the Dold-Kan
correspondence for truncated simplicial vector spaces, the categorified
2-simplex cochain complex, and a lax matrix calculus over Delta^1 at both
the K_0 and chain levels.  A JSON document layer and the `catcx` command
line expose all of it for batch use.

`import catcx` is lazy (PEP 562): each name in `__all__` is imported from
its defining module on first use, so a command-line call loads only the
modules its subcommand runs.
"""

import importlib
import sys
import types

_EXPORTS = {
    "exactlin": ("DimensionError", "Matrix", "Rational", "rat", "rat_str"),
    "chain": ("ChainComplex", "ChainHomotopy", "ChainMap", "Cone", "check_homotopy",
              "cone", "direct_sum", "euler_characteristic", "hom_complex",
              "homology_dims", "identity_map", "is_acyclic", "is_quasi_iso", "shift",
              "shift_map", "single", "tensor", "tensor_map", "two_term", "unit_complex",
              "validate_complex", "zero_complex", "zero_map"),
    "multicplx": ("ChainCube", "MultiComplex", "complex_to_cube",
                  "cube_from_multicomplex", "cube_total_cofiber", "permute_axes",
                  "totalize", "unfold_cube", "validate_chain_cube",
                  "validate_multicomplex"),
    "koszul": ("AlgebraError", "FDAlgebra", "FreeKoszulComplex", "KoszulDuality",
               "KoszulDualityError", "KoszulSpec", "RMatrix", "duality_iso", "koszul",
               "monomial_algebra", "realize", "subset_order"),
    "perverse": ("LocalStar", "PervCube", "PervDisk", "PervFlag", "SheafEncoding",
                 "amalgamate", "disk_monodromies", "encode_sheaf", "encode_sheaf_flag",
                 "flag_embed_cube", "flag_factorization_checks", "flag_monodromies",
                 "flag_to_disk", "validate_cube", "validate_disk", "validate_flag",
                 "validate_local_star", "verify_encoding"),
    "laxmat": ("Delta1ChainMatrix", "FinPoset", "IntMatrix", "Pushout", "Span",
               "assoc", "assoc_inv", "cof_action", "compose_entry_span", "fib",
               "fib_action", "hpushout", "k0_compose", "k0_shadow",
               "lax_compose_delta1", "mobius", "tensor_cone_left",
               "tensor_cone_right", "unit_matrix", "validate_delta1_matrix",
               "validate_poset", "zeta"),
    "simplex": ("CC2Level1", "CatCochain2Level", "TotalizationError", "cc2", "cc2_d1",
                "cc2_d2", "linear_cochain", "octahedron_witness"),
    "doldkan": ("SimplicialVS", "gamma", "normalize", "surjections",
                "validate_simplicial"),
    "documents": ("DocumentError", "parse_document", "serialize_document"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on the package under its own name.
        # `koszul` is both a submodule and a function; keep `catcx.koszul`
        # the function, whichever of the two is imported first.
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
