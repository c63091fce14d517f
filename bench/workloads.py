"""The workloads: seeded inputs, the fixed op list, and the checks.

A workload's set-up builds every input from the seed and returns the list
of operations one pass runs.  Library ops call the paper-level functions
in this process; CLI ops run `catcx.cli:main` in a fresh interpreter on
documents written to a work directory.  Each op carries a check that
runs outside the timed region and tests an invariant the op does not
compute itself.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

import helpers
import catcx.chain as chain
import catcx.doldkan as doldkan
import catcx.laxmat as laxmat
import catcx.multicplx as multicplx
import catcx.perverse as perverse
import catcx.simplex as simplex
from catcx.documents import parse_document, serialize_document
from catcx.exactlin import Matrix
from catcx.koszul import FDAlgebra, koszul
from catcx.laxmat import IntMatrix

import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_ENTRY = "from catcx.cli import main; main()"

Check = Callable[[object], Optional[str]]


@dataclass
class LibOp:
    name: str
    fn: Callable
    args: tuple
    check: Check


@dataclass
class CliOp:
    name: str
    argv: List[str]
    code: int
    check: Optional[Check] = None  # semantic check on the parsed document


@dataclass
class Workload:
    kind: str                     # "lib" or "cli"
    ops: list
    workdir: str
    docs: dict = field(default_factory=dict)   # CLI documents by file name


def _describe(x) -> str:
    if isinstance(x, (bool, int, str, Fraction)) or x is None:
        return repr(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_describe(y) for y in x) + ")"
    return serialize_document(x)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def cli_command(argv: List[str]) -> List[str]:
    return [sys.executable, "-c", CLI_ENTRY, *argv]


# -- library workloads -----------------------------------------------------------

def _expect(ok: bool, what: str) -> Optional[str]:
    return None if ok else what


def _check_amalgam(p, q):
    def check(result):
        t_psi = perverse.disk_monodromies(p)[0] * perverse.disk_monodromies(q)[0]
        return _expect(result[0] == t_psi, "amalgam monodromy is not the product")
    return check


def _check_flag(fl):
    def check(ts):
        for k in range(fl.n + 1):
            ident = Matrix.identity(fl.dims[k])
            a = ident - fl.d[k - 1] * fl.delta[k - 1] if k > 0 else ident
            b = ident - fl.delta[k] * fl.d[k] if k < fl.n else ident
            if ts[k] != a * b:
                return f"flag monodromy T_{k} != (1 - d delta)(1 - delta d)"
        return None
    return check


def _encode_verify(encode, *args):
    enc = encode(*args)
    return enc, perverse.verify_encoding(enc)


def _check_encoding(seed):
    def check(result):
        enc, problems = result
        if problems:
            return f"encoding does not verify: {problems[0]}"
        tampered = helpers.tampered_monodromy(enc, random.Random(seed))
        return _expect(perverse.verify_encoding(tampered) != [],
                       "tampered encoding verifies")
    return check


def _check_equal(expected, what):
    return lambda result: _expect(result == expected, what)


def _check_acyclic(result):
    return _expect(chain.is_acyclic(result.total), "cc2 total complex is not acyclic")


def _check_homology(expected):
    def check(dims):
        got = {k: v for k, v in dims.items() if v}
        want = {k: v for k, v in expected.items() if v}
        return _expect(got == want, f"homology {got} != recorded {want}")
    return check


def _check_lax(n, m):
    def check(out):
        chi = chain.euler_characteristic(m.g_tgt)
        weight = IntMatrix(("0", "1"), ("0", "1"), [[1, 0], [-chi, 1]])
        return _expect(laxmat.k0_shadow(out)
                       == laxmat.k0_shadow(n) * weight * laxmat.k0_shadow(m),
                       "k0_shadow(N.M) != k0_shadow(N) W k0_shadow(M)")
    return check


def _k0_op(a, b, c, x, y):
    return laxmat.k0_compose(c, laxmat.k0_compose(b, a, x), y), laxmat.mobius(y)


def _check_k0(a, b, c, x, y):
    def check(result):
        other = laxmat.k0_compose(laxmat.k0_compose(c, b, y), a, x)
        if result[0] != other:
            return "k0_compose is not associative"
        n = len(y.labels)
        ident = IntMatrix(y.labels, y.labels, [[int(i == j) for j in range(n)]
                                               for i in range(n)])
        return _expect(laxmat.zeta(y) * result[1] == ident, "zeta * mobius != 1")
    return check


def _k0_inputs(rng):
    x = inputs.poset(rng, 4)
    y = inputs.poset(rng, 5)

    def mat(rows, cols):
        return IntMatrix(rows, cols, [[rng.randint(-4, 4) for _ in cols] for _ in rows])
    return (mat(x.labels, ("w0", "w1")), mat(y.labels, x.labels),
            mat(("z0",), y.labels), x, y)


def _column(rng, n):
    return Matrix(n, 1, [rng.randint(-3, 3) for _ in range(n)])


def _kernel_from_rref(R, pivots, cols):
    pivset = set(pivots)
    out = []
    for fc in (c for c in range(cols) if c not in pivset):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r, fc]
        out.append(Matrix(cols, 1, v))
    return out


def _raw_ops(rng, n, rational):
    """Matrix mul, rank, rref, invert, solve and kernel_basis at side n."""
    def scaled(m):
        if not rational:
            return m
        return inputs.rescale(m, inputs.rational_diag(rng, m.rows),
                              inputs.rational_diag(rng, m.cols))

    r = 2 * n // 3
    low = inputs.ranked_matrix(rng, n, r)     # conjugated over Q when rational
    a = scaled(helpers.int_matrix(rng, n, n, 3))
    b = scaled(helpers.int_matrix(rng, n, n, 3))
    full = scaled(inputs.full_rank_matrix(rng, n))
    rhs = scaled(_column(rng, n))
    probe = _column(rng, n)

    def check_rref(result):
        R, pivots = result
        if len(pivots) != r:
            return f"rref has {len(pivots)} pivots, rank is {r}"
        if any(not (low * v).is_zero() for v in _kernel_from_rref(R, pivots, n)):
            return "rref null space differs from the matrix's"
        return None

    def check_kernel(basis):
        if len(basis) != n - r:
            return f"kernel has dimension {len(basis)}, expected {n - r}"
        return _expect(all((low * v).is_zero() for v in basis), "kernel vector not in kernel")

    return [
        LibOp(f"mul{n}", lambda a, b: a * b, (a, b),
              lambda c: _expect(c * probe == a * (b * probe), "(AB)v != A(Bv)")),
        LibOp(f"rank{n}", lambda m: m.rank(), (low,), _check_equal(r, "wrong rank")),
        LibOp(f"rref{n}", lambda m: m.rref(), (low,), check_rref),
        LibOp(f"invert{n}", lambda m: m.invert(), (full,),
              lambda inv: _expect(inv is not None and (full * inv).is_identity(),
                                  "A A^-1 != 1")),
        LibOp(f"solve{n}", lambda m, b: m.solve(b), (full, rhs),
              lambda x: _expect(x is not None and full * x == rhs, "A x != b")),
        LibOp(f"kernel{n}", lambda m: m.kernel_basis(), (low,), check_kernel),
    ]


# Op counts per pass, sized so that one pass takes one to two seconds on a
# 2-core box.  Lax compositions are the slowest kind but for the three
# side-24 (side-16) kernels, and there are enough of them that op_tail_ms,
# the p95 of the ops' times, falls inside their cluster rather than on the
# edge between two kinds of op.
LIB_INT = {"disks": 60, "flags": 80, "encode_disk": 30, "encode_flag": 16,
           "gamma": 20, "cc2": 24, "box": 12, "lax": 26, "k0": 60,
           "small_side": 6, "small_reps": 12, "large_side": 24}
LIB_RATIONAL = {"disks": 40, "flags": 60, "encode_disk": 24, "encode_flag": 12,
                "gamma": 16, "cc2": 20, "box": 8, "lax": 20, "k0": 0,
                "small_side": 8, "small_reps": 12, "large_side": 16}


def _lib_ops(rng: random.Random, size: dict, rational: bool) -> list:
    ops = []
    for _ in range(size["disks"]):
        p, q = inputs.disk_pair(rng, psi=5, phi=4, rational=rational)
        ops.append(LibOp("amalgamate",
                         lambda p, q: perverse.disk_monodromies(perverse.amalgamate(p, q)),
                         (p, q), _check_amalgam(p, q)))
    for _ in range(size["flags"]):
        fl = inputs.pattern_flag(rng, (3, 4, 4, 3))
        ops.append(LibOp("flag_monodromies", lambda fl: perverse.flag_monodromies(fl),
                         (fl,), _check_flag(fl)))
    for i in range(size["encode_disk"]):
        d, _ = inputs.disk_pair(rng, psi=3, phi=3, rational=rational)
        ops.append(LibOp("encode_disk",
                         lambda d, dual: _encode_verify(perverse.encode_sheaf, d, dual),
                         (d, bool(i % 2)), _check_encoding(rng.random())))
    for _ in range(size["encode_flag"]):
        fl = inputs.pattern_flag(rng, (2, 3, 3))
        ops.append(LibOp("encode_flag",
                         lambda fl: _encode_verify(perverse.encode_sheaf_flag, fl),
                         (fl,), _check_encoding(rng.random())))
    for _ in range(size["gamma"]):
        c, _ = inputs.pattern_complex(rng, 0, (2, 3, 3, 2))
        ops.append(LibOp("gamma_normalize",
                         lambda c, n: doldkan.normalize(doldkan.gamma(c, n)),
                         (c, c.hi), _check_equal(c, "normalize(gamma(C)) != C")))
    for _ in range(size["cc2"]):
        xs = [inputs.pattern_complex(rng, -1, (2, 2, 2))[0] for _ in range(3)]
        u = helpers.random_chain_map(rng, xs[0], xs[1])
        v = helpers.random_chain_map(rng, xs[1], xs[2])
        ops.append(LibOp("cc2", lambda u, v: simplex.cc2(u, v), (u, v), _check_acyclic))
    for _ in range(size["box"]):
        m, h = inputs.box([inputs.pattern_complex(rng, 0, (2, 2, 1)) for _ in range(3)])
        ops.append(LibOp("totalize_homology",
                         lambda m: chain.homology_dims(multicplx.totalize(m)),
                         (m,), _check_homology(h)))
    for i in range(size["lax"]):
        # the augmented style costs several times the corner style at equal
        # sizes; these shapes make the two cost about the same
        style, make = (("corner", inputs.shaped((1, 2))),
                       ("augmented", inputs.shaped((1, 1))))[i % 2]
        m = inputs.lax_matrix(rng, style, make)
        n = inputs.lax_matrix(rng, style, make, g=m.g_tgt)
        ops.append(LibOp("lax_compose", lambda n, m: laxmat.lax_compose_delta1(n, m),
                         (n, m), _check_lax(n, m)))
    for _ in range(size["k0"]):
        args = _k0_inputs(rng)
        ops.append(LibOp("k0_mobius", _k0_op, args, _check_k0(*args)))
    for _ in range(size["small_reps"]):
        ops += _raw_ops(rng, size["small_side"], rational)
    ops += _raw_ops(rng, size["large_side"], rational)
    return ops


def lib_workload(seed: int, rational: bool, workdir: str) -> Workload:
    rng = random.Random(seed)
    if rational:
        with inputs.rational_conjugators(rng):
            ops = _lib_ops(rng, LIB_RATIONAL, True)
    else:
        ops = _lib_ops(rng, LIB_INT, False)
    return Workload("lib", ops, workdir)


# -- CLI workloads ---------------------------------------------------------------

class _Docs:
    """Writes documents into the work directory and remembers their bytes."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.texts = {}

    def __call__(self, name: str, obj) -> str:
        text = obj if isinstance(obj, str) else serialize_document(obj)
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.texts[name] = text
        return path


def _homology_doc(expected):
    check = _check_homology(expected)
    return lambda doc: check({int(k): v for k, v in doc["dims"].items()})


def _cli_large_ops(rng: random.Random, doc: _Docs) -> List[CliOp]:
    # sized so that each call takes a few tenths of a second: a pass then
    # fits several times in a run, and no single op dominates the tail
    q = FDAlgebra.rationals()
    units = (-3, -2, -1, 1, 2, 3)
    k7 = koszul(q, [[rng.choice(units)] for _ in range(7)])
    k6 = koszul(q, [[rng.choice(units)] for _ in range(6)])
    a, _ = inputs.pattern_complex(rng, 0, (8, 10, 12))
    b, _ = inputs.pattern_complex(rng, 0, (10, 12, 8))
    big, hbig = inputs.pattern_complex(rng, 0, (90, 130, 130, 90), conjugate=False)
    small, _ = inputs.pattern_complex(rng, 0, (4, 5, 5, 4))
    tot, _ = inputs.box([inputs.pattern_complex(rng, 0, (2, 3, 3)) for _ in range(3)])
    lax_m = inputs.lax_matrix(rng, "corner", inputs.shaped((2, 2, 2)))
    lax_n = inputs.lax_matrix(rng, "corner", inputs.shaped((2, 2, 2)), g=lax_m.g_tgt)
    f = {"k7": doc("k7.json", k7), "k6": doc("k6.json", k6),
         "a": doc("a.json", a), "b": doc("b.json", b),
         "big": doc("big.json", big), "small": doc("small.json", small),
         "box": doc("box.json", tot),
         "lax_n": doc("lax_n.json", lax_n), "lax_m": doc("lax_m.json", lax_m)}
    return [
        CliOp("koszul", ["koszul", f["k7"]], 0),
        CliOp("koszul-dual", ["koszul-dual", f["k6"]], 0),
        CliOp("tensor", ["tensor", f["a"], f["b"]], 0),
        CliOp("hom-complex", ["hom-complex", f["a"], f["b"]], 0),
        CliOp("homology", ["homology", f["big"]], 0, _homology_doc(hbig)),
        CliOp("dk-gamma", ["dk-gamma", "--level", "4", f["small"]], 0),
        CliOp("totalize", ["totalize", f["box"]], 0),
        CliOp("lax-compose", ["lax-compose", f["lax_n"], f["lax_m"]], 0),
    ]


def cli_workload(seed: int, workdir: str) -> Workload:
    doc = _Docs(workdir)
    return Workload("cli", _cli_large_ops(random.Random(seed), doc), workdir, doc.texts)


def check_cli_output(op: CliOp, code: int, stdout: str, stderr: str) -> Optional[str]:
    """Exit code, canonical re-serialization, and the op's own check."""
    if code != op.code:
        return f"exit code {code}, expected {op.code}: {stderr.strip()[:200]}"
    if code == 2:
        return _expect(stdout == "" and stderr.startswith(("error:", "usage:")),
                       "exit 2 without a clean error message")
    try:
        parsed = parse_document(stdout)
    except ValueError as e:
        return f"output does not parse: {e}"
    if serialize_document(parsed) != stdout:
        return "output does not re-serialize to the same bytes"
    return op.check(parsed) if op.check else None


WORKLOADS = ("cli_large", "lib_int", "lib_rational")


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "cli_large":
        return cli_workload(seed, workdir)
    return lib_workload(seed, name == "lib_rational", workdir)


def digest(wl: Workload) -> str:
    """sha256 of everything the program receives: documents and argv for the
    CLI, the serialized arguments of every op in the library."""
    h = hashlib.sha256()

    def add(text: str) -> None:
        h.update(text.encode("utf-8"))
        h.update(b"\0")

    for op in wl.ops:
        add(op.name)
        if wl.kind == "cli":
            add(str(op.code))
            for a in op.argv:
                add(os.path.relpath(a, wl.workdir) if a.startswith(wl.workdir) else a)
        else:
            for a in op.args:
                add(_describe(a))
    for name, text in sorted(wl.docs.items()):
        add(name)
        add(text)
    return h.hexdigest()
