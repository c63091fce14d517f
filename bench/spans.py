"""Outside-in layer trace: wrappers around the public calls of each module.

`Tracer.install()` wraps every function and method named in `SPANS` and
`COUNTS`, and patches every module that holds the original object under
any name (`from .chain import tensor` in laxmat, `koszul as
koszul_complex` in cli), so no by-name binding escapes.  Each wrapper
records a span (name, start, end, parent, op id) in memory; `uninstall()`
puts the originals back.

A call into a layer made from inside the same layer is part of that
layer's work and records no span of its own (`invert` calls `rref`), so
a layer's self time is the time spent inside its boundary, minus the
time of the other layers it calls.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple

# (module, attribute, span name); "Class.attr" wraps a method
SPANS = [
    ("catcx.exactlin", "Matrix.__mul__", "exactlin.matmul"),
    ("catcx.exactlin", "Matrix.rank", "exactlin.rank"),
    ("catcx.exactlin", "Matrix.rref", "exactlin.rref"),
    ("catcx.exactlin", "Matrix.invert", "exactlin.invert"),
    ("catcx.exactlin", "Matrix.solve", "exactlin.solve"),
    ("catcx.exactlin", "Matrix.kernel_basis", "exactlin.kernel"),
    ("catcx.exactlin", "Matrix.block", "exactlin.block"),
    ("catcx.chain", "tensor", "chain.tensor"),
    ("catcx.chain", "hom_complex", "chain.hom_complex"),
    ("catcx.chain", "cone", "chain.cone"),
    ("catcx.chain", "homology_dims", "chain.homology"),
    ("catcx.multicplx", "totalize", "multicplx.totalize"),
    ("catcx.koszul", "koszul", "koszul.koszul"),
    ("catcx.koszul", "realize", "koszul.realize"),
    ("catcx.koszul", "duality_iso", "koszul.duality"),
    ("catcx.perverse", "amalgamate", "perverse.amalgamate"),
    ("catcx.perverse", "disk_monodromies", "perverse.monodromy"),
    ("catcx.perverse", "flag_monodromies", "perverse.monodromy"),
    ("catcx.perverse", "encode_sheaf", "perverse.encode"),
    ("catcx.perverse", "encode_sheaf_flag", "perverse.encode"),
    ("catcx.perverse", "verify_encoding", "perverse.verify"),
    ("catcx.simplex", "cc2", "simplex.cc2"),
    ("catcx.doldkan", "gamma", "doldkan.gamma"),
    ("catcx.doldkan", "normalize", "doldkan.normalize"),
    ("catcx.laxmat", "lax_compose_delta1", "laxmat.lax_compose"),
    ("catcx.laxmat", "k0_compose", "laxmat.k0"),
    ("catcx.laxmat", "mobius", "laxmat.k0"),
    ("catcx.laxmat", "zeta", "laxmat.k0"),
    ("catcx.documents", "parse_document", "documents.parse"),
    ("catcx.documents", "serialize_document", "documents.serialize"),
    ("catcx.cli", "run", "cli.run"),
]

# calls counted without a span: (module, attribute, counter name)
COUNTS = [
    ("catcx.exactlin", "Matrix.__init__", "exactlin.matrix_new"),
    ("catcx.koszul", "RMatrix.__mul__", "koszul.rmatrix_mul_calls"),
]

# the kernels whose matrix arguments feed the shape and entry statistics
_KERNELS = {"exactlin.matmul", "exactlin.rank", "exactlin.rref", "exactlin.invert",
            "exactlin.solve", "exactlin.kernel"}

# per-layer metrics: (name, unit, better); every traced run reports all of them
LAYER_METRICS = [
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.run_self_ms", "ms", "lower"),
    ("documents.parse_ms", "ms", "lower"),
    ("documents.serialize_ms", "ms", "lower"),
    ("documents.bytes_in", "bytes", "lower"),
    ("documents.bytes_out", "bytes", "lower"),
    ("exactlin.matrix_new", "count", "lower"),
    ("exactlin.matmul_calls", "count", "lower"),
    ("exactlin.matmul_madds", "count", "lower"),
    ("exactlin.matmul_ms", "ms", "lower"),
    ("exactlin.rank_ms", "ms", "lower"),
    ("exactlin.rref_ms", "ms", "lower"),
    ("exactlin.invert_ms", "ms", "lower"),
    ("exactlin.solve_ms", "ms", "lower"),
    ("exactlin.kernel_ms", "ms", "lower"),
    ("exactlin.block_ms", "ms", "lower"),
    ("exactlin.max_side", "count", "lower"),
    ("exactlin.max_entry_bits", "bits", "lower"),
    ("exactlin.zero_frac", "ratio", "higher"),
    ("chain.tensor_calls", "count", "lower"),
    ("chain.tensor_ms", "ms", "lower"),
    ("chain.hom_complex_ms", "ms", "lower"),
    ("chain.cone_ms", "ms", "lower"),
    ("chain.homology_ms", "ms", "lower"),
    ("multicplx.totalize_ms", "ms", "lower"),
    ("koszul.koszul_ms", "ms", "lower"),
    ("koszul.realize_ms", "ms", "lower"),
    ("koszul.duality_ms", "ms", "lower"),
    ("koszul.rmatrix_mul_calls", "count", "lower"),
    ("perverse.amalgamate_ms", "ms", "lower"),
    ("perverse.monodromy_ms", "ms", "lower"),
    ("perverse.encode_ms", "ms", "lower"),
    ("perverse.verify_ms", "ms", "lower"),
    ("simplex.cc2_ms", "ms", "lower"),
    ("doldkan.gamma_ms", "ms", "lower"),
    ("doldkan.normalize_ms", "ms", "lower"),
    ("laxmat.lax_compose_ms", "ms", "lower"),
    ("laxmat.k0_ms", "ms", "lower"),
    ("laxmat.tensor_per_compose", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

ROOT_SPAN = "op"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index into the span list, -1 for a root
    op: int          # op execution id
    excl: float      # time inside the span spent by the tracer itself


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.max_side = 0
        self.max_entry_bits = 0
        self.entries = 0
        self.zeros = 0
        self.op = 0                     # id of the op execution being traced
        self._stack: List[int] = []     # indices of the open spans
        self._patches = []              # (owner, attr, original)

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str, start: float = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter() if start is None else start,
                               0.0, parent, self.op, 0.0))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, end: float = None, excl: float = 0.0) -> None:
        self._stack.pop()
        self.spans[idx] = self.spans[idx]._replace(
            end=time.perf_counter() if end is None else end, excl=excl)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.op][name] += n

    def _open_layer(self) -> str:
        return self.spans[self._stack[-1]].name.split(".", 1)[0] if self._stack else ""

    def _matrix_stats(self, args) -> None:
        for m in args:
            entries = getattr(m, "_e", None)
            if entries is None:
                continue
            self.max_side = max(self.max_side, m.rows, m.cols)
            self.entries += len(entries)
            for x in entries:
                if x:
                    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
                    if bits > self.max_entry_bits:
                        self.max_entry_bits = bits
                else:
                    self.zeros += 1

    def _wrap_span(self, fn, name: str):
        layer = name.split(".", 1)[0]
        kernel = name in _KERNELS
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "chain.tensor":
                tracer.count("chain.tensor_calls")
                if any(tracer.spans[i].name == "laxmat.lax_compose" for i in tracer._stack):
                    tracer.count("laxmat.tensor_in_compose")
            elif name == "laxmat.lax_compose":
                tracer.count("laxmat.lax_compose_calls")
            if tracer._open_layer() == layer:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            excl = 0.0
            if kernel or name == "documents.parse":
                t0 = time.perf_counter()
                if name == "documents.parse":
                    tracer.count("documents.bytes_in", len(args[0].encode("utf-8")))
                else:
                    tracer._matrix_stats(args)
                if name == "exactlin.matmul":
                    a, b = args
                    tracer.count("exactlin.matmul_calls")
                    tracer.count("exactlin.matmul_madds", a.rows * a.cols * b.cols)
                excl = time.perf_counter() - t0
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx, excl=excl)
            if name == "documents.serialize":
                tracer.count("documents.bytes_out", len(out.encode("utf-8")))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_count(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[tracer.op][name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, n=name: self._wrap_span(fn, n))
        for module, attr, name in COUNTS:
            self._patch(module, attr, lambda fn, n=name: self._wrap_count(fn, n))

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            self._patches.append((cls, meth, raw))
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None) or {}
            for key, value in list(namespace.items()):
                if value is orig:
                    setattr(holder, key, wrapped)
                    self._patches.append((holder, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- transport between processes ---------------------------------------------

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counts": {str(k): dict(v) for k, v in self.counts.items()},
                "stats": [self.max_side, self.max_entry_bits, self.entries, self.zeros]}

    def merge(self, data: dict, parent: int) -> None:
        """Adopt a child process's trace under span `parent`, as op `self.op`."""
        base = len(self.spans)
        for name, start, end, par, _, excl in data["spans"]:
            self.spans.append(Span(name, start, end, parent if par < 0 else base + par,
                                   self.op, excl))
        for counts in data["counts"].values():
            for k, v in counts.items():
                self.counts[self.op][k] += v
        side, bits, entries, zeros = data["stats"]
        self.max_side = max(self.max_side, side)
        self.max_entry_bits = max(self.max_entry_bits, bits)
        self.entries += entries
        self.zeros += zeros


# -- analysis --------------------------------------------------------------------

def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its children cover.

    Children of one span never overlap (one thread), so the covered time
    is the sum of their durations.
    """
    out = [s.end - s.start - s.excl for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _ms_metric(span: str) -> str:
    return "cli.run_self_ms" if span == "cli.run" else span + "_ms"


def layer_metrics(tracer: Tracer, ops_per_pass: int, wall_traced: float,
                  wall_untraced: float) -> Dict[str, float]:
    """Per-layer metrics for one pass over the op list.

    Like `wall_s`, a pass is each op at its fastest traced execution: self
    times and counts are those of that execution, summed over the op list,
    so they do not grow with the number of passes a run fits in.
    """
    per_exec: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    roots = {}    # op execution id -> (duration, self time) of its root span
    for s, self_t in zip(tracer.spans, self_times(tracer.spans)):
        if s.name == ROOT_SPAN:
            roots[s.op] = (s.end - s.start, self_t)
        else:
            per_exec[s.op][_ms_metric(s.name)] += 1000 * self_t
    for op, counts in tracer.counts.items():
        for k, v in counts.items():
            per_exec[op][k] += v
    best = {}     # op index in the list -> its fastest execution id
    for op, (duration, _) in roots.items():
        i = op % ops_per_pass
        if i not in best or duration < roots[best[i]][0]:
            best[i] = op
    per_pass: Dict[str, float] = defaultdict(float)
    for op in best.values():
        for k, v in per_exec[op].items():
            per_pass[k] += v
    out = {name: per_pass.get(name, 0.0) for name, _, _ in LAYER_METRICS}
    composes = per_pass.get("laxmat.lax_compose_calls", 0.0)
    out["laxmat.tensor_per_compose"] = (per_pass.get("laxmat.tensor_in_compose", 0.0)
                                        / composes if composes else 0.0)
    out["exactlin.max_side"] = tracer.max_side
    out["exactlin.max_entry_bits"] = tracer.max_entry_bits
    out["exactlin.zero_frac"] = tracer.zeros / tracer.entries if tracer.entries else 0.0
    out["trace.overhead_ratio"] = wall_traced / wall_untraced
    total = sum(roots[op][0] for op in best.values())
    covered = sum(roots[op][0] - roots[op][1] for op in best.values())
    out["trace.coverage"] = covered / total if total else 0.0
    return out
