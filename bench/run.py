"""Benchmark of catcx: one workload, one seed, one run.

    python3 bench/run.py --workload cli_large --seed 1 --seconds 50 --trace 0

Set-up builds the workload's inputs from the seed (five times; the
median is `setup_s`).  The timed part repeats passes over the workload's
fixed op list, one op at a time, until `--seconds` have passed and at
least MIN_PASSES passes are done.  Every output is then checked outside
the timed region.  The last line of stdout is the result object; the
line before it is the full record (input digest, environment, tail
percentile, failures).

With `--trace 1` half of the time runs untraced and half with the layer
wrappers of `spans.py` installed, and the per-layer metrics are printed
instead of the end-to-end ones.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import measure

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DEFAULT_SEED = 1
SETUP_REPEATS = 5
TAIL_POOL = 40        # fewest samples op_tail_ms is taken over (a p75 of 40)
MIN_PASSES = 5        # enough for TAIL_POOL on the 8-op list of cli_large
CLI_TIMEOUT = 120     # seconds allowed to one CLI call
WORK = os.path.join(BENCH, "_work")
RESULTS = os.path.join(BENCH, "results")
MANIFEST = os.path.join(BENCH, "manifest.json")

END_TO_END = [("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]


def load_program():
    """Import the program and the benchmark modules that need it."""
    for sub in ("src", "tests"):
        path = os.path.join(ROOT, sub)
        if not os.path.isdir(path):
            raise ImportError(f"{path} is missing")
        sys.path.insert(0, path)
    import workloads
    import spans
    return workloads, spans


# -- environment -------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git(*args: str):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    status = _git("status", "--porcelain")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "cpu_model": cpu, "loadavg_start": _read("/proc/loadavg").strip()}


# -- running ops ------------------------------------------------------------------------

class Outcome:
    """Per-op samples and the first output of each op of one timed phase."""

    def __init__(self, n_ops: int):
        self.samples = [[] for _ in range(n_ops)]
        self.outputs = [None] * n_ops
        self.errors = [None] * n_ops      # first failure message per op
        self.failed = [0] * n_ops         # failing executions per op
        self.passes = 0

    def fail(self, i: int, message: str) -> None:
        self.failed[i] += 1
        if self.errors[i] is None:
            self.errors[i] = message

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)

    def fastest(self, k: int) -> list:
        """The k fastest executions of each op, pooled.

        The box this was tuned on slows down by a fifth to a half for
        seconds to minutes at a time, from load outside the process.  An
        op's fastest executions are unaffected by phases shorter than the
        run, where a median over passes moved by a third from run to run.
        """
        return [x for s in self.samples for x in sorted(s)[:k]]

    def wall(self) -> float:
        """Time of one pass over the op list, each op at its fastest."""
        return sum(self.fastest(1))


def run_cli(workloads, argv, workdir, spans_file=None):
    """One fresh CLI process; traced through cli_traced.py when spans_file is set."""
    cmd = ([sys.executable, os.path.join(BENCH, "cli_traced.py"), spans_file, *argv]
           if spans_file else workloads.cli_command(argv))
    env = workloads.cli_env()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=workdir,
                          timeout=CLI_TIMEOUT)
    return t0, time.perf_counter() - t0, proc


def timed_phase(workloads, wl, seconds: float, tracer=None) -> Outcome:
    """Closed loop, one client: passes over the op list until time is up."""
    ops = wl.ops
    out = Outcome(len(ops))
    deadline = time.perf_counter() + seconds
    spans_file = os.path.join(wl.workdir, "spans.json")
    op_id = 0
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = op_id
            if wl.kind == "cli":
                _cli_step(workloads, wl, op, i, out, tracer, spans_file)
            else:
                _lib_step(op, i, out, tracer)
            op_id += 1
        out.passes += 1
        if time.perf_counter() >= deadline and out.passes >= MIN_PASSES:
            return out


def _lib_step(op, i, out, tracer) -> None:
    root = tracer.begin("op") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        result = op.fn(*op.args)
    except Exception as e:  # a failing op is counted, and the run goes on
        result = e
    dt = time.perf_counter() - t0
    if root is not None:
        tracer.end(root)
    out.samples[i].append(dt)
    if isinstance(result, Exception):
        out.fail(i, f"{type(result).__name__}: {result}")
    elif out.outputs[i] is None:
        out.outputs[i] = result


def _cli_step(workloads, wl, op, i, out, tracer, spans_file) -> None:
    if tracer is not None:
        env = workloads.cli_env()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=wl.workdir,
                       timeout=CLI_TIMEOUT, check=True)
        tracer.count("cli.interp_ms", 1000 * (time.perf_counter() - t0))
    t0, dt, proc = run_cli(workloads, op.argv, wl.workdir,
                           spans_file=spans_file if tracer is not None else None)
    if tracer is not None:
        root = tracer.begin("op", start=t0)
        tracer.end(root, end=t0 + dt)
        with open(spans_file, encoding="utf-8") as fh:
            tracer.merge(json.load(fh), root)
    out.samples[i].append(dt)
    result = (proc.returncode, proc.stdout, proc.stderr)
    if out.outputs[i] is None:
        out.outputs[i] = result
    elif result[:2] != out.outputs[i][:2]:
        out.fail(i, "output differs between passes")


# -- checks -----------------------------------------------------------------------------

def check(workloads, wl, out: Outcome, manifest) -> list:
    """Run every op's check on its output; failures count every execution."""
    problems = []
    for i, op in enumerate(wl.ops):
        if out.outputs[i] is None:
            message = out.errors[i] or "no output"
        elif wl.kind == "cli":
            code, stdout, stderr = out.outputs[i]
            message = workloads.check_cli_output(op, code, stdout.decode("utf-8"),
                                                 stderr.decode("utf-8", "replace"))
            if message is None and manifest is not None:
                want = manifest.get(op.name)
                got = {"code": code, "sha256": hashlib.sha256(stdout).hexdigest()}
                if want != got:
                    message = f"differs from the manifest: {got} != {want}"
        else:
            try:
                message = op.check(out.outputs[i])
            except Exception as e:  # a check that crashes is a failed check
                message = f"check raised {type(e).__name__}: {e}"
        if message is not None:
            out.failed[i] = len(out.samples[i])
            problems.append(f"{op.name}: {message}")
        elif out.errors[i] is not None:
            problems.append(f"{op.name}: {out.errors[i]}")
    return problems


def load_manifest(name: str, seed: int, digest: str):
    """Pinned outputs for the default seed; None where nothing is pinned."""
    if seed != DEFAULT_SEED:
        return None
    with open(MANIFEST, encoding="utf-8") as fh:
        pinned = json.load(fh).get(name)
    if pinned is None:
        return None
    if pinned["digest"] != digest:
        raise SystemExit(f"error: inputs of {name} differ from the manifest's "
                         f"({digest[:12]} != {pinned['digest'][:12]}); re-record it")
    return pinned["ops"]


# -- one run ------------------------------------------------------------------------------

def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    if os.path.isdir(WORK) and not os.listdir(WORK):
        os.rmdir(WORK)


def set_up(workloads, name: str, seed: int, workdir: str):
    """SETUP_REPEATS fresh set-ups; returns (times, last workload)."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, workdir)
        warm_up(workloads, wl)
        times.append(time.perf_counter() - t0)
    return times, wl


def warm_up(workloads, wl) -> None:
    """Fill caches users would have warm: bytecode and page cache for the CLI,
    one call of each op kind in the library."""
    if wl.kind == "cli":
        subprocess.run([sys.executable, "-c", "import catcx.cli"], env=workloads.cli_env(),
                       cwd=wl.workdir, timeout=CLI_TIMEOUT, check=True)
        return
    seen = set()
    for op in wl.ops:
        if op.name not in seen:
            seen.add(op.name)
            op.fn(*op.args)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workloads, wl, seconds, setup_times):
    """Untraced run: (outcomes, metrics, tail percentile and n)."""
    run = timed_phase(workloads, wl, seconds)
    # each op's fastest execution, or its few fastest where the op list is
    # too short for a tail on its own
    value, pct, n = measure.tail(run.fastest(math.ceil(TAIL_POOL / len(wl.ops))))
    who = resource.RUSAGE_CHILDREN if wl.kind == "cli" else resource.RUSAGE_SELF
    values = {
        "wall_s": run.wall(),
        "op_p50_ms": 1000 * statistics.median(run.fastest(1)),
        "op_tail_ms": 1000 * value,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    return [run], metrics, {"percentile": pct, "n": n}


def traced(workloads, spans, wl, seconds, spans_path):
    """Half the time untraced, half traced: (outcomes, per-layer metrics)."""
    plain = timed_phase(workloads, wl, seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run = timed_phase(workloads, wl, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    values = spans.layer_metrics(tracer, len(wl.ops), run.wall(), plain.wall())
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return [plain, run], {name: _metric(values[name], unit)
                          for name, unit, _ in spans.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads, spans = load_program()
    except ImportError as e:
        print(f"error: cannot load the program: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    tail = None
    try:
        setup_times, wl = set_up(workloads, args.workload, args.seed, workdir)
        digest = workloads.digest(wl)
        manifest = load_manifest(args.workload, args.seed, digest)
        if args.trace:
            path = os.path.join(RESULTS, f"spans-{args.workload}-{args.seed}.json")
            runs, metrics = traced(workloads, spans, wl, args.seconds, path)
        else:
            runs, metrics, tail = end_to_end(workloads, wl, args.seconds, setup_times)
        problems = [p for r in runs for p in check(workloads, wl, r, manifest)]
    finally:
        remove_workdir(workdir)
    attempted = sum(r.attempted for r in runs)
    failed = sum(sum(r.failed) for r in runs)
    env["loadavg_end"] = _read("/proc/loadavg").strip()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_digest": digest, "environment": env,
        "ops_per_pass": len(wl.ops), "passes": [r.passes for r in runs],
        "setup_times_s": setup_times, "fail_ratio": failed / attempted,
        "manifest": "checked" if manifest is not None else "not pinned for this seed",
        "problems": problems[:20], "op_tail": tail, "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
