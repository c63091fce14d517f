"""Self-tests of the benchmark: `python3 -m pytest bench/test_bench.py`."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import measure
import run

workloads, spans = run.load_program()
import catcx.cli  # noqa: E402  (binds names the tracer must find)
import catcx.laxmat  # noqa: E402
import helpers  # noqa: E402


def test_tail_picks_highest_percentile_with_ten_samples_above():
    values = list(range(1, 101))
    value, p, n = measure.tail(values)
    assert (p, n) == (90.0, 100)
    assert sum(v > value for v in values) == 10
    assert measure.tail(list(range(19))) is None
    assert measure.tail(list(range(20)))[1] == 50.0
    assert measure.tail(list(range(1000)))[1] == 99.0
    assert measure.tail(list(range(10000)))[1] == 99.9


def test_percentile_interpolates():
    assert measure.percentile([0, 10], 50) == 5
    assert measure.percentile([3], 99) == 3


def test_self_time_of_nested_spans():
    S = spans.Span
    trace = [S("op", 0, 10, -1, 0, 0), S("a.x", 1, 4, 0, 0, 0),
             S("b.y", 2, 3, 1, 0, 0), S("b.z", 5, 9, 0, 0, 1)]
    assert spans.self_times(trace) == [3, 2, 1, 3]


def _unwrapped_bindings():
    """Names, in any loaded module, still bound to an unwrapped traced function."""
    originals = set()
    for module, attr, _ in spans.SPANS:
        if "." not in attr:
            fn = getattr(sys.modules[module], attr)
            originals.add(id(getattr(fn, "__wrapped__", fn)))
    return [f"{holder.__name__}.{key}"
            for holder in list(sys.modules.values())
            for key, value in list((getattr(holder, "__dict__", None) or {}).items())
            if id(value) in originals and not hasattr(value, "__wrapped__")]


def test_wrappers_cover_every_by_name_binding():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _unwrapped_bindings() == []
        assert hasattr(catcx.laxmat.tensor, "__wrapped__")
        assert hasattr(catcx.cli.koszul_complex, "__wrapped__")
        assert hasattr(catcx.cli.parse_document, "__wrapped__")
        assert hasattr(helpers.tensor, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(catcx.laxmat.tensor, "__wrapped__")
    assert catcx.laxmat.tensor is catcx.chain.tensor


def test_traced_lax_compose_attributes_tensor_calls():
    rng = __import__("random").Random(3)
    m = helpers.random_lax_matrix(rng, "augmented")
    n = helpers.random_lax_matrix(rng, "augmented", g=m.g_tgt)
    tracer = spans.Tracer()
    tracer.install()
    try:
        root = tracer.begin("op")
        catcx.laxmat.lax_compose_delta1(n, m)
        tracer.end(root)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer, 1, 1.0, 1.0)
    assert metrics["laxmat.tensor_per_compose"] > 0
    assert metrics["chain.tensor_calls"] >= metrics["laxmat.tensor_per_compose"]
    assert metrics["laxmat.lax_compose_ms"] > 0
    assert 0 < metrics["trace.coverage"] <= 1


def _run(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_has_no_failures(name):
    proc = _run("--workload", name, "--seconds", "0.2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert result["failed"] == 0 and result["correct"], record["problems"]
    assert record["fail_ratio"] == 0
    assert record["manifest"] == ("checked" if name == "cli_large" else
                                  "not pinned for this seed")
    assert sorted(result["metrics"]) == sorted(name for name, _ in run.END_TO_END)


def test_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "lib_int", "--seconds", "0.2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result["metrics"]) == sorted(m for m, _, _ in spans.LAYER_METRICS)
    assert result["metrics"]["exactlin.matmul_calls"]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "lib_int", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
