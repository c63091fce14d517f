"""The benchmark records at the root of the repository.

Each `BENCH_*.json` must parse, and its `claimed` field must be null (no
gain claimed) or name a workload and an end-to-end metric that
`BENCHMARK.json` declares, so a claim always points at something the
benchmark measures.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert len(RECORDS) >= 10


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_parses_and_names_declared_claims(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict) and "claimed" in record
    claimed = record["claimed"]
    if claimed is None:
        return
    assert isinstance(claimed, dict)
    assert claimed.get("workload") in {w["name"] for w in BENCHMARK["workloads"]}
    assert claimed.get("metric") in {m["name"] for m in BENCHMARK["end_to_end"]}
