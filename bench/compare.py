"""Compare two sets of benchmark runs, metric by metric, workload by workload.

    python3 bench/compare.py BASE_1.out BASE_2.out ... -- NEW_1.out NEW_2.out ...

Each file holds the stdout of one `run.py` run.  For every workload and
end-to-end metric it prints both medians, the base's relative quartile
spread, and a verdict against the bound in BENCHMARK.json: "worse" when
the new median is worse by more than the bound, "unresolved" when the
base spread alone exceeds the bound.  It refuses (exit 2) when the two
sets did not run the same inputs: each workload must have the same seeds
with the same input digests on both sides.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

import measure

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    """{workload: [record, ...]} from files of run.py output."""
    out = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith('{"record"'):
                    rec = json.loads(line)["record"]
                    out[rec["workload"]].append(rec)
    return out


def inputs_of(records):
    return sorted({(r["seed"], r["input_digest"]) for r in records})


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    worse = 0
    for wl in sorted(set(base) | set(new)):
        if inputs_of(base[wl]) != inputs_of(new[wl]):
            print(f"error: {wl}: the two sets ran different inputs (seeds or input "
                  f"digests differ); refusing to compare", file=sys.stderr)
            return 2
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in base[wl]]
            b = [r["metrics"][m["name"]]["value"] for r in new[wl]]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread = measure.relative_iqr(a) if len(a) >= 2 else 0.0
            verdict = ("worse" if change > m["bound"] else
                       "unresolved" if spread > m["bound"] else "within bound")
            worse += verdict == "worse"
            print(f"{wl:13s} {m['name']:12s} base {ma:10.4f} new {mb:10.4f} {m['unit']:3s} "
                  f"worse by {100 * change:+6.1f}% (bound {100 * m['bound']:.0f}%, "
                  f"base spread {100 * spread:.1f}%): {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
