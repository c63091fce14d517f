"""Traced CLI call: `python3 cli_traced.py SPANS_FILE ARGV...`.

Runs the same argv through `catcx.cli.run` as the console script would,
with the layer wrappers installed after the import, and writes the spans
to SPANS_FILE for the parent benchmark to adopt under its op span.
"""

import json
import sys
import time

t0 = time.perf_counter()
import catcx.cli  # noqa: E402  (the import is what this span times)
t1 = time.perf_counter()

import spans  # noqa: E402  (imported after catcx so it does not pre-load shared modules)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.end(tracer.begin("cli.import", start=t0), end=t1)
    tracer.install()
    try:
        code = catcx.cli.run(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
