"""Pin the CLI outputs at the default seed: `python3 bench/record_manifest.py`.

Writes manifest.json with, for each CLI workload, the input digest and
each op's exit code and stdout sha256.  Run it on the commit whose
outputs are the reference; `run.py` then checks every default-seed run
against it.  A changed input digest means the inputs changed, and the
manifest must be recorded again before results can be compared.
"""

import hashlib
import json
import os
import shutil
import sys

import run


def main() -> int:
    workloads, _ = run.load_program()
    pinned = {}
    for name in ("cli_large",):
        workdir = os.path.join(run.WORK, f"manifest-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            wl = workloads.build(name, run.DEFAULT_SEED, workdir)
            ops = {}
            for op in wl.ops:
                _, _, proc = run.run_cli(workloads, op.argv, workdir)
                problem = workloads.check_cli_output(op, proc.returncode,
                                                     proc.stdout.decode("utf-8"),
                                                     proc.stderr.decode("utf-8", "replace"))
                if problem:
                    print(f"error: {name} {op.name}: {problem}", file=sys.stderr)
                    return 1
                ops[op.name] = {"code": proc.returncode,
                                "sha256": hashlib.sha256(proc.stdout).hexdigest()}
            pinned[name] = {"digest": workloads.digest(wl), "ops": ops}
        finally:
            run.remove_workdir(workdir)
    with open(run.MANIFEST, "w", encoding="utf-8") as fh:
        json.dump({"seed": run.DEFAULT_SEED, **pinned}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
