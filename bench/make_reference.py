"""Write the stored reference outputs in bench/reference/ for DEFAULT_SEED.

    python3 bench/make_reference.py

Run once, at the commit that defines the benchmark; rerunning it on a later
commit would let that commit grade itself.  Each file holds the seed, the
commit it came from, and the outputs the checks compare against.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile

import workloads
from worker import ROOT, import_program, git_commit

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def main():
    cli = import_program()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    seed = workloads.DEFAULT_SEED
    for workload in workloads.WORKLOADS.values():
        for size in workloads.SIZES:
            tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
            try:
                workloads.write_inputs(workload, seed, size, tmp)
                out_dir = os.path.join(tmp, "out")
                os.makedirs(out_dir)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(workload.argv(seed, size, tmp, out_dir))
                if rc != 0:
                    raise SystemExit(f"{workload.name} ({size}) exited with {rc}")
                bad = [r for r in workload.check(out_dir, size, None) if r]
                if bad:
                    raise SystemExit(f"{workload.name} ({size}): {bad[0]}")
                stored = {"seed": seed, "commit": git_commit(ROOT),
                          "outputs": workload.reference(out_dir)}
            finally:
                shutil.rmtree(tmp)
            path = workloads.reference_path(REFERENCE_DIR, workload.name, size)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(stored, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
