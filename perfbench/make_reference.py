"""Write reference/<workload>.json from one untraced pass at the default seed.

    python3 perfbench/make_reference.py [degrees scan batch]

The reference records the program's results at the commit it is run
on; run.py compares later results with it.  Regenerate it only when a
change to the program's results is intended, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads


def main(argv: list[str]) -> int:
    names = argv or list(run.WORKLOADS)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    work = os.path.join(run.OUT_DIR, f"work-{os.getpid()}")
    try:
        for name in names:
            rec = run.spawn(name, workloads.DEFAULT_SEED, work)
            failed = [e["id"] for e in rec["items"] if e["rc"] != 0]
            if failed:
                print(f"{name}: calls {failed} failed; no reference written", file=sys.stderr)
                return 1
            if name == "batch":
                ref = {checks.batch_key(item): {"dml": item["dml"], "local": item["local"]}
                       for item in rec["items"][0]["out"]}
            else:
                ref = {str(e["id"]): e["out"] for e in rec["items"]}
            path = os.path.join(checks.REFERENCE_DIR, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{name}: {len(ref)} items -> {os.path.relpath(path, run.ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
