"""One pass of a workload in a fresh interpreter.

run.py starts this script once per pass, so the import of
`dmlwb` (sympy dominates it) and sympy's in-process caches are paid
again on every pass, as they are on every real invocation.  The script
imports the program from the checkout's `src/`, writes the seeded input
files, then makes the workload's CLI calls back to back through
`dmlwb.cli.main`, one caller, no think time.  It writes timings, exit
codes and outputs as JSON to --out for run.py to check.

    python3 perfbench/worker.py --workload scan --seed 1 --work DIR \\
        --out pass.json --spawned <time.monotonic() at start>
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import dmlwb.cli

    where = os.path.realpath(dmlwb.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"dmlwb was imported from {where}, not from {src}")
    return dmlwb.cli


def _write_map(path: str, spec: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


def _calls(workload: str, seed: int, work: str, jobs: int) -> list[tuple]:
    """(item id, argv, horizon) per CLI call, after writing the input files."""
    if workload == "degrees":
        calls = []
        for it in workloads.degrees_items(seed):
            path = os.path.join(work, f"map{it['id']}.json")
            _write_map(path, it["map"])
            calls.append((it["id"], ["degrees", "--map", path,
                                     "--horizon", str(it["horizon"])], it["horizon"]))
        return calls
    if workload == "scan":
        calls = []
        for it in workloads.scan_items(seed):
            path = os.path.join(work, f"map{it['id']}.json")
            _write_map(path, it["map"])
            calls.append((it["id"], [
                "dml", "scan", "--map", path,
                f"--curve={it['curve']}", f"--point={it['point']}",
                "--horizon", str(workloads.SCAN_N),
                "--max-period", str(workloads.SCAN_K),
                "--bit-guard", str(workloads.SCAN_BIT_GUARD),
            ], 0))
        return calls
    path = os.path.join(work, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workloads.batch_config(seed), fh, indent=2)
    return [(0, ["batch", "--config", path, "--jobs", str(jobs)], 0)]


def _summary(workload: str, doc: dict):
    """The part of a CLI report that the checks read."""
    if workload == "degrees":
        res = doc["result"]
        return {"degrees": res["profile"]["degrees"], "stability": res["stability"]}
    return doc["result"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["degrees", "scan", "batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="directory for generated inputs")
    ap.add_argument("--out", required=True, help="where to write the pass record")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when run.py started this process")
    ap.add_argument("--jobs", type=int, default=workloads.BATCH_JOBS)
    ap.add_argument("--trace", action="store_true", help="wrap dmlwb with the tracer")
    ap.add_argument("--spans", help="with --trace, write the recorded spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    try:
        cli = _import_program()
    except ImportError as exc:
        print(f"worker: cannot import the program: {exc}", file=sys.stderr)
        return 3
    os.chdir(ROOT)  # the batch config names its map files relative to the root
    os.makedirs(args.work, exist_ok=True)
    calls = _calls(args.workload, args.seed, args.work, args.jobs)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    record = {"setup_s": ready - args.spawned, "items": []}
    if not args.setup_only:
        start = time.perf_counter()
        for item_id, call, horizon in calls:
            if tracer is not None:
                tracer.item = item_id
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(call)
                except SystemExit as exc:  # argparse rejects the call
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash fails this item, not the pass
                    traceback.print_exc()
                    rc = "exception"
            t1 = time.perf_counter()
            text = out.getvalue()
            entry = {"id": item_id, "rc": rc, "ms": (t1 - t0) * 1000.0,
                     "horizon": horizon, "bytes": len(text.encode())}
            if rc == 0:
                entry["out"] = _summary(args.workload, json.loads(text))
                entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
            else:
                entry["stderr"] = err.getvalue()[-2000:]
            record["items"].append(entry)
        record["wall_s"] = time.perf_counter() - start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["trace"] = tracer.totals()
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "threads": tracer.spans()}, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
