"""dmlwb benchmark: closed-loop CLI workloads with correctness checks.

    python3 perfbench/run.py --workload degrees|scan|batch --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload is a fresh
worker process (worker.py) that imports the program from `src/`, builds
the inputs for the seed, and makes the workload's CLI calls back to
back through `dmlwb.cli.main`: one caller, no think time.

--trace 0 repeats passes until the next one would end after S seconds
and prints the end-to-end metrics, measured without tracing.
--trace 1 runs two untraced and two traced passes (tracing.py),
alternating, and prints the per-layer metrics; it checks that the traced outputs equal
the untraced ones and that the exact counts repeat, and writes the
spans of the first traced pass to .perfbench/.

Every output is checked (checks.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when the run completed, whether or not the checks passed, and
non-zero without a result line when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(BENCH_DIR, "worker.py")
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("degrees", "scan", "batch")
MIN_SETUPS = 5
WORKER_TIMEOUT_S = 150

# Counts that must repeat exactly between two traced passes of one seed.
EXACT_COUNTS = (
    "poly.mul.term_products",
    "poly.compose.calls",
    "maps.apply.calls",
    "dml.orbit.steps",
    "dml.orbit.distinct_ratio",
    "curves.factor_poly.calls",
    "dml.curve_period.capped_ratio",
)


class WorkerError(Exception):
    """A worker process failed as a whole (as opposed to one CLI call)."""


def spawn(workload: str, seed: int, work: str, jobs: int = workloads.BATCH_JOBS,
          trace: bool = False, spans=None, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its pass record."""
    out = os.path.join(OUT_DIR, f"pass-{os.getpid()}.json")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--work", work, "--out", out, "--jobs", str(jobs)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    os.remove(out)
    return record


# -- checking ------------------------------------------------------------------

class Checker:
    """Accumulates attempted/failed item counts and verdict counts over passes."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.classified = 0
        self.undetermined = 0
        self.problems: list[str] = []
        if workload == "degrees":
            self.items = workloads.degrees_items(seed)
        elif workload == "scan":
            self.items = workloads.scan_items(seed)
        else:
            self.items = None
        default = seed == workloads.DEFAULT_SEED
        self.reference = (checks.load_reference(workload)
                          if default or workload == "batch" else None)

    def add(self, record: dict) -> None:
        """Check every item of one pass record."""
        if self.workload == "batch":
            (entry,) = record["items"]
            n = len(self.reference)
            bad = checks.check_batch(entry, self.reference)
            self.attempted += n
            self.failed += n if "*" in bad else len(bad)
            if entry["rc"] == 0:
                for item in entry["out"]:
                    if item["error"] is None:
                        self._verdict(item["dml"]["verdict"])
        else:
            check = checks.check_degrees if self.workload == "degrees" else checks.check_scan
            bad = check(self.items, record["items"], self.reference)
            self.attempted += len(self.items)
            self.failed += len(bad)
            if self.workload == "scan":
                for entry in record["items"]:
                    if entry["rc"] == 0:
                        self._verdict(entry["out"]["verdict"])
        for key, problems in list(bad.items())[:5]:
            self.problems.append(f"item {key}: {'; '.join(problems)}")

    def _verdict(self, verdict: str) -> None:
        self.classified += 1
        self.undetermined += verdict == checks.UNDETERMINED

    def same_outputs(self, a: dict, b: dict, what: str) -> None:
        """Every item of pass b must be byte-identical to pass a."""
        differ = [x["id"] for x, y in zip(a["items"], b["items"])
                  if x.get("sha256") is None or x.get("sha256") != y.get("sha256")]
        if differ:
            self.failed += len(differ) * (len(self.reference) if self.workload == "batch" else 1)
            self.problems.append(f"{what}: outputs differ on items {differ[:10]}")


# -- measured run (--trace 0) --------------------------------------------------

def quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measured_run(workload: str, seed: int, seconds: float, work: str, v: Checker):
    passes: list[dict] = []
    extra: list[dict] = []  # processes that are not workload passes
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        rec = spawn(workload, seed, work)
        v.add(rec)
        if passes:
            v.same_outputs(passes[0], rec, "repeated pass")
        passes.append(rec)
        if workload == "batch" and not extra:
            # byte-identical output at one job is part of the batch check
            serial = spawn(workload, seed, work, jobs=1)
            v.add(serial)
            v.same_outputs(rec, serial, "batch --jobs 1 vs --jobs 2")
            extra.append(serial)
        took = time.monotonic() - t0
        if time.monotonic() - begin + took > seconds:
            break
    while len(passes) + len(extra) < MIN_SETUPS:
        extra.append(spawn(workload, seed, work, setup_only=True))
    setups = [r["setup_s"] for r in passes + extra]
    # one latency per CLI call: its median over the passes, so that a burst
    # of load on the machine during one pass does not become the tail
    latencies = [statistics.median(r["items"][i]["ms"] for r in passes)
                 for i in range(len(passes[0]["items"]))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s"),
        "item_p50_ms": (quantile(latencies, 50), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
    }
    # printed, but not a bounded metric: on a shared machine its run-to-run
    # spread (heavy calls, seed-dependent tail) exceeds the largest bound
    printed = {"item_p90_ms": (quantile(latencies, 90), "ms")}
    note = f"{len(passes)} passes of {len(latencies)} CLI calls, {len(setups)} set-ups"
    return metrics, printed, note


# -- traced run (--trace 1) ----------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: dict, horizons: int) -> dict:
    """Per-layer metrics of one traced pass."""
    t = rec["trace"]
    stats, counts, peaks = t["stats"], t["counts"], t["peaks"]

    def st(name: str, field: str):
        return stats.get(name, {}).get(field, 0)

    m: dict[str, tuple] = {}
    for name in ("poly.mul", "poly.compose", "poly.evaluate", "poly.gcd", "poly.exact_div",
                 "maps.apply", "maps.compose_map", "maps.load_map", "parsing.parse_poly",
                 "curves.contains", "curves.factor_poly", "places.abs_value",
                 "places.height_affine", "hirzebruch.apply"):
        m[f"{name}.calls"] = (st(name, "calls"), "count")
        m[f"{name}.self_s"] = (st(name, "self_s"), "s")
    for name in ("dml.classify", "dml.orbit", "dml.ap_decompose", "dml.curve_period",
                 "curves.is_fixed_curve", "metrics.basin_probe"):
        m[f"{name}.calls"] = (st(name, "calls"), "count")
        m[f"{name}.s"] = (st(name, "s"), "s")
    for name in ("degrees.degree_sequence", "degrees.stability_P2",
                 "metrics.local_dml_probe", "cli.main", "cli.emit"):
        m[f"{name}.s"] = (st(name, "s"), "s")
    m["hirzebruch.from_map.calls"] = (st("hirzebruch.from_map", "calls"), "count")
    m["poly.mul.term_products"] = (counts.get("poly.mul.term_products", 0), "count")
    m["poly.evaluate.peak_bits"] = (peaks.get("poly.evaluate.peak_bits", 0), "bits")
    m["poly.cap_trips"] = (counts.get("poly.cap_trips", 0), "count")
    m["degrees.compose_per_step"] = (_ratio(st("maps.compose_map", "calls"), horizons), "ratio")
    m["dml.orbit.steps"] = (counts.get("dml.orbit.steps", 0), "count")
    m["dml.orbit.peak_bits"] = (peaks.get("dml.orbit.peak_bits", 0), "bits")
    m["dml.orbit.guard_hits"] = (counts.get("dml.orbit.guard_hits", 0), "count")
    m["dml.orbit.distinct_ratio"] = (_ratio(t["distinct_orbits"], st("dml.orbit", "calls")), "ratio")
    m["dml.curve_period.capped_ratio"] = (
        _ratio(counts.get("dml.curve_period.capped", 0), st("dml.curve_period", "calls")), "ratio")
    m["metrics.basin_probe.steps"] = (counts.get("metrics.basin_probe.steps", 0), "count")
    m["cli.emit.bytes"] = (sum(e["bytes"] for e in rec["items"]), "bytes")
    return m


def traced_run(workload: str, seed: int, work: str, v: Checker):
    spans = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    plain: list[dict] = []
    traced: list[dict] = []
    serial = None
    # untraced and traced passes alternate, so that drift in the machine's
    # speed does not land on one side of the overhead ratio
    for i in range(2):
        rec = spawn(workload, seed, work)
        v.add(rec)
        if plain:
            v.same_outputs(plain[0], rec, "repeated pass")
        plain.append(rec)
        if workload == "batch" and serial is None:
            serial = spawn(workload, seed, work, jobs=1)
            v.add(serial)
            v.same_outputs(rec, serial, "batch --jobs 1 vs --jobs 2")
        rec = spawn(workload, seed, work, trace=True, spans=spans if i == 0 else None)
        v.add(rec)
        v.same_outputs(plain[0], rec, "traced vs untraced")
        traced.append(rec)
    # compose steps that `dmlwb degrees` needs: one degree sequence of h - 1 steps
    horizons = sum(e["horizon"] - 1 for e in plain[0]["items"]) if workload == "degrees" else 0
    first, second = (layer_metrics(rec, horizons) for rec in traced)
    for name in EXACT_COUNTS:
        if first[name][0] != second[name][0]:
            v.failed += 1
            v.problems.append(f"{name} differs between traced passes: "
                              f"{first[name][0]} vs {second[name][0]}")
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median([value, second[name][0]])
        metrics[name] = (value, unit)
    metrics["dml.undetermined_ratio"] = (_ratio(v.undetermined, v.classified), "ratio")
    metrics["cli.batch.jobs_speedup"] = (
        _ratio(serial["wall_s"], plain[0]["wall_s"]) if serial else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        _ratio(statistics.median(r["wall_s"] for r in traced),
               statistics.median(r["wall_s"] for r in plain)), "ratio")
    return metrics, {}, f"spans of the first traced pass: {os.path.relpath(spans, ROOT)}"


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dmlwb", "cli.py")):
        print(f"run.py: no dmlwb sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    v = Checker(args.workload, args.seed)
    try:
        if args.trace:
            metrics, printed, note = traced_run(args.workload, args.seed, work, v)
        else:
            metrics, printed, note = measured_run(args.workload, args.seed, args.seconds, work, v)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {note}")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':32s} {_ratio(v.failed, v.attempted):14.6g} ratio"
          f"  ({v.failed} of {v.attempted} items)")
    if args.workload != "degrees":
        print(f"  {'undetermined_ratio':32s} {_ratio(v.undetermined, v.classified):14.6g} ratio"
              f"  ({v.undetermined} of {v.classified} classified)")
    for line in v.problems[:20]:
        print(f"  FAIL {line}")
    print(json.dumps({
        "correct": v.failed == 0,
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
