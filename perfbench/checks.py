"""Correctness checks on the outputs of one workload pass.

For any seed the checks test invariants of each report; for the
default seed (and, for batch, every seed, since its items do not
change) they also compare each item with the reference results stored
under reference/.  Every function returns {item id: [problems]} for
the items that fail.
"""

from __future__ import annotations

import json
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

VIOLATION = "VIOLATION"
UNDETERMINED = "undetermined"


def load_reference(workload: str):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def ap_members(ap: dict) -> set[int]:
    """Decode an APSet report over [0, horizon]."""
    bound = ap["horizon"]
    out = {s for s in ap["exceptional"] if s <= bound}
    for a, b in ap["progressions"]:
        out.update(range(b, bound + 1, a))
    return out


def dml_problems(res: dict) -> list[str]:
    """Invariants of one dml report."""
    out = []
    if res["verdict"] == VIOLATION:
        out.append("verdict is VIOLATION")
    if ap_members(res["ap"]) != set(res["visit_set"]):
        out.append("ap.members() differs from the visit set")
    return out


def dml_matches(res: dict, ref: dict) -> bool:
    """Equal to the reference, or a non-VIOLATION verdict for an item the
    reference left undetermined whose visits agree on the prefix the
    reference computed."""
    if res == ref:
        return True
    if ref["verdict"] != UNDETERMINED or res["verdict"] == VIOLATION:
        return False
    prefix = ref["ap"]["horizon"]
    return {n for n in res["visit_set"] if n <= prefix} == set(ref["visit_set"])


def degree_problems(degrees: list[int], stability: str, deg_f: int, horizon: int) -> list[str]:
    out = []
    if len(degrees) != horizon:
        return [f"{len(degrees)} degrees for horizon {horizon}"]
    if degrees[0] != deg_f:
        out.append(f"deg f is {deg_f} but the list starts at {degrees[0]}")
    for m in range(1, horizon + 1):
        for n in range(1, horizon + 1 - m):
            if degrees[m + n - 1] > degrees[m - 1] * degrees[n - 1]:
                out.append(f"deg f^{m + n} > deg f^{m} * deg f^{n}")
    first_drop = next(
        (n for n, d in enumerate(degrees, start=1) if d < degrees[0] ** n), None
    )
    expected = f"stable_up_to_{horizon}" if first_drop is None else f"unstable_at({first_drop})"
    if stability != expected:
        out.append(f"stability {stability!r} disagrees with the degrees ({expected})")
    return out


def _failed_call(entry: dict) -> list[str]:
    return [f"exit code {entry['rc']}: {entry.get('stderr', '').strip()[-300:]}"]


def check_degrees(items: list[dict], entries: list[dict], reference) -> dict:
    bad = {}
    for item, entry in zip(items, entries):
        if entry["rc"] != 0:
            bad[item["id"]] = _failed_call(entry)
            continue
        out = entry["out"]
        problems = degree_problems(out["degrees"], out["stability"], item["degree"], item["horizon"])
        if reference is not None and out != reference[str(item["id"])]:
            problems.append("differs from the reference")
        if problems:
            bad[item["id"]] = problems
    return bad


def check_scan(items: list[dict], entries: list[dict], reference) -> dict:
    bad = {}
    for item, entry in zip(items, entries):
        if entry["rc"] != 0:
            bad[item["id"]] = _failed_call(entry)
            continue
        problems = dml_problems(entry["out"])
        if reference is not None and not dml_matches(entry["out"], reference[str(item["id"])]):
            problems.append("differs from the reference")
        if problems:
            bad[item["id"]] = problems
    return bad


def batch_key(item: dict) -> str:
    return "|".join(item[k] for k in ("map", "curve", "point", "place"))


def check_batch(entry: dict, reference: dict) -> dict:
    """Check one `dmlwb batch` call; ids are the item keys."""
    if entry["rc"] != 0:
        return {"*": _failed_call(entry)}
    bad = {}
    for item in entry["out"]:
        key = batch_key(item)
        problems = []
        if item["error"] is not None:
            problems.append(f"error {item['error']}")
        else:
            problems += dml_problems(item["dml"])
            if item["local"] is not None and item["local"]["violation"]:
                problems.append("local probe reports a violation")
        ref = reference.get(key)
        if ref is None:
            problems.append("not in the reference")
        elif not problems and not (
            dml_matches(item["dml"], ref["dml"]) and item["local"] == ref["local"]
        ):
            problems.append("differs from the reference")
        if problems:
            bad[key] = problems
    missing = set(reference) - {batch_key(item) for item in entry["out"]}
    for key in missing:
        bad[key] = ["missing from the output"]
    return bad
