"""Command-line front door: subcommand routing, JSON reports, batch runs.

Every subcommand writes one JSON document (schema_version 1, embedding
the tool version and the resolved configuration) to --out or stdout,
and a short human summary to stderr.  Exit codes: 0 success, 1 domain
errors (indeterminacy, contraction, guards), 2 usage and config errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import __version__
from .curves import (
    Curve,
    intersection_multiplicity,
    is_periodic_curve,
    rational_intersection_points,
)
from .degrees import degree_sequence, profile_to_json_dict, stability_verdict
from .dml import (
    DEFAULT_BIT_GUARD,
    DEFAULT_CURVE_SEARCH_CAP,
    DEFAULT_HORIZON,
    DEFAULT_MAX_PERIOD,
    classify_orbit,
    dml_classify,
    orbit,
)
from .errors import DmlwbError, NotTriangularError
from .hirzebruch import FnModel, contracted_image_check, indeterminacy_fn
from .maps import Point, PolyMap, load_map, map_to_json_dict
from .metrics import DEFAULT_EPS, basin_on_orbit, basin_probe, local_verdict
from .parsing import parse_point
from .places import (
    Place,
    abs_value,
    height_affine,
    northcott_enumerate,
    product_formula_check,
    relevant_places,
)

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Bad flag combinations or invalid config files (exit code 2)."""


# numerators and denominators of --eps; far below the 4300-digit limit
# of int-to-str conversion that the JSON config echo would hit
EPS_MAX_BITS = 4096


def _flag_type(word: str):
    """Argparse type from a converter: a value it rejects exits 2 with
    "argument --flag: invalid <word>: 'text' (reason)"."""
    def wrap(convert):
        def parse(text: str):
            try:
                return convert(text)
            except ZeroDivisionError:
                reason = "zero denominator"
            except (ValueError, DmlwbError) as exc:
                reason = str(exc)
            detail = f" ({reason})" if reason else ""
            raise argparse.ArgumentTypeError(f"invalid {word}: {text!r}{detail}")
        return parse
    return wrap


@_flag_type("point")
def _point_arg(text: str) -> Point:
    return Point(*parse_point(text))


_place_arg = _flag_type("place")(Place.parse)
_rational_arg = _flag_type("rational")(Fraction)
_curve_arg = _flag_type("curve")(Curve.from_string)


@_flag_type("positive rational")
def _eps_arg(text: str) -> Fraction:
    m = re.fullmatch(r"(\d+)\^(-?\d+)", text.strip())
    if m:
        base, k = int(m.group(1)), int(m.group(2))
        # base^|k| has at least |k| * (bit_length - 1) bits: refuse before computing
        if abs(k) * (base.bit_length() - 1) > EPS_MAX_BITS:
            raise ValueError(f"more than {EPS_MAX_BITS} bits")
        eps = Fraction(base) ** k
    else:
        m = re.search(r"[eE]([+-]?\d+)$", text.strip())
        # 10^e has more than 3e bits
        if m and 3 * abs(int(m.group(1))) > EPS_MAX_BITS:
            raise ValueError(f"more than {EPS_MAX_BITS} bits")
        eps = Fraction(text)
    if eps <= 0:
        raise ValueError("must be positive")
    if max(eps.numerator.bit_length(), eps.denominator.bit_length()) > EPS_MAX_BITS:
        raise ValueError(f"more than {EPS_MAX_BITS} bits")
    return eps


@_flag_type("positive integer")
def _positive_int(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise ValueError("must be positive")
    return n


def _model_n(text: str, flag: str) -> Optional[int]:
    """The n of an F_n model: None for auto, else a nonnegative integer."""
    if text == "auto":
        return None
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise UsageError(f"{flag} must be auto or a nonnegative integer, got {text!r}")
    return n


def _envelope(command: str, config: dict, result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "dmlwb", "version": __version__},
        "command": command,
        "config": config,
        "result": result,
    }


def _config(args, *names: str) -> dict:
    """The envelope's config block: the named args in JSON form.

    Points become [x, y] string pairs; values that are neither int, str
    nor None (curves, places, rationals) become their strings.
    """
    config = {}
    for name in names:
        value = getattr(args, name)
        if isinstance(value, Point):
            value = [str(value.x), str(value.y)]
        elif value is not None and not isinstance(value, (int, str)):
            value = str(value)
        config[name] = value
    return config


def _emit(doc: dict, out: Optional[str], summary: list[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for line in summary:
        print(line, file=sys.stderr)


def _rename_fn_vars(p) -> str:
    # Poly2 prints in x, y; the model components live in x1, x2
    return str(p).replace("x", "\x00").replace("y", "x2").replace("\x00", "x1")


# -- subcommand handlers ---------------------------------------------------------

def _cmd_degrees(args) -> tuple[dict, dict, list[str]]:
    f = load_map(args.map)
    profile = degree_sequence(f, args.horizon)
    verdict = stability_verdict(profile.degrees)
    config = _config(args, "map", "horizon")
    result = {
        "profile": profile_to_json_dict(profile),
        "stability": str(verdict),
    }
    summary = [
        f"degrees of the first {args.horizon} iterates: "
        + ", ".join(str(d) for d in profile.degrees),
        f"growth class: {profile.growth_class}; "
        f"lambda estimate: {profile.lambda_estimate:.6g}",
        f"plane stability: {verdict}",
    ]
    return config, result, summary


def _cmd_height(args) -> tuple[dict, dict, list[str]]:
    p = args.point
    h = height_affine(p)
    config = _config(args, "point")
    result = {"point": config["point"], "height": h}
    return config, result, [f"H({p.x}, {p.y}) = {h}"]


def _cmd_northcott(args) -> tuple[dict, dict, list[str]]:
    points = northcott_enumerate(args.bound, args.dim)
    config = _config(args, "bound", "dim")
    result = dict(config, count=len(points), points=[str(pt) for pt in points])
    return config, result, [
        f"{len(points)} projective points of height <= {args.bound} in dimension {args.dim}"
    ]


def _cmd_product_check(args) -> tuple[dict, dict, list[str]]:
    x = args.value
    ok = product_formula_check(x)
    breakdown = [
        {"place": str(v), "abs": str(abs_value(x, v))} for v in relevant_places(x)
    ]
    config = _config(args, "value")
    result = {"value": config["value"], "product_is_one": ok, "places": breakdown}
    return config, result, [f"product formula for {x}: {'holds' if ok else 'FAILS'}"]


def _cmd_basin(args) -> tuple[dict, dict, list[str]]:
    f = load_map(args.map)
    if args.model == "p2":
        if args.target is None:
            raise UsageError("--model p2 requires --target (the fixed point)")
        model = f
    elif args.model.startswith("fn:"):
        if args.target is not None:
            raise UsageError("--target only applies to --model p2; "
                             "ruled-surface probes converge to the canonical point")
        n = _model_n(args.model[3:], "the n of --model fn:<n>")
        model = FnModel.from_map(f, n)
    else:
        raise UsageError("--model must be fn:auto, fn:<n>, or p2")
    report = basin_probe(
        model, args.point, args.target, args.place, args.horizon, args.eps
    )
    config = _config(
        args, "map", "model", "point", "target", "place", "eps", "horizon"
    )
    summary = [str(report)]
    summary.extend(report.notes)
    return config, report.to_json_dict(), summary


def _cmd_fn_model(args) -> tuple[dict, dict, list[str]]:
    f = load_map(args.map)
    model = FnModel.from_map(f, _model_n(args.n, "--n"))
    components = [
        f"{model.a}*x1 + {model.b}*x2" if model.b else f"{model.a}*x1",
        "x2",
        f"({_rename_fn_vars(model.Ah)})*x3 + ({_rename_fn_vars(model.Bh)})*x4"
        if not model.Bh.is_zero
        else f"({_rename_fn_vars(model.Ah)})*x3",
        f"x2^{model.d}*x4" if model.d != 1 else "x2*x4",
    ]
    result = {
        "n": model.n,
        "d": model.d,
        "threshold": model.threshold,
        "stable": model.is_stable,
        "components": components,
        "map": map_to_json_dict(f),
    }
    if model.is_stable:
        info = indeterminacy_fn(model)
        result["indeterminacy"] = {
            "description": info.description,
            "point": "[1, 0, 0, 1]",
        }
        result["contraction_check"] = contracted_image_check(model)
    else:
        result["indeterminacy"] = None
        result["contraction_check"] = None
    config = _config(args, "map", "n")
    summary = [
        f"model on F_{model.n} (threshold {model.threshold}, "
        f"{'stable' if model.is_stable else 'NOT stable'})",
    ]
    if model.is_stable:
        summary.append(
            "indeterminacy locus: " + result["indeterminacy"]["description"]
        )
        summary.append(
            "fiber at infinity contracts to [1, 0, 1, 0]: "
            + str(result["contraction_check"])
        )
    else:
        summary.append("below threshold: indeterminacy is not a single point")
    return config, result, summary


def _cmd_curve_period(args) -> tuple[dict, dict, list[str]]:
    f = load_map(args.map)
    period = is_periodic_curve(args.curve, f, args.max_period)
    config = _config(args, "map", "curve", "max_period")
    result = {
        "curve": config["curve"],
        "period": period,
        "max_period": args.max_period,
        "is_fixed": period == 1,
    }
    if period is None:
        summary = [f"no period <= {args.max_period} found"]
    else:
        summary = [f"curve has period {period}"]
    return config, result, summary


def _cmd_intersect(args) -> tuple[dict, dict, list[str]]:
    mult = intersection_multiplicity(args.c1, args.c2, args.at)
    config = _config(args, "c1", "c2", "at")
    result = dict(config)
    result["multiplicity"] = "infinity" if mult == float("inf") else mult
    if args.all_points:
        points, flagged = rational_intersection_points(args.c1, args.c2)
        result["rational_points"] = [[str(p.x), str(p.y)] for p in points]
        result["nonrational_detected"] = flagged
    summary = [f"I_({args.at.x},{args.at.y}) = {result['multiplicity']}"]
    return config, result, summary


def _cmd_dml_scan(args) -> tuple[dict, dict, list[str]]:
    f = load_map(args.map)
    report = dml_classify(
        f,
        args.curve,
        args.point,
        N=args.horizon,
        K=args.max_period,
        bit_guard=args.bit_guard,
    )
    config = _config(
        args, "map", "curve", "point", "horizon", "max_period", "bit_guard"
    )
    summary = [
        f"verdict: {report.verdict}",
        f"visit set has {len(report.visit_set)} entries; "
        f"{len(report.ap.progressions)} progressions, "
        f"{len(report.ap.exceptional)} exceptional",
    ]
    if report.preperiodic_witness is not None:
        tail, period = report.preperiodic_witness
        summary.append(f"orbit preperiodic: tail {tail}, period {period}")
    if report.curve_period_witness is not None:
        summary.append(f"curve periodic with period {report.curve_period_witness}")
    summary.extend(report.notes)
    return config, report.to_json_dict(), summary


# -- batch orchestration ----------------------------------------------------------

@dataclass(frozen=True)
class BatchInputs:
    """The loaded objects behind an ExperimentConfig's strings."""

    maps: tuple[PolyMap, ...]
    curves: tuple[Curve, ...]
    points: tuple[Point, ...]
    places: tuple[Place, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    """A batch: the cross product of maps x curves x points x places."""

    maps: tuple[str, ...]
    curves: tuple[str, ...]
    points: tuple[str, ...]
    places: tuple[str, ...]
    N: int = DEFAULT_HORIZON
    K: int = DEFAULT_MAX_PERIOD
    M: int = 50  # horizon for the place-local probes
    bit_guard: int = DEFAULT_BIT_GUARD
    curve_search_cap: int = DEFAULT_CURVE_SEARCH_CAP
    out: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "maps": list(self.maps),
            "curves": list(self.curves),
            "points": list(self.points),
            "places": list(self.places),
            **{name: {key: getattr(self, key) for key in keys}
               for name, _, keys in _CONFIG_SECTIONS},
            "out": self.out,
        }


def _load_inputs(cfg: ExperimentConfig) -> BatchInputs:
    """Load every map, curve, point and place; any defect is a usage error."""
    maps = []
    for path_ in cfg.maps:
        if not isinstance(path_, str):
            raise UsageError(
                f"--config: maps entries must be file paths, got {path_!r}"
            )
        if not os.path.isfile(path_):
            raise UsageError(f"--config: map file does not exist: {path_}")
        try:
            maps.append(load_map(path_))
        except Exception as exc:
            raise UsageError(f"--config: bad map file {path_}: {exc}") from exc
    parsed = []
    for kind, texts, parse in (
        ("curve", cfg.curves, Curve.from_string),
        ("point", cfg.points, _point_arg),
        ("place", cfg.places, Place.parse),
    ):
        loaded = []
        for text in texts:
            try:
                loaded.append(parse(text))
            except Exception as exc:
                raise UsageError(f"--config: bad {kind} {text!r}: {exc}") from exc
        parsed.append(tuple(loaded))
    return BatchInputs(tuple(maps), *parsed)


# (section, kind, keys): each key is an ExperimentConfig field
_CONFIG_SECTIONS = (
    ("horizons", "horizon", ("N", "K", "M")),
    ("guards", "guard", ("bit_guard", "curve_search_cap")),
)
_CONFIG_KEYS = (
    "map", "maps", "curves", "points", "places", "horizons", "guards", "out"
)


def load_batch(path: str) -> tuple[ExperimentConfig, BatchInputs]:
    """Load and fully validate a batch config, with the inputs it names.

    Validation loads every map, curve, point and place, and those loaded
    objects are what run_batch runs on.  Any defect, an unknown key
    included, is a usage error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("--config: top level must be a JSON object")
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise UsageError(f"--config: unknown key {key!r}")
    if "map" in raw and "maps" in raw:
        raise UsageError("--config: give map or maps, not both")
    fields = {}
    for name, default in (
        ("maps", [raw["map"]] if "map" in raw else []),
        ("curves", []),
        ("points", []),
        ("places", ["inf"]),
    ):
        value = raw.get(name, default)
        if not isinstance(value, list):
            raise UsageError(f"--config: {name} must be a JSON list")
        fields[name] = tuple(value)
    for name, kind, keys in _CONFIG_SECTIONS:
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise UsageError(f"--config: {name} must be a JSON object")
        for key, value in section.items():
            if key not in keys:
                raise UsageError(f"--config: unknown key {key!r} in {name}")
            # JSON true and false load as bool, a subclass of int
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise UsageError(f"--config: {kind} {key} must be a positive integer")
        fields.update(section)
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise UsageError("--config: out must be a path or null")
    cfg = ExperimentConfig(**fields, out=out)
    return cfg, _load_inputs(cfg)


_FAILURES = (DmlwbError, ValueError)


def _once(compute):
    """A batch stage shared by many items, computed when first read.

    Its result, or the domain error it raised, is kept: every item that
    reads a failed stage reports that failure as its own.
    """
    kept = []

    def read():
        if not kept:
            try:
                kept.append(compute())
            except _FAILURES as exc:
                kept.append(exc)
        if isinstance(kept[0], Exception):
            raise kept[0].with_traceback(None)
        return kept[0]

    return read


def _item_report(names: dict, dml, local) -> dict:
    """One batch item: the dml report, then the local one.

    dml and local are read in that order, as an item computed on its own
    computes them: the first failing stage names the error, "dml" stays
    when only the local probe failed, a map that is not triangular has
    local None, and no local stage runs for an item whose dml failed.
    """
    report = dict(names, error=None)
    try:
        report["dml"] = dml().to_json_dict()
        try:
            report["local"] = local().to_json_dict()
        except NotTriangularError:
            report["local"] = None
    except _FAILURES as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return report


def run_batch(cfg: ExperimentConfig, inputs: BatchInputs) -> list[dict]:
    """Run the cross product of inputs; items are listed in input order.

    Each result is computed at most once, at the level it depends on,
    and only when an item reads it: the F_n model per map; the orbit of
    each point to N, and for a triangular map to M for the local probe
    (read off the first when M <= N), per (map, point); the
    classification per (map, point, curve); the basin per (map, point,
    place), along the local-probe orbit; the local verdict per item.  A
    map is triangular exactly when its model exists, and its plane map
    is then f itself.  Only one (map, point) group's orbits are alive at
    a time.  The work is pure-Python exact arithmetic, so it runs
    serially in this process.
    """
    n_c, n_p, n_v = len(inputs.curves), len(inputs.points), len(inputs.places)
    reports: list = [None] * (len(inputs.maps) * n_c * n_p * n_v)
    for i_m, f in enumerate(inputs.maps):
        model = _once(lambda: FnModel.from_map(f))
        for i_p, p in enumerate(inputs.points):
            res = _once(lambda: orbit(f, p, cfg.N, cfg.bit_guard))
            local_res = _once(lambda: (
                res().prefix(cfg.M) if cfg.M <= cfg.N
                else orbit(f, p, cfg.M, cfg.bit_guard)
            ))
            # model() first: a non-triangular map raises before the local orbit
            basins = [
                _once(lambda v=v: basin_on_orbit(model(), local_res(), None, v))
                for v in inputs.places
            ]
            for i_c, C in enumerate(inputs.curves):
                dml = _once(lambda: classify_orbit(
                    f, C, res(), K=cfg.K, curve_search_cap=cfg.curve_search_cap
                ))
                for i_v, basin in enumerate(basins):
                    names = {
                        "map": cfg.maps[i_m],
                        "curve": cfg.curves[i_c],
                        "point": cfg.points[i_p],
                        "place": cfg.places[i_v],
                    }
                    slot = ((i_m * n_c + i_c) * n_p + i_p) * n_v + i_v
                    reports[slot] = _item_report(names, dml, lambda: local_verdict(
                        f, C, basin(), local_res()
                    ))
    return reports


def _cmd_batch(args) -> tuple[dict, list[dict], list[str]]:
    cfg, inputs = load_batch(args.config)
    results = run_batch(cfg, inputs)
    # main writes to args.out; the config's path is the fallback
    if args.out is None:
        args.out = cfg.out
    counts: dict[str, int] = {}
    for item in results:
        key = "error" if item["error"] is not None else item["dml"]["verdict"]
        counts[key] = counts.get(key, 0) + 1
    summary = [f"{len(results)} batch items"]
    for key in sorted(counts):
        summary.append(f"  {key}: {counts[key]}")
    return cfg.to_json_dict(), results, summary


# -- parser wiring ---------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dmlwb",
        description="exact workbench for plane polynomial dynamics",
    )
    parser.add_argument(
        "--version", action="version", version=f"dmlwb {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrees", help="degree growth profile of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--horizon", type=_positive_int, default=8)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_degrees)

    p = sub.add_parser("height", help="height of an affine rational point")
    p.add_argument("--point", required=True, type=_point_arg)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_height)

    p = sub.add_parser("northcott", help="enumerate projective points of bounded height")
    p.add_argument("--bound", required=True, type=_positive_int)
    p.add_argument("--dim", required=True, type=_positive_int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_northcott)

    p = sub.add_parser("product-check", help="verify the product formula for a rational")
    p.add_argument("--value", required=True, type=_rational_arg)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_product_check)

    p = sub.add_parser("basin", help="certified convergence toward a fixed point")
    p.add_argument("--map", required=True)
    p.add_argument("--model", default="fn:auto",
                   help="fn:auto, fn:<n>, or p2 (planar probe)")
    p.add_argument("--point", required=True, type=_point_arg)
    p.add_argument("--target", type=_point_arg,
                   help="fixed point for --model p2")
    p.add_argument("--place", default=Place.archimedean(), type=_place_arg)
    p.add_argument("--eps", default=DEFAULT_EPS, type=_eps_arg)
    p.add_argument("--horizon", type=_positive_int, default=50)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_basin)

    p = sub.add_parser("fn-model", help="ruled-surface extension of a triangular map")
    p.add_argument("--map", required=True)
    p.add_argument("--n", default="auto", help="auto (threshold) or an integer")
    p.add_argument("--report", dest="out")
    p.add_argument("--out", dest="out")
    p.set_defaults(handler=_cmd_fn_model)

    p = sub.add_parser("curve-period", help="least period of a curve under a map")
    p.add_argument("--map", required=True)
    p.add_argument("--curve", required=True, type=_curve_arg)
    p.add_argument("--max-period", type=_positive_int, default=DEFAULT_MAX_PERIOD)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_curve_period)

    p = sub.add_parser("intersect", help="local intersection multiplicity")
    p.add_argument("--c1", required=True, type=_curve_arg)
    p.add_argument("--c2", required=True, type=_curve_arg)
    p.add_argument("--at", required=True, type=_point_arg)
    p.add_argument("--all-points", action="store_true",
                   help="also list all rational intersection points")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("dml", help="dichotomy classification")
    dml_sub = p.add_subparsers(dest="dml_command", required=True)
    ps = dml_sub.add_parser("scan", help="classify one (map, curve, point) instance")
    ps.add_argument("--map", required=True)
    ps.add_argument("--curve", required=True, type=_curve_arg)
    ps.add_argument("--point", required=True, type=_point_arg)
    ps.add_argument("--horizon", type=_positive_int, default=DEFAULT_HORIZON)
    ps.add_argument("--max-period", type=_positive_int, default=DEFAULT_MAX_PERIOD)
    ps.add_argument("--bit-guard", type=_positive_int, default=DEFAULT_BIT_GUARD)
    ps.add_argument("--out")
    ps.set_defaults(handler=_cmd_dml_scan)

    p = sub.add_parser("batch", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="accepted for compatibility and ignored: "
                        "the batch runs serially")
    p.add_argument("--out", help="override the config's output path")
    p.set_defaults(handler=_cmd_batch)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command = args.command
        if command == "dml":
            command = f"dml {args.dml_command}"
        config, result, summary = args.handler(args)
        _emit(_envelope(command, config, result), args.out, summary)
        return 0
    except (UsageError, OSError, json.JSONDecodeError) as exc:
        # unreadable or malformed input files are usage problems too
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DmlwbError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
