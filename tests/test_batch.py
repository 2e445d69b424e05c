"""`dmlwb batch` as a dependency plan: the same items as classifying each
one on its own, with shared work done once per map, point and curve."""

import json

import pytest

import dmlwb.cli as cli
import dmlwb.curves as curves
import dmlwb.metrics as metrics
from dmlwb.cli import load_batch, main, run_batch
from dmlwb.curves import Curve
from dmlwb.dml import dml_classify
from dmlwb.errors import DmlwbError, NotTriangularError
from dmlwb.hirzebruch import FnModel
from dmlwb.maps import Point, load_map
from dmlwb.metrics import local_dml_probe
from dmlwb.parsing import parse_point
from dmlwb.places import Place

MAPS = {
    # triangular: local probes; the orbit of (2, 2) outgrows the bit guard
    "triang": {"f1": "2*x", "f2": "x^3*y + x^5"},
    # triangular: the line pair x*y has a component of period 2
    "swing": {"f1": "-x + 2", "f2": "2*x*y - 2*y - 2"},
    # not triangular: every orbit cycles with period 1 or 2
    "swap": {"f1": "y", "f2": "x"},
    # not triangular: orbits outgrow the bit guard
    "henon": {"f1": "y", "f2": "y^2 - x"},
}
CURVES = ["y - 1", "x*y", "y - x"]
POINTS = ["0,-4", "2,2", "1,3"]
PLACES = ["inf", "2"]
N, K, M, BIT_GUARD = 60, 4, 20, 2000


def write_config(tmp_path, M=M) -> str:
    paths = []
    for name, spec in MAPS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        paths.append(str(path))
    cfg = {
        "maps": paths,
        "curves": CURVES,
        "points": POINTS,
        "places": PLACES,
        "horizons": {"N": N, "K": K, "M": M},
        "guards": {"bit_guard": BIT_GUARD},
    }
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    return write_config(tmp_path)


def item_on_its_own(map_path, curve, pt, place, M=M) -> dict:
    """One item from dml_classify and local_dml_probe, with no sharing."""
    f, C = load_map(map_path), Curve.from_string(curve)
    p, v = Point(*parse_point(pt)), Place.parse(place)
    report = {"map": map_path, "curve": curve, "point": pt, "place": place,
              "error": None}
    try:
        report["dml"] = dml_classify(
            f, C, p, N=N, K=K, bit_guard=BIT_GUARD
        ).to_json_dict()
        try:
            model = FnModel.from_map(f)
            report["local"] = local_dml_probe(
                model, C, p, v=v, N=M, bit_guard=BIT_GUARD
            ).to_json_dict()
        except NotTriangularError:
            report["local"] = None
    except (DmlwbError, ValueError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return report


def items_on_their_own(cfg) -> list[dict]:
    return [
        item_on_its_own(m, c, p, v, M=cfg.M)
        for m in cfg.maps for c in cfg.curves for p in cfg.points for v in cfg.places
    ]


def test_items_equal_those_computed_on_their_own(config_file):
    cfg, inputs = load_batch(config_file)
    items = run_batch(cfg, inputs)
    assert items == items_on_their_own(cfg)
    # the config reaches the cases the plan has to share correctly
    verdicts = {it["dml"]["verdict"] for it in items}
    assert {"dichotomy_confirmed_preperiodic", "dichotomy_confirmed_curve_periodic",
            "undetermined", "finite_visits"} <= verdicts
    assert any(it["dml"]["guards"]["orbit_guard_hit"] for it in items)
    assert {it["local"] is None for it in items} == {True, False}


def test_henon_items_are_proved_by_escape_certificates(config_file):
    cfg, inputs = load_batch(config_file)
    henon = [it["dml"] for it in run_batch(cfg, inputs) if it["map"].endswith("henon.json")]
    certified = [d for d in henon if d["notes"][:1] and
                 d["notes"][0].startswith("escape certificate")]
    assert certified
    assert all(d["verdict"] == "finite_visits" for d in certified)
    assert not any(d["guards"]["orbit_guard_hit"] for d in certified)


def test_local_orbit_beyond_the_classify_horizon(tmp_path, monkeypatch):
    """With M > N the local-probe orbit is no prefix and runs on its own."""
    horizons = []
    original = cli.orbit

    def counted(f, p, n, *args):
        horizons.append(n)
        return original(f, p, n, *args)

    monkeypatch.setattr(cli, "orbit", counted)
    cfg, inputs = load_batch(write_config(tmp_path, M=N + 10))
    assert run_batch(cfg, inputs) == items_on_their_own(cfg)
    assert sorted(set(horizons)) == [N, N + 10]
    assert horizons.count(N + 10) == 2 * len(POINTS)  # the triangular maps


def test_shared_stage_errors_reach_every_item(config_file, monkeypatch):
    """A failed basin probe leaves "dml" set; a failed classification
    leaves no "dml"; a map that is not triangular still has local None."""
    probe, classify = metrics.basin_on_orbit, cli.classify_orbit

    def failing_probe(model, res, Q, v, *args, **kwargs):
        if v == Place.finite(2):
            raise ValueError("probe failed at 2")
        return probe(model, res, Q, v, *args, **kwargs)

    def failing_classify(f, C, res, *args, **kwargs):
        if C == Curve.from_string("y - x"):
            raise DmlwbError("classification failed")
        return classify(f, C, res, *args, **kwargs)

    monkeypatch.setattr(metrics, "basin_on_orbit", failing_probe)
    monkeypatch.setattr(cli, "basin_on_orbit", failing_probe)
    monkeypatch.setattr(cli, "classify_orbit", failing_classify)
    cfg, inputs = load_batch(config_file)
    items = run_batch(cfg, inputs)
    by_hand = items_on_their_own(cfg)
    for it, ref in zip(items, by_hand):
        if it["curve"] == "y - x":
            ref["error"] = {"type": "DmlwbError", "message": "classification failed"}
            ref.pop("dml", None)
            ref.pop("local", None)
    assert items == by_hand
    triangular = set(cfg.maps[:2])
    for it in items:
        if it["curve"] == "y - x":
            assert "dml" not in it and "local" not in it
        elif it["place"] == "2" and it["map"] in triangular:
            assert "dml" in it and "local" not in it
            assert it["error"]["type"] == "ValueError"
        elif it["place"] == "2":
            assert it["local"] is None and it["error"] is None


def test_no_local_stage_when_every_classification_fails(config_file, monkeypatch):
    """As for an item on its own, a failed dml skips the local probe:
    no basin probe, no local-probe orbit."""
    calls = []

    def failing_classify(*args, **kwargs):
        raise DmlwbError("classification failed")

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "classify_orbit", failing_classify)
    monkeypatch.setattr(cli, "basin_on_orbit", counted("basin", cli.basin_on_orbit))
    monkeypatch.setattr(cli, "orbit", counted("orbit", cli.orbit))
    cfg, inputs = load_batch(config_file)
    items = run_batch(cfg, inputs)
    assert all(it["error"]["message"] == "classification failed" for it in items)
    assert calls == ["orbit"] * (len(MAPS) * len(POINTS))


def test_each_result_computed_once(config_file, tmp_path, monkeypatch):
    calls: dict[str, list] = {}

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.setdefault(key, []).append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(cli, "orbit", "orbit")
    count(cli, "classify_orbit", "classify")
    count(cli, "basin_on_orbit", "basin")
    count(cli, "load_map", "load_map")
    count(curves, "factor_poly", "factor_poly")
    count(FnModel, "from_map", "from_map")

    assert main(["batch", "--config", config_file,
                 "--out", str(tmp_path / "out.json")]) == 0
    n_maps, n_triangular = len(MAPS), 2
    n_c, n_p, n_v = len(CURVES), len(POINTS), len(PLACES)
    horizons = [args[2] for args in calls["orbit"]]
    # one classify orbit per (map, point); with M <= N each local-probe
    # orbit is a prefix of it and runs no orbit of its own
    assert horizons == [N] * (n_maps * n_p)
    assert len(calls["classify"]) == n_maps * n_p * n_c
    assert len(calls["from_map"]) == n_maps
    assert len(calls["basin"]) == n_triangular * n_p * n_v
    assert len(calls["load_map"]) == n_maps
    assert len(calls["factor_poly"]) == n_c


def test_local_probe_uses_the_config_bit_guard(tmp_path, capsys):
    path = tmp_path / "triang.json"
    path.write_text(json.dumps(MAPS["triang"]))
    cfg = {"maps": [str(path)], "curves": ["y - 1"], "points": ["2,2"],
           "places": ["inf"], "horizons": {"N": 60, "K": 4, "M": 50},
           "guards": {"bit_guard": 64}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["batch", "--config", str(cfg_path)]) == 0
    (item,) = json.loads(capsys.readouterr().out)["result"]
    assert item["dml"]["guards"]["orbit_guard_hit"]
    assert "orbit guard truncated the visit scan" in item["local"]["notes"]
