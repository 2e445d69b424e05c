"""End-to-end command-line checks, run in process through main()."""

import json

import pytest

from dmlwb import metrics
from dmlwb.cli import build_parser, load_batch, main

HENON = {"f1": "y", "f2": "y^2 - x"}
TRIANG = {"f1": "2*x", "f2": "x^3*y + x^5"}
FLIP = {"f1": "x + 1", "f2": "-y"}


@pytest.fixture
def henon_file(tmp_path):
    path = tmp_path / "henon.json"
    path.write_text(json.dumps(HENON))
    return str(path)


@pytest.fixture
def triang_file(tmp_path):
    path = tmp_path / "triang.json"
    path.write_text(json.dumps(TRIANG))
    return str(path)


@pytest.fixture
def flip_file(tmp_path):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(FLIP))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestEnvelope:
    def test_shape(self, capsys, henon_file):
        doc = run_json(capsys, ["degrees", "--map", henon_file, "--horizon", "3"])
        assert doc["schema_version"] == 1
        assert doc["tool"]["name"] == "dmlwb"
        assert doc["command"] == "degrees"
        assert set(doc) == {"schema_version", "tool", "command", "config", "result"}

    def test_out_file_instead_of_stdout(self, capsys, henon_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["degrees", "--map", henon_file, "--horizon", "3", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        doc = json.loads(out.read_text())
        assert doc["command"] == "degrees"


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_successive_calls_repeat_their_output(self, capsys, triang_file,
                                                   flip_file, tmp_path):
        cfg = tmp_path / "batch.json"
        cfg.write_text(json.dumps({
            "maps": [triang_file, flip_file], "curves": ["y - 1"],
            "points": ["1,1"], "horizons": {"N": 20, "K": 3, "M": 10},
        }))
        calls = [
            ["degrees", "--map", triang_file, "--horizon", "4"],
            ["dml", "scan", "--map", flip_file, "--curve", "y - 1",
             "--point", "0,1", "--horizon", "20", "--max-period", "3"],
            ["batch", "--config", str(cfg), "--jobs", "2"],
        ]
        first = []
        for argv in calls + calls[:1]:
            assert main(argv) == 0
            first.append(capsys.readouterr().out)
        assert first[3] == first[0]
        for argv, out in zip(calls, first):
            assert main(argv) == 0
            assert capsys.readouterr().out == out


class TestDegrees:
    def test_henon_profile(self, capsys, henon_file):
        doc = run_json(capsys, ["degrees", "--map", henon_file, "--horizon", "8"])
        assert doc["result"]["profile"]["degrees"] == [2, 4, 8, 16, 32, 64, 128, 256]
        assert doc["result"]["profile"]["growth_class"] == "exponential"
        assert doc["result"]["stability"] == "stable_up_to_8"

    def test_triangular_profile(self, capsys, triang_file):
        doc = run_json(capsys, ["degrees", "--map", triang_file, "--horizon", "8"])
        assert doc["result"]["profile"]["degrees"] == [
            3 * n + 2 for n in range(1, 9)
        ]
        assert doc["result"]["profile"]["growth_class"] == "linear"
        assert doc["result"]["stability"] == "unstable_at(2)"

    def test_constant_iterate(self, capsys, tmp_path):
        path = tmp_path / "nilpotent.json"
        path.write_text(json.dumps({"f1": "2*y + 1", "f2": "1"}))
        doc = run_json(capsys, ["degrees", "--map", str(path), "--horizon", "3"])
        assert doc["result"]["profile"]["degrees"] == [1, 0, 0]
        assert doc["result"]["stability"] == "unstable_at(2)"

    def test_horizon_one_is_domain_error(self, capsys, henon_file):
        code = main(["degrees", "--map", henon_file, "--horizon", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "stability horizon must be at least 2" in captured.err


class TestSmallCommands:
    def test_height(self, capsys):
        doc = run_json(capsys, ["height", "--point", "3/2,5"])
        assert doc["result"]["height"] == 10

    def test_northcott(self, capsys):
        doc = run_json(capsys, ["northcott", "--bound", "2", "--dim", "1"])
        assert doc["result"]["count"] == 8
        assert len(doc["result"]["points"]) == 8

    def test_product_check(self, capsys):
        doc = run_json(capsys, ["product-check", "--value", "12/35"])
        assert doc["result"]["product_is_one"] is True
        places = [entry["place"] for entry in doc["result"]["places"]]
        assert places == ["inf", "2", "3", "5", "7"]

    def test_curve_period(self, capsys, flip_file):
        doc = run_json(
            capsys,
            ["curve-period", "--map", flip_file, "--curve", "y - 1",
             "--max-period", "4"],
        )
        assert doc["result"]["period"] == 2
        assert doc["result"]["is_fixed"] is False

    def test_intersect(self, capsys):
        doc = run_json(
            capsys,
            ["intersect", "--c1", "y", "--c2", "y - x^2", "--at", "0,0"],
        )
        assert doc["result"]["multiplicity"] == 2

    def test_intersect_infinity(self, capsys):
        doc = run_json(
            capsys,
            ["intersect", "--c1", "y*(y - x)", "--c2", "y*(y + x)", "--at", "0,0"],
        )
        assert doc["result"]["multiplicity"] == "infinity"

    def test_intersect_all_points(self, capsys):
        doc = run_json(
            capsys,
            ["intersect", "--c1", "y - x^2", "--c2", "y - 4", "--at", "2,4",
             "--all-points"],
        )
        assert doc["result"]["multiplicity"] == 1
        assert doc["result"]["rational_points"] == [["-2", "4"], ["2", "4"]]
        assert doc["result"]["nonrational_detected"] is False


class TestBasin:
    def test_fn_auto_converges(self, capsys, triang_file):
        doc = run_json(
            capsys,
            ["basin", "--map", triang_file, "--point", "1,1",
             "--eps", "2^-20", "--horizon", "30"],
        )
        assert doc["result"]["verdict"] == "converged_at"
        assert doc["result"]["at"] <= 30

    def test_fn_explicit_n(self, capsys, triang_file):
        doc = run_json(
            capsys,
            ["basin", "--map", triang_file, "--model", "fn:3", "--point", "1,1",
             "--place", "inf", "--eps", "1e-6", "--horizon", "50"],
        )
        assert doc["result"]["verdict"] == "converged_at"

    def test_p2_requires_target(self, capsys, triang_file):
        code = main(["basin", "--map", triang_file, "--model", "p2",
                     "--point", "1,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "target" in captured.err

    def test_p2_with_nonfixed_target_is_domain_error(self, capsys, triang_file):
        code = main(["basin", "--map", triang_file, "--model", "p2",
                     "--point", "1,1", "--target", "5,5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "not fixed" in captured.err

    def test_unfixed_target_exits_before_any_orbit(self, capsys, henon_file,
                                                   monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("basin computed an orbit")

        monkeypatch.setattr(metrics, "orbit", fail)
        code = main(["basin", "--map", henon_file, "--model", "p2",
                     "--target", "5,5", "--point", "1,2"])
        assert code == 1
        assert "(5, 5) is not fixed by the map" in capsys.readouterr().err

    def test_config_echoes_target(self, capsys, triang_file, tmp_path):
        path = tmp_path / "halve.json"
        path.write_text(json.dumps({"f1": "1/2*x", "f2": "1/2*y"}))
        doc = run_json(capsys, ["basin", "--map", str(path), "--model", "p2",
                                "--point", "1,1", "--target", "0,0"])
        assert doc["config"]["target"] == ["0", "0"]
        doc = run_json(capsys, ["basin", "--map", triang_file, "--point", "1,1"])
        assert doc["config"]["target"] is None

    def test_p2_henon_orbit_ends_at_the_bit_guard(self, capsys, henon_file):
        # the default horizon 50 is far past the default 10^6-bit guard
        doc = run_json(capsys, ["basin", "--map", henon_file, "--model", "p2",
                                "--target", "0,0", "--point", "1,2"])
        result = doc["result"]
        assert result["verdict"] == "not_converged"
        assert len(result["samples"]) < 51
        assert result["notes"][-1] == (
            f"orbit guard ended the probe after step {len(result['samples']) - 1}"
        )

    def test_distance_beyond_float_range_is_null(self, capsys, triang_file):
        # on F_200 the chart coordinate w of (3, 1) is 3^200, and along the
        # orbit it passes the float range at n = 4
        doc = run_json(capsys, ["basin", "--map", triang_file, "--model", "fn:200",
                                "--point", "3,1"])
        result = doc["result"]
        assert result["verdict"] == "not_converged" and result["at"] is None
        distances = [s["distance"] for s in result["samples"]]
        assert isinstance(distances[0], float) and distances[-1] is None
        assert not any(s["below_epsilon"] for s in result["samples"])

    def test_distance_beyond_the_digit_limit_is_null(self, capsys, tmp_path):
        # |w|_2 on F_1000 passes 4300 decimal digits; valuations of
        # 10^5-bit integers must not take quadratic time either
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"f1": "x/2", "f2": "x*y"}))
        doc = run_json(capsys, ["basin", "--map", str(path), "--model", "fn:1000",
                                "--place", "2", "--point", "1,1"])
        result = doc["result"]
        assert result["verdict"] == "not_converged"
        distances = [s["distance"] for s in result["samples"]]
        assert distances[0] == "1" and distances[-1] is None
        assert all(d is None or isinstance(d, str) for d in distances)

    def test_bad_model_tag(self, capsys, triang_file):
        code = main(["basin", "--map", triang_file, "--model", "zeta",
                     "--point", "1,1"])
        assert code == 2


class TestFnModel:
    def test_auto(self, capsys, triang_file):
        doc = run_json(capsys, ["fn-model", "--map", triang_file])
        res = doc["result"]
        assert res["n"] == 3 and res["threshold"] == 3 and res["stable"] is True
        assert res["contraction_check"] is True
        assert res["indeterminacy"]["point"] == "[1, 0, 0, 1]"
        assert res["components"][1] == "x2"
        assert res["components"][3] == "x2^3*x4"

    def test_below_threshold(self, capsys, triang_file):
        doc = run_json(capsys, ["fn-model", "--map", triang_file, "--n", "1"])
        res = doc["result"]
        assert res["stable"] is False
        assert res["indeterminacy"] is None
        assert res["contraction_check"] is None

    def test_report_flag_writes_file(self, capsys, triang_file, tmp_path):
        out = tmp_path / "model.json"
        code = main(["fn-model", "--map", triang_file, "--report", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["result"]["n"] == 3


class TestDmlScan:
    def test_curve_periodic_instance(self, capsys, flip_file):
        doc = run_json(
            capsys,
            ["dml", "scan", "--map", flip_file, "--curve", "y - 1",
             "--point", "0,1", "--horizon", "10", "--max-period", "4"],
        )
        res = doc["result"]
        assert res["verdict"] == "dichotomy_confirmed_curve_periodic"
        assert res["visit_set"] == [0, 2, 4, 6, 8, 10]
        assert res["ap"]["progressions"] == [[2, 0]]
        assert res["curve_period_witness"] == 2
        assert doc["command"] == "dml scan"

    def test_missing_map_file(self, capsys):
        code = main(["dml", "scan", "--map", "/nonexistent/f.json",
                     "--curve", "y", "--point", "0,0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "usage error" in captured.err

    def test_malformed_map_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["dml", "scan", "--map", str(bad),
                     "--curve", "y", "--point", "0,0"])
        assert code == 2

    def test_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dml", "scan", "--curve", "y", "--point", "0,0"])
        assert exc.value.code == 2

    def test_zero_horizon_rejected(self, capsys, flip_file):
        with pytest.raises(SystemExit) as exc:
            main(["dml", "scan", "--map", flip_file, "--curve", "y",
                  "--point", "0,0", "--horizon", "0"])
        assert exc.value.code == 2


MAP = object()  # stands for the path of a triangular map file


@pytest.mark.parametrize("argv", [
    ["height", "--point", "abc"],
    ["height", "--point", "1/0,2"],
    ["intersect", "--c1", "x/y", "--c2", "y", "--at", "0,0"],
    ["product-check", "--value", "1/0"],
    ["basin", "--map", MAP, "--point", "1,1", "--eps", "1/0"],
    ["basin", "--map", MAP, "--point", "1,1", "--eps", "0^-1"],
    ["curve-period", "--map", MAP, "--curve", "1/0"],
    ["fn-model", "--map", MAP, "--n", "abc"],
    ["fn-model", "--map", MAP, "--n", "-1"],
    ["basin", "--map", MAP, "--point", "1,1", "--model", "fn:abc"],
    ["basin", "--map", MAP, "--point", "1,1", "--model", "fn:-2"],
], ids=["point-text", "point-zero-den", "curve-by-y", "value-zero-den",
        "eps-zero-den", "eps-zero-power", "curve-zero-den", "n-text", "n-negative",
        "model-n-text", "model-n-negative"])
def test_malformed_flag_value_is_usage_error(capsys, triang_file, argv):
    argv = [triang_file if a is MAP else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "error: " in captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv, flag, word", [
    (["height", "--point", "abc"], "--point", "point"),
    (["height", "--point", "1/0,2"], "--point", "point"),
    (["basin", "--map", MAP, "--point", "1,1", "--place", "0"], "--place", "place"),
    (["basin", "--map", MAP, "--point", "1,1", "--target", "x"], "--target", "point"),
    (["curve-period", "--map", MAP, "--curve", "0"], "--curve", "curve"),
    (["intersect", "--c1", "x/y", "--c2", "y", "--at", "0,0"], "--c1", "curve"),
    (["degrees", "--map", MAP, "--horizon", "0"], "--horizon", "positive integer"),
    (["dml", "scan", "--map", MAP, "--curve", "y", "--point", "0,0",
      "--bit-guard", "x"], "--bit-guard", "positive integer"),
    (["product-check", "--value", "1/0"], "--value", "rational"),
    (["basin", "--map", MAP, "--point", "1,1", "--eps", "1/0"], "--eps", "positive rational"),
], ids=["point-text", "point-zero-den", "place", "target", "curve", "curve-by-y",
        "horizon", "bit-guard", "value", "eps-zero-den"])
def test_flag_value_errors_name_the_flag_and_a_type(capsys, triang_file, argv, flag, word):
    argv = [triang_file if a is MAP else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"error: argument {flag}: invalid {word}: " in last
    assert "_arg" not in last and "_positive_int" not in last


@pytest.mark.parametrize("text, pos", [("1/0,2", 0), ("1, 3/0", 3)])
def test_point_zero_denominator_is_named_at_its_offset(capsys, text, pos):
    with pytest.raises(SystemExit) as exc:
        main(["height", "--point", text])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"syntax error at position {pos}: zero denominator in '" in last
    assert "Fraction(" not in last


@pytest.mark.parametrize("eps", ["0", "-1", "-1/3", "2^-99999999", "1e-99999999"])
def test_eps_must_be_positive_and_of_bounded_size(capsys, triang_file, eps):
    with pytest.raises(SystemExit) as exc:
        main(["basin", "--map", triang_file, "--point", "1,1", f"--eps={eps}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert errors == [f"dmlwb basin: error: argument --eps: invalid positive rational: "
                      f"{eps!r} ({'must be positive' if eps.startswith(('0', '-')) else 'more than 4096 bits'})"]


class TestBatch:
    @pytest.fixture
    def config_file(self, tmp_path, triang_file, flip_file):
        cfg = {
            "maps": [triang_file, flip_file],
            "curves": ["y - 1", "y - 2*x"],
            "points": ["0,1", "1,1"],
            "places": ["inf"],
            "horizons": {"N": 30, "K": 4, "M": 20},
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_cross_product_size_and_order(self, capsys, config_file):
        doc = run_json(capsys, ["batch", "--config", config_file])
        items = doc["result"]
        assert len(items) == 8
        # items iterate maps, then curves, then points, then places
        assert [it["curve"] for it in items[:4]] == [
            "y - 1", "y - 1", "y - 2*x", "y - 2*x",
        ]
        assert all(it["error"] is None for it in items)

    def test_local_probe_only_for_triangular(self, capsys, config_file, triang_file):
        doc = run_json(capsys, ["batch", "--config", config_file])
        for it in doc["result"]:
            if it["map"] == triang_file:
                assert it["local"] is not None
            else:
                assert it["local"] is None

    def test_parallel_output_is_byte_identical(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["batch", "--config", config_file, "--jobs", "1",
                     "--out", str(out1)]) == 0
        assert main(["batch", "--config", config_file, "--jobs", "3",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_jobs_is_usage_error(self, config_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--config", config_file, "--jobs", "0"])
        assert exc.value.code == 2

    def test_config_out_used_when_flag_absent(self, tmp_path, triang_file, capsys):
        target = tmp_path / "from_config.json"
        cfg = {
            "maps": [triang_file],
            "curves": ["y"],
            "points": ["1,1"],
            "out": str(target),
            "horizons": {"N": 10, "K": 3, "M": 5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["batch", "--config", str(path)]) == 0
        capsys.readouterr()
        assert target.exists()

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["batch", "--config", "/nonexistent/cfg.json"]) == 2

    def test_invalid_curve_rejected_at_load(self, tmp_path, triang_file, capsys):
        cfg = {
            "maps": [triang_file],
            "curves": ["y +* x"],
            "points": ["1,1"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["batch", "--config", str(path)]) == 2
        assert "bad curve" in capsys.readouterr().err

    def test_point_with_zero_denominator_rejected_at_load(self, tmp_path, triang_file,
                                                          capsys):
        cfg = {"maps": [triang_file], "curves": ["y"], "points": ["1,2/0"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["batch", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad point '1,2/0'" in err
        assert "position 2: zero denominator in '2/0'" in err
        assert "Fraction(" not in err

    def test_bad_point_message_is_not_wrapped_twice(self, tmp_path, triang_file,
                                                     capsys):
        cfg = {"maps": [triang_file], "curves": ["y"], "points": ["1,2,3"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["batch", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "usage error: --config: bad point '1,2,3': syntax error at "
            "position 0: expected two comma-separated coordinates\n"
        )

    def test_distance_beyond_float_range_keeps_every_item(self, tmp_path,
                                                          triang_file, capsys):
        huge = "3,1/1" + "0" * 400

        def batch(points):
            cfg = {"maps": [triang_file], "curves": ["y", "x - 3"],
                   "points": points, "places": ["inf", "2"]}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            return run_json(capsys, ["batch", "--config", str(path)])["result"]

        both, alone = batch(["1,1", huge]), batch(["1,1"])
        assert [it for it in both if it["point"] == "1,1"] == alone
        big = [it for it in both if it["point"] == huge]
        assert len(big) == 4 and all(it["error"] is None for it in big)
        for it in big:
            first = it["local"]["basin"]["samples"][0]
            if it["place"] == "inf":
                assert first["distance"] is None and not first["below_epsilon"]

    def test_inline_map_object_rejected_at_load(self, tmp_path, capsys):
        # maps entries are file paths, not inline map objects
        cfg = {
            "maps": [{"f1": "x + 1", "f2": "-y"}],
            "curves": ["y"],
            "points": ["1,1"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["batch", "--config", str(path)]) == 2
        assert "file paths" in capsys.readouterr().err

    def test_load_batch_defaults(self, tmp_path, triang_file):
        cfg = {"maps": [triang_file], "curves": ["y"], "points": ["0,0"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        loaded = load_batch(str(path))[0]
        assert loaded.places == ("inf",)
        assert loaded.N == 200 and loaded.K == 12
        assert loaded.bit_guard == 10**6

    @pytest.mark.parametrize("override, message", [
        ({"horizons": [1]}, "horizons must be a JSON object"),
        ({"horizons": {"N": True}}, "horizon N must be a positive integer"),
        ({"guards": {"curve_search_cap": True}},
         "guard curve_search_cap must be a positive integer"),
        ({"mpas": []}, "unknown key 'mpas'"),
        ({"guards": {"bit_gaurd": 8}}, "unknown key 'bit_gaurd' in guards"),
        ({"horizons": {"n": 8}}, "unknown key 'n' in horizons"),
        ({"maps": "f.json"}, "maps must be a JSON list"),
        ({"curves": "y"}, "curves must be a JSON list"),
        ({"out": 5}, "out must be a path"),
        ({"map": "f.json"}, "give map or maps, not both"),
    ], ids=["horizons-list", "N-bool", "cap-bool", "top-key", "guards-key",
            "horizons-key", "maps-string", "curves-string", "out-int",
            "map-and-maps"])
    def test_malformed_config_rejected(self, tmp_path, triang_file, capsys,
                                       override, message):
        cfg = {"maps": [triang_file], "curves": ["y"], "points": ["0,0"]}
        cfg.update(override)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["batch", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: --config: {message}" in captured.err

    def test_singular_map_key(self, tmp_path, triang_file):
        cfg = {"map": triang_file, "curves": ["y"], "points": ["0,0"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert load_batch(str(path))[0].maps == (triang_file,)
