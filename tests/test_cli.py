import json
import types

import numpy as np
import pytest

from phasebal import harness
from phasebal.cli import load_config, main
from phasebal.errors import InputParseError
from phasebal.network import ConstraintConfig, LoadSeries, save_feeder, save_profiles


@pytest.fixture(scope="module")
def line_paths(fixture_files):
    return fixture_files["line"]


def test_pf_verb(line_paths, tmp_path, capsys):
    feeder_path, profiles_path = line_paths
    out = tmp_path / "pf.json"
    code = main(["pf", "--feeder", str(feeder_path),
                 "--profiles", str(profiles_path), "--t", "0",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["timesteps"]["0"]["converged"]


def test_pf_timestep_outside_horizon_is_exit_2(line_paths, tmp_path, capsys):
    feeder_path, profiles_path = line_paths
    for t in ("999", "-1"):  # a negative step must not wrap to one from the end
        code = main(["pf", "--feeder", str(feeder_path),
                     "--profiles", str(profiles_path), "--t", t,
                     "--out", str(tmp_path / "pf.json")])
        assert code == 2
        assert "outside horizon" in capsys.readouterr().err


def test_collapsed_step_is_exit_3(collapsing_line, tmp_path, capsys):
    feeder, loads = collapsing_line
    feeder_path = tmp_path / "line.feeder.json"
    profiles_path = tmp_path / "heavy.profiles.csv"
    save_feeder(feeder, feeder_path)
    save_profiles(loads, profiles_path)
    assignment = tmp_path / "assignment.json"
    assignment.write_text(json.dumps(
        {"assignment": {u.id: 1 for u in feeder.reconfigurable_users()}}))
    inputs = ["--feeder", str(feeder_path), "--profiles", str(profiles_path)]
    assert main(["pf", *inputs, "--t", "4", "--out", str(tmp_path / "pf.json")]) == 0
    assert main(["pf", *inputs, "--t", "5"]) == 3
    assert main(["pf", *inputs]) == 3
    assert main(["validate", *inputs, "--assignment", str(assignment)]) == 3
    assert capsys.readouterr().err.count("voltage collapsed") == 3


def test_optimize_verb_miqp(line_paths, tmp_path):
    feeder_path, profiles_path = line_paths
    out = tmp_path / "report.json"
    code = main(["optimize", "--feeder", str(feeder_path),
                 "--profiles", str(profiles_path), "--method", "miqp",
                 "--objective", "pu-star", "--delta-max", "2",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["method"] == "miqp"
    assert report["objective"] == "pu_star"
    assert report["switches"] <= 2


def test_metric_error_is_exit_2(line, tmp_path, capsys):
    feeder, loads = line
    feeder_path = tmp_path / "line.feeder.json"
    profiles_path = tmp_path / "zero.profiles.csv"
    save_feeder(feeder, feeder_path)
    zero = np.zeros_like(loads.p)
    save_profiles(LoadSeries(loads.user_ids, zero, zero), profiles_path)
    code = main(["optimize", "--feeder", str(feeder_path),
                 "--profiles", str(profiles_path), "--method", "miqp",
                 "--objective", "pu-star", "--delta-max", "1",
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert "zero downstream demand" in capsys.readouterr().err


@pytest.mark.parametrize("limit, message", [("-1", "time_limit_s must be positive"),
                                            ("0", "time_limit_s must be positive"),
                                            ("nan", "bad value for time_limit")])
def test_bad_time_limit_is_exit_2(line_paths, tmp_path, capsys, limit, message):
    feeder_path, profiles_path = line_paths
    out = tmp_path / "report.json"
    code = main(["optimize", "--feeder", str(feeder_path),
                 "--profiles", str(profiles_path), "--method", "miqp",
                 "--objective", "pu-star", "--time-limit", limit, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, method, limit", [("optimize", "ga", "-1"),
                                                ("optimize", "oracle", "-1"),
                                                ("optimize", "oracle", "0"),
                                                ("sweep", "miqp", "0"),
                                                ("sweep", "ga", "-1")])
def test_bad_time_limit_is_exit_2_for_every_method(line_paths, tmp_path, capsys,
                                                   verb, method, limit):
    feeder_path, profiles_path = line_paths
    out = tmp_path / "report.json"
    code = main([verb, "--feeder", str(feeder_path), "--profiles", str(profiles_path),
                 "--method", method, "--objective", "pu-star", "--time-limit", limit,
                 "--out", str(out)])
    assert code == 2
    assert "time_limit_s must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_without_feasible_configuration_is_exit_2(line_paths, tmp_path, capsys):
    feeder_path, profiles_path = line_paths
    code = main(["optimize", "--feeder", str(feeder_path),
                 "--profiles", str(profiles_path), "--method", "oracle",
                 "--objective", "pu", "--delta-max", "3", "--enforce-phase-counts",
                 "--gamma-low", "2", "--gamma-upp", "2",
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert "phase-count bounds" in capsys.readouterr().err


def _set_field(raw, edit):
    where, key, value = edit
    target = raw if where is None else raw[where][0]
    target[key] = value
    return json.dumps(raw).encode()


@pytest.mark.parametrize("broken, edit", [
    ("feeder", lambda raw: b"[]"),
    ("feeder", lambda raw: _set_field(raw, ("branches", "R", "abc"))),
    ("feeder", lambda raw: _set_field(raw, ("users", "phase", "x"))),
    ("feeder", lambda raw: _set_field(raw, (None, "base_voltage_V", "high"))),
    ("feeder", lambda raw: _set_field(raw, ("branches", "power_limit_VA", "abc"))),
    ("feeder", lambda raw: b"\xff\xfe{" + json.dumps(raw).encode()),
    ("feeder", lambda raw: b"[" * 100_000 + b"]" * 100_000),
    ("profiles", lambda raw: b"t,\xe9\xff:p\n0,1\n"),
    ("config", lambda raw: b"method = miqp\n\xff\xfe = 1\n"),
], ids=["list", "r_text", "phase_text", "base_text", "limit_text", "feeder_utf8", "deep",
        "profiles_utf8", "config_utf8"])
def test_malformed_input_is_exit_2(line_paths, tmp_path, capsys, broken, edit):
    feeder_path, profiles_path = line_paths
    with open(feeder_path) as fh:
        raw = json.load(fh)
    paths = {"feeder": feeder_path, "profiles": profiles_path,
             "config": tmp_path / "run.conf"}
    paths["config"].write_text("method = miqp\n")
    paths[broken] = tmp_path / f"broken.{broken}"
    paths[broken].write_bytes(edit(raw))
    code = main(["optimize", "--config", str(paths["config"]),
                 "--feeder", str(paths["feeder"]), "--profiles", str(paths["profiles"]),
                 "--delta-max", "1", "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_optimize_then_validate(line_paths, tmp_path):
    feeder_path, profiles_path = line_paths
    report_path = tmp_path / "report.json"
    assert main(["optimize", "--feeder", str(feeder_path),
                 "--profiles", str(profiles_path), "--method", "miqp",
                 "--objective", "pu-star", "--delta-max", "3",
                 "--out", str(report_path)]) == 0
    val_path = tmp_path / "val.json"
    csv_path = tmp_path / "val.csv"
    assert main(["validate", "--feeder", str(feeder_path),
                 "--profiles", str(profiles_path),
                 "--assignment", str(report_path),
                 "--csv", str(csv_path), "--out", str(val_path)]) == 0
    val = json.loads(val_path.read_text())
    assert "pu" in val["metrics"]
    assert csv_path.exists()


def test_validate_all_zero_demand_is_exit_2(line, tmp_path, capsys):
    feeder, loads = line
    feeder_path, profiles_path = tmp_path / "line.feeder.json", tmp_path / "zero.profiles.csv"
    save_feeder(feeder, feeder_path)
    zero = np.zeros_like(loads.p)
    save_profiles(LoadSeries(loads.user_ids, zero, zero, loads.resolution_s), profiles_path)
    assignment = tmp_path / "assignment.json"
    assignment.write_text(json.dumps({u.id: 1 for u in feeder.reconfigurable_users()}))
    code = main(["validate", "--feeder", str(feeder_path), "--profiles", str(profiles_path),
                 "--assignment", str(assignment)])
    assert code == 2
    assert "undefined at every timestep" in capsys.readouterr().err


def test_optimize_trace_flag_writes_the_ga_trace(line_paths, tmp_path):
    feeder_path, profiles_path = line_paths
    out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    assert main(["optimize", "--feeder", str(feeder_path), "--profiles", str(profiles_path),
                 "--method", "ga", "--objective", "pu", "--delta-max", "2",
                 "--population", "6", "--f-calls", "30", "--trace", str(trace),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rows = trace.read_text().splitlines()[1:]
    assert len(rows) == report["solver"]["generations"]
    assert float(rows[-1].split(",")[1]) == report["objective_value"]


def test_sweep_verb(line_paths, tmp_path):
    feeder_path, profiles_path = line_paths
    out = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--feeder", str(feeder_path),
                 "--profiles", str(profiles_path), "--grid", "0,1,2",
                 "--objective", "pu-star", "--csv", str(csv_path),
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["grid"] == [0, 1, 2]
    assert csv_path.exists()


def test_export_lp_verb(line_paths, tmp_path):
    feeder_path, profiles_path = line_paths
    out = tmp_path / "prog.lp"
    code = main(["export-lp", "--feeder", str(feeder_path),
                 "--profiles", str(profiles_path), "--objective", "pvur-star",
                 "--delta-max", "1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "Minimize" in text and "Binaries" in text


def test_scale_verb(line_paths, tmp_path):
    feeder_path, profiles_path = line_paths
    out = tmp_path / "scale.json"
    code = main(["scale", "--feeders", str(feeder_path),
                 "--horizons", "1,2", "--methods", "miqp", "--repeats", "1",
                 "--delta-max", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["reported"]) == 2
    for horizons in ("0", "-1", "25"):
        assert main(["scale", "--feeders", str(feeder_path), "--horizons", horizons,
                     "--methods", "miqp", "--repeats", "1"]) == 2


def test_scale_passes_the_constraint_flags(line_paths, monkeypatch):
    feeder_path, _ = line_paths
    seen = {}

    def fake_scaling(feeder_loads, horizons, methods, **kwargs):
        seen.update(kwargs)
        return {}

    monkeypatch.setattr(harness, "cmd_scaling", fake_scaling)
    assert main(["scale", "--feeders", str(feeder_path), "--delta-max", "2",
                 "--v-min", "0.85", "--v-max", "1.05", "--gamma-low", "1",
                 "--gamma-upp", "2", "--enforce-phase-counts"]) == 0
    assert seen["constraints"] == ConstraintConfig(
        delta_max=2, gamma_low=1, gamma_upp=2, v_min=0.85, v_max=1.05,
        enforce_phase_counts=True)


def test_missing_feeder_is_exit_2(tmp_path):
    assert main(["pf", "--profiles", "nope.csv"]) == 2
    assert main(["pf", "--feeder", "missing.json", "--profiles", "nope.csv"]) == 2


def test_invalid_feeder_is_exit_2(tmp_path, line_paths):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["pf", "--feeder", str(bad),
                 "--profiles", str(line_paths[1])]) == 2


def test_config_file_supplies_flags(line_paths, tmp_path):
    feeder_path, profiles_path = line_paths
    config = tmp_path / "run.conf"
    config.write_text(
        f"feeder = {feeder_path}\n"
        f"profiles = {profiles_path}\n"
        "method = miqp\n"
        "objective = pu-star\n"
        "delta_max = 1\n"
        "# comment line\n")
    out = tmp_path / "report.json"
    code = main(["optimize", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["switches"] <= 1


def test_flags_override_config(line_paths, tmp_path):
    feeder_path, profiles_path = line_paths
    config = tmp_path / "run.conf"
    config.write_text(f"feeder = {feeder_path}\n"
                      f"profiles = {profiles_path}\n"
                      "delta_max = 3\n")
    out = tmp_path / "report.json"
    code = main(["optimize", "--config", str(config), "--method", "miqp",
                 "--objective", "pu-star", "--delta-max", "0",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["switches"] == 0


def test_config_parsing_types(tmp_path):
    path = tmp_path / "t.conf"
    path.write_text("a = 1\nb = 2.5\nc = true\nd = hello\ne-dash = 'x'\n")
    cfg = load_config(path)
    assert cfg == {"a": 1, "b": 2.5, "c": True, "d": "hello", "e_dash": "x"}


def test_config_bad_line(tmp_path):
    path = tmp_path / "t.conf"
    path.write_text("just a word\n")
    with pytest.raises(InputParseError):
        load_config(path)


@pytest.mark.parametrize("content", [None, "not json", "[1, 2, 3]",
                                     json.dumps({"assignment": {"u1": "x", "u2": 1, "u3": 1}}),
                                     json.dumps({"assignment": {"u1": 2.7, "u2": 1, "u3": 1}}),
                                     json.dumps({"assignment": {"u1": True, "u2": 1, "u3": 1}})],
                         ids=["missing", "not_json", "list", "phase_text", "phase_fraction",
                              "phase_bool"])
def test_unreadable_assignment_is_exit_2(line_paths, tmp_path, capsys, content):
    feeder_path, profiles_path = line_paths
    assignment = tmp_path / "assignment.json"
    if content is not None:
        assignment.write_text(content)
    code = main(["validate", "--feeder", str(feeder_path), "--profiles", str(profiles_path),
                 "--assignment", str(assignment)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb, flag, config", [
    ("sweep", ["--grid", "1,x"], ""),
    ("scale", ["--horizons", "1,y"], ""),
    ("sweep", [], "delta_max = abc\n"),
    ("scale", [], "repeats = 1.5x\n"),
    ("sweep", [], "enforce_phase_counts = abc\n"),
    ("sweep", [], "enforce_phase_counts = 2\n"),
    ("optimize", ["--method", "ga", "--population", "0"], ""),
    ("scale", ["--methods", "ga", "--repeats", "0"], ""),
    ("sweep", [], "objective = foo\n"),
    ("sweep", [], "profiles = 1.5\n"),
    ("sweep", [], "delta_max = 2.7\n"),
    ("optimize", [], "delta_max = true\n"),
    ("optimize", [], "seed = true\n"),
    ("sweep", [], "delta_max = inf\n"),
    ("sweep", [], "v_min = true\n"),
    ("optimize", [], "time_limit = true\n"),
    ("optimize", [], "v_max = infinity\n"),
    ("optimize", [], f"v_max = 1{'0' * 400}\n"),
], ids=["grid_text", "horizons_text", "config_delta_max_text", "config_repeats_text",
        "config_phase_counts_text", "config_phase_counts_int", "zero_population",
        "zero_repeats", "config_objective_unknown", "config_profiles_number",
        "config_delta_max_fraction", "config_delta_max_bool", "config_seed_bool",
        "config_delta_max_inf", "config_v_min_bool", "config_time_limit_bool",
        "config_v_max_text", "config_v_max_huge"])
def test_unparsable_value_is_exit_2(line_paths, tmp_path, capsys, verb, flag, config):
    feeder_path, profiles_path = line_paths
    conf = tmp_path / "run.conf"
    conf.write_text(config)
    paths = ({"feeders": feeder_path} if verb == "scale"
             else {"feeder": feeder_path, "profiles": profiles_path})
    # an input the config file names is not also given as a flag, which would win
    inputs = [arg for key, path in paths.items() if f"{key} =" not in config
              for arg in (f"--{key}", str(path))]
    code = main([verb, "--config", str(conf), *inputs, *flag])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_config_whole_float_reads_as_int(line_paths, tmp_path):
    feeder_path, profiles_path = line_paths
    config = tmp_path / "run.conf"
    config.write_text(f"feeder = {feeder_path}\nprofiles = {profiles_path}\n"
                      "delta_max = 1.0\nseed = 3.0\n")
    out = tmp_path / "report.json"
    assert main(["optimize", "--config", str(config), "--method", "ga",
                 "--population", "4", "--f-calls", "8", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 3 and isinstance(report["seed"], int)
    assert report["switches"] <= 1


def test_config_out_number_names_a_file(line_paths, tmp_path, monkeypatch, capsys):
    feeder_path, profiles_path = line_paths
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text(f"feeder = {feeder_path}\nprofiles = {profiles_path}\nout = 1\n")
    assert main(["pf", "--config", str(conf), "--t", "0"]) == 0
    assert "wrote 1" in capsys.readouterr().out
    assert json.loads((tmp_path / "1").read_text())["timesteps"]["0"]["converged"]


def test_config_sets_sweep_grid_and_flag_overrides(line_paths, tmp_path, monkeypatch):
    feeder_path, profiles_path = line_paths
    seen = []

    def fake_sweep(feeder, loads, objective, grid, **kwargs):
        seen.append(grid)
        return types.SimpleNamespace(grid=grid)

    monkeypatch.setattr(harness, "cmd_sweep_switches", fake_sweep)
    conf = tmp_path / "run.conf"
    conf.write_text(f"feeder = {feeder_path}\nprofiles = {profiles_path}\ngrid = 0,1\n")
    out = str(tmp_path / "sweep.json")
    assert main(["sweep", "--config", str(conf), "--out", out]) == 0
    assert main(["sweep", "--config", str(conf), "--grid", "2,3", "--out", out]) == 0
    assert seen == [[0, 1], [2, 3]]


def test_config_sets_scale_options(line_paths, tmp_path, monkeypatch):
    feeder_path, _ = line_paths
    seen = {}

    def fake_scaling(feeder_loads, horizons, methods, **kwargs):
        seen.update(horizons=horizons, methods=methods, repeats=kwargs["repeats"])
        return {}

    monkeypatch.setattr(harness, "cmd_scaling", fake_scaling)
    conf = tmp_path / "run.conf"
    conf.write_text("horizons = 2,3\nmethods = ga\nrepeats = 2\n")
    assert main(["scale", "--config", str(conf), "--feeders", str(feeder_path)]) == 0
    assert seen == {"horizons": [2, 3], "methods": ["ga"], "repeats": 2}
    assert main(["scale", "--feeders", str(feeder_path)]) == 0
    assert seen == {"horizons": [1, 24], "methods": ["miqp", "ga"], "repeats": 5}


def test_explicit_zero_reaches_the_solvers(line_paths, tmp_path, monkeypatch):
    feeder_path, profiles_path = line_paths
    inputs = ["--feeder", str(feeder_path), "--profiles", str(profiles_path),
              "--out", str(tmp_path / "out.json")]
    seen = []

    def fake_optimize(feeder, loads, method, objective, constraints, **kwargs):
        seen.append(kwargs["ga_config"].max_fitness_calls)
        return types.SimpleNamespace(to_json=lambda: "{}")

    def fake_sweep(feeder, loads, objective, grid, **kwargs):
        seen.append(kwargs["time_limit_s"])
        return types.SimpleNamespace()

    monkeypatch.setattr(harness, "cmd_optimize", fake_optimize)
    monkeypatch.setattr(harness, "cmd_sweep_switches", fake_sweep)
    assert main(["optimize", "--method", "ga", *inputs]) == 0
    assert main(["optimize", "--method", "ga", "--f-calls", "0", *inputs]) == 0
    assert main(["sweep", *inputs]) == 0
    assert main(["sweep", "--time-limit", "0", *inputs]) == 0
    assert seen == [6000, 0, 20.0, 0.0]
