import json
import reprlib

import pytest

from tailcast.cli import PRESETS, build_parser, run
from tailcast.errors import ConfigError, DivergedToNonFinite, DomainError, NonFiniteInput
from tailcast.harness import spec_from_dict, spec_to_dict


AR3 = {"kind": "ar_student_t", "phi": [0.1, 0.25, 0.5],
       "innovation": {"family": "student_t", "params": {"mu": 0.0, "sigma": 1.0, "nu": 0.8}}}


# an AR design straddling lattice index 0: window [-600, -2] and forecast
# offsets [-1, 0, 1] in lattice indices
AR_STRADDLING_0 = {"process": AR3, "marginal_mode": "estimated", "marginal_family": "student_t",
                   "window": [-60.0, -0.2], "forecast_offsets": [-0.1, 0.0, 0.1],
                   "prediction_interval": [-0.1, 0.5]}


def tiny_config(tmp_path, **overrides):
    cfg = {
        "name": "tiny-cli",
        "process": {"kind": "gauss_exp_cov"},
        "h": 0.1,
        "window": [0.0, 9.9],
        "forecast_offsets": [10.0, 10.2],
        "prediction_interval": [10.3, 10.4],
        "variant": "Q3",
        "gamma": 5.0,
        "descent": {"mode": "online", "max_iter": 30},
        "replicates": 10,
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["fit", "--config", "x.json", "--out", "outdir"])
    assert args.config == "x.json" and args.out == "outdir"
    args = parser.parse_args(["demo-metrics", "--pairs", "gaussian", "--rho", "0.7"])
    assert args.pairs == "gaussian" and args.rho == 0.7


def test_simulate_writes_trajectory(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "trajectory.csv").read_text().strip().split("\n")
    assert text[0] == "t,value"
    assert len(text) == 1 + 100  # window [0, 9.9] at h=0.1
    assert (out / "manifest.json").exists()
    assert "trajectory.csv" in capsys.readouterr().out


def test_fit_writes_weights(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert run(["fit", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "weights.csv").read_text().strip().split("\n")
    assert lines[0] == "t,method,lambda_1,lambda_2,objective"
    # 2 fitted points x 4 methods
    assert len(lines) == 1 + 2 * 4
    assert "fitted 2 points" in capsys.readouterr().out


def test_evaluate_writes_everything(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert run(["evaluate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "weights.csv").exists()
    assert (out / "eval.csv").exists()
    lines = (out / "eval.csv").read_text().strip().split("\n")
    assert lines[0] == "t,method,excursion_metric,wasserstein"
    # 2 grid points x 4 methods
    assert len(lines) == 1 + 2 * 4
    assert "over 10 replicates" in capsys.readouterr().out


def test_evaluate_overrides(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert run(["evaluate", "--config", cfg, "--out", str(out),
                "--replicates", "4", "--seed", "11"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["replicates"] == 4
    assert man["config"]["seed"] == 11 and man["seed"] == 11
    assert "over 4 replicates" in capsys.readouterr().out


def test_manifest_config_reparses_identically(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert spec_to_dict(spec_from_dict(man["config"])) == man["config"]
    for pkg in ("tailcast", "numpy", "scipy"):
        assert pkg in man["versions"]


def test_manifest_feeds_back_as_config(tmp_path):
    cfg = tiny_config(tmp_path)
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert run(["evaluate", "--config", cfg, "--out", str(first)]) == 0
    manifest = first / "manifest.json"
    assert run(["evaluate", "--config", str(manifest), "--out", str(again)]) == 0
    for fname in ("weights.csv", "eval.csv"):
        assert (again / fname).read_bytes() == (first / fname).read_bytes()


def test_benchmark_prints_seconds(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert run(["benchmark", "--config", cfg]) == 0
    assert "seconds_per_solve=" in capsys.readouterr().out
    out = tmp_path / "bench"
    assert run(["benchmark", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "benchmark.csv").read_text().strip().split("\n")
    assert lines[0] == "preset,seconds_per_solve"
    assert lines[1].startswith("tiny-cli,")


def test_benchmark_without_a_fitted_point_exit_code_before_simulating(tmp_path, capsys,
                                                                      monkeypatch):
    """Every prediction point is a forecast offset: ``fit`` fits 0 points,
    and ``benchmark`` has no solve to time."""
    import tailcast.harness
    from tailcast.cli import _load_config

    def no_simulation(*args):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(tailcast.harness, "simulate", no_simulation)
    cfg = tmp_path / "ar3.json"
    cfg.write_text(json.dumps(dict(spec_to_dict(_load_config("ar3")),
                                   prediction_interval=[30.0, 30.0])))
    out = tmp_path / "o"
    assert run(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'prediction_interval'" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_beta_outside_the_online_range_exit_code_before_simulating(tmp_path, capsys,
                                                                            monkeypatch):
    """``benchmark`` times an online solve: a batch config's beta <= 0.5
    loads, then names its key before anything is simulated."""
    import tailcast.harness
    from tailcast.cli import _load_config

    def no_simulation(*args):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(tailcast.harness, "simulate", no_simulation)
    config = spec_to_dict(_load_config("ar3"))
    assert config["descent"]["mode"] == "batch"
    config["descent"]["beta"] = 0.4
    cfg = tmp_path / "ar3.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'descent.beta'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exit_code_and_message(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run(["fit", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "nope.json" in err


def test_invalid_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["fit", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("contents", ["directory", b"\xff\xfe{}", "[" * 100_000 + "]" * 100_000],
                         ids=["directory", "not_utf8", "too_deep"])
def test_unreadable_config_exit_code_before_simulating(tmp_path, capsys, monkeypatch, contents):
    import tailcast.harness

    def no_simulation(spec):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(tailcast.harness, "_simulate_training", no_simulation)
    cfg = tmp_path / "config.json"
    if contents == "directory":
        cfg.mkdir()
    elif isinstance(contents, bytes):
        cfg.write_bytes(contents)  # not UTF-8
    else:
        cfg.write_text(contents)  # nested deeper than the decoder's recursion limit
    out = tmp_path / "o"
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'config'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfg = tiny_config(tmp_path, extra_knob=1)
    assert run(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config key 'extra_knob': unknown key" in capsys.readouterr().err


def test_bad_config_value_exit_code_before_simulating(tmp_path, capsys):
    cfg = tiny_config(tmp_path, h=0)
    out = tmp_path / "o"
    assert run(["evaluate", "--config", cfg, "--out", str(out)]) == 2
    assert "'h'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("key, value", [("a", "big"), ("max_iter", 2.5), ("burn_in", True)])
def test_bad_descent_type_exit_code_before_simulating(tmp_path, capsys, monkeypatch,
                                                      command, key, value):
    import tailcast.harness

    def no_simulation(spec):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(tailcast.harness, "_simulate_training", no_simulation)
    cfg = tiny_config(tmp_path, descent={"mode": "online", "max_iter": 30, key: value})
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"'descent.{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_infinite_tol_exit_code_before_simulating(tmp_path, capsys, monkeypatch, command):
    """JSON's Infinity passes ``tol >= 0``; it would stop every chain after one step."""
    import tailcast.harness

    def no_simulation(spec):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(tailcast.harness, "_simulate_training", no_simulation)
    cfg = tiny_config(tmp_path, descent={"mode": "online", "max_iter": 30, "tol": float("inf")})
    assert "Infinity" in open(cfg).read()
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    assert "'descent.tol'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("overrides, key", [
    ({"process": {"kind": "ar_student_t", "phi": [0.5], "innovation": 5}}, "process.innovation"),
    ({"process": {"kind": "stable_ma", "alpha": "x"}}, "process.alpha"),
    ({"process": {"kind": "stable_ma", "alpha": 0.7}}, "process.alpha"),
    ({"process": {"kind": "ar_student_t", "phi": [2.0],
                  "innovation": {"family": "student_t", "params": {"nu": 0.8}}}}, "process.phi"),
    ({"window": [0.0, 4.9, 9.9]}, "window"), ({"window": [9.9, 0.0]}, "window"),
    ({"window": "abc"}, "window"), ({"forecast_offsets": []}, "forecast_offsets"),
    ({"forecast_offsets": [float("inf")]}, "forecast_offsets"),
    ({"forecast_offsets": "x"}, "forecast_offsets"),
    ({"prediction_interval": "ab"}, "prediction_interval"),
    ({"name": [1, 2]}, "name"), ({"marginal_family": 3}, "marginal_family"),
    ({"seed": 2**64}, "seed"),
    # geometry
    ({"marginal_family": "foo"}, "marginal_family"),
    ({"forecast_offsets": [10.0, 10.05, 10.2]}, "forecast_offsets"),
    ({"prediction_interval": [10.35, 10.4]}, "prediction_interval"),
    ({"window": [0.0, 0.0]}, "window"),  # one point: no learning rows
    ({"window": [0.0, 0.3]}, "window"),  # 4 points for a design spanning 5
    ({"marginal_mode": "estimated", "marginal_family": "gaussian", "window": [0.0, 4.8]},
     "window"),  # 49 points: too few to estimate the marginal
    # an AR design fitting a point below lattice index 0, and an AR without a
    # closed-form marginal
    ({**AR_STRADDLING_0, "prediction_interval": [-0.3, 0.5]}, "prediction_interval"),
    ({"process": AR3, "marginal_mode": "known"}, "marginal_mode"),
    # huge values, which the message quotes cut short
    ({"name": list(range(10**5))}, "name"), ({"h": "x" * 10**6}, "h"),
    ({"process": {"kind": "k" * 10**5}}, "process.kind"),
    ({"process": {**AR3, "innovation": {"family": "f" * 10**5}}}, "process.innovation"),
    ({"window": ["w" * 10**5, 1.0]}, "window"),
    # a huge unknown key, named as reprlib cuts it short, and a huge parameter name
    ({"u" * 10**5: 1}, reprlib.repr("u" * 10**5)[1:-1]),
    ({"process": {**AR3, "innovation": {"family": "student_t", "params": {"p" * 10**5: 1.0}}}},
     "process.innovation"),
    # a subnormal scale, which would make every kernel call overflow
    ({"process": {**AR3, "innovation": {"family": "student_t",
                                        "params": {"mu": 0.0, "sigma": 5e-324, "nu": 0.8}}}},
     "process.innovation"),
])
def test_bad_config_exit_code_names_key_before_simulating(tmp_path, capsys, monkeypatch,
                                                          command, overrides, key):
    import tailcast.harness

    def no_simulation(*args):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr(tailcast.harness, "simulate", no_simulation)
    cfg = tiny_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err
    assert len(err) < 300
    assert not out.exists()


def test_ar_design_straddling_lattice_index_0_evaluates(tmp_path, monkeypatch):
    """Forecast offsets and prediction points below lattice index 0 are
    accepted for AR, whose replicates then start at the first needed index;
    ``eval.csv`` is the same at 1 and 2 threads."""
    import tailcast.harness

    cfg = tiny_config(tmp_path, **AR_STRADDLING_0)
    written = []
    for threads in (1, 2):
        monkeypatch.setattr(tailcast.harness, "_usable_cpus", lambda: threads)
        out = tmp_path / f"threads{threads}"
        assert run(["evaluate", "--config", cfg, "--out", str(out)]) == 0
        written.append((out / "eval.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 1 + 7 * 2  # 7 grid points x 2 methods


def test_preset_configs_all_load():
    from tailcast.cli import _load_config

    for name in PRESETS:
        spec = _load_config(name)
        assert spec.name == name
        assert spec.replicates == 1000
        spec2 = _load_config(name + ".json")
        assert spec_to_dict(spec) == spec_to_dict(spec2)
        assert spec == spec2


def test_demo_metrics_anchors(capsys):
    assert run(["demo-metrics", "--pairs", "comonotone", "--n", "20000"]) == 0
    out = capsys.readouterr().out
    assert "pairs=comonotone" in out
    gini = float(out.strip().split("gini=")[1])
    assert gini < 0.002

    assert run(["demo-metrics", "--pairs", "countermonotone", "--n", "20000"]) == 0
    gini = float(capsys.readouterr().out.strip().split("gini=")[1])
    assert gini == pytest.approx(0.5, abs=0.002)

    assert run(["demo-metrics", "--pairs", "independent", "--n", "100000"]) == 0
    gini = float(capsys.readouterr().out.strip().split("gini=")[1])
    assert gini == pytest.approx(1.0 / 3.0, abs=0.01)

    assert run(["demo-metrics", "--pairs", "gaussian", "--rho", "0.9", "--n", "200000"]) == 0
    out = capsys.readouterr().out
    assert "rho=0.9" in out
    gini = float(out.strip().split("gini=")[1])
    assert gini == pytest.approx(0.10108262419502467, abs=0.005)


def test_demo_metrics_bad_rho(capsys):
    assert run(["demo-metrics", "--pairs", "gaussian", "--rho", "1.5"]) == 2
    assert "rho" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["--n", "5"], "'n'"),
    (["--n", "0"], "'n'"),
    (["--n", "-3"], "'n'"),
    (["--seed", "-1"], "'seed'"),
    (["--seed", str(2**64)], "'seed'"),
])
def test_demo_metrics_bad_n_or_seed_exit_code_before_drawing(monkeypatch, capsys, argv, key):
    import tailcast.cli as cli

    drawn = []
    monkeypatch.setattr(cli, "_demo_pairs", lambda *a: drawn.append(a))
    assert run(["demo-metrics", "--pairs", "independent", *argv]) == 2
    assert key in capsys.readouterr().err
    assert drawn == []


@pytest.mark.parametrize("command", ["simulate", "fit", "benchmark", "evaluate"])
def test_threads_is_a_usage_error_where_it_does_nothing(tmp_path, capsys, command):
    """No subcommand takes --threads; evaluation picks its own thread count."""
    cfg = tiny_config(tmp_path)
    out = tmp_path / "o"
    for threads in ("2", "0"):
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", cfg, "--out", str(out), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


def test_runtime_failure_exit_code(tmp_path, capsys):
    """A fit that fails at run time exits 1 with its message: gamma = 1e308
    drives the penalized predictor out of the finite numbers. On the way the
    objective value and the row predictions overflow, and numpy warns."""
    from tailcast.cli import _load_config

    cfg = tmp_path / "gauss.json"
    cfg.write_text(json.dumps(dict(spec_to_dict(_load_config("gauss_extrap")),
                                   prediction_interval=[31.0, 31.04], replicates=20,
                                   gamma=1e308)))
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        code = run(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: penalized fit at t=31: row prediction is not finite\n"


@pytest.mark.parametrize("exc, code, err", [
    (DomainError("no start"), 1, "error: no start\n"),
    (NonFiniteInput("x contains non-finite values"), 1, "error: x contains non-finite values\n"),
    (DivergedToNonFinite("non-finite iterate at step 3"), 1,
     "error: non-finite iterate at step 3\n"),
    (ConfigError("gamma", "must be finite"), 2, "error: config key 'gamma': must be finite\n"),
], ids=["DomainError", "NonFiniteInput", "DivergedToNonFinite", "ConfigError"])
def test_fit_error_exit_code(tmp_path, capsys, monkeypatch, exc, code, err):
    """Each error type the package raises reaches the shell as its one-line
    message and exit code, not as a traceback."""
    import tailcast.harness

    def failing_fit(spec):
        raise exc

    monkeypatch.setattr(tailcast.harness, "run_fit", failing_fit)
    assert run(["fit", "--config", tiny_config(tmp_path), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == err
