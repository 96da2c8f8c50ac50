"""End-to-end command checks: exit codes, output layout, overwrite guard,
override plumbing, and the verification suites' pass/fail behavior."""

import json

import pytest

from msvgd import cli, theory
from msvgd.gridflow import MirroredFlow

QUARTIC_SMALL = {
    "map": "euclidean",
    "kernel": "imq",
    "target": "mirrored-power-law",
    "target_params": {"power": 4},
    "dim": 1,
    "particles": 20,
    "steps": 15,
    "seed": 7,
    "gamma": "theorem",
    "grid_nodes": 1024,
}

DIRICHLET_SMALL = {
    "map": "entropic-simplex",
    "kernel": "imq",
    "target": "dirichlet",
    "target_params": {"concentration": [5.0, 5.0, 5.0]},
    "particles": 30,
    "steps": 40,
    "seed": 11,
    "gamma": 0.05,
}


# an entropic-box target: the quadrature walk needs its potential far past
# where the box map's logistic chart reaches a face
BOX_1D = {
    "map": "entropic-box",
    "kernel": "imq",
    "target": "truncated-gaussian",
    "target_params": {"mean": [0.2], "cov": [[1.0]], "lo": [-1.0], "hi": [1.0]},
    "particles": 50,
    "steps": 5,
    "seed": 1,
    "gamma": 0.01,
}


@pytest.fixture
def box_config(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(BOX_1D))
    return path


def assert_box_map_refused(captured):
    assert "EntropicBoxMap chart saturates" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.fixture
def quartic_config(tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(QUARTIC_SMALL))
    return path


@pytest.fixture
def dirichlet_config(tmp_path):
    path = tmp_path / "dirichlet.json"
    path.write_text(json.dumps(DIRICHLET_SMALL))
    return path


class TestRunCommand:
    def test_writes_outputs_and_exits_zero(self, dirichlet_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(dirichlet_config), "--out", str(out)]) == 0
        for name in ("trajectory.csv", "diagnostics.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 11
        assert manifest["summary"]["steps_completed"] == 40

    def test_refuses_overwrite_without_force(self, dirichlet_config, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["run", "--config", str(dirichlet_config), "--out", str(out)]
        assert cli.main(args) == 0
        assert cli.main(args) == 2
        assert "--force" in capsys.readouterr().err
        assert cli.main(args + ["--force"]) == 0

    def test_overrides_reach_the_manifest(self, dirichlet_config, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "run", "--config", str(dirichlet_config), "--out", str(out),
            "--steps", "5", "--seed", "99", "--particles", "12", "--gamma", "0.01",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["steps"] == 5
        assert manifest["config"]["seed"] == 99
        assert manifest["config"]["particles"] == 12
        assert manifest["config"]["gamma"] == 0.01

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_gamma_override_exits_two(self, dirichlet_config, tmp_path):
        assert cli.main(["run", "--config", str(dirichlet_config),
                         "--out", str(tmp_path / "o"), "--gamma", "fast"]) == 2

    def test_numeric_abort_exits_three(self, tmp_path, capsys):
        cfg = dict(DIRICHLET_SMALL,
                   target_params={"concentration": [0.5, 0.5, 0.5]},
                   gamma=1e8, steps=10)
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numeric abort" in capsys.readouterr().err
        # the manifest still records the abort
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["summary"]["abort"] is not None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_abort_at_an_unlogged_state_keeps_the_abort_block(self, tmp_path, capsys):
        # The blow-up lands at step 1, off the cadence; its field is not
        # finite, so that state is not logged and the abort is reported.
        cfg = dict(QUARTIC_SMALL, gamma=1e150, steps=5, cadence=10, particles=20)
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "non-finite velocity for particle" in capsys.readouterr().err
        summary = json.loads((tmp_path / "o" / "manifest.json").read_text())["summary"]
        assert summary["abort"]["message"].startswith("non-finite velocity for particle")
        assert summary["abort"]["step"] == 1
        assert summary["abort"]["particle"] is not None
        assert summary["logged_steps"] == [0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_final_field_fills_the_abort_block(self, tmp_path, capsys):
        # One step: the blow-up lands on the final state, which no step
        # follows; its field still gets the finite check.
        cfg = dict(QUARTIC_SMALL, gamma=1e150, steps=1, particles=20)
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "non-finite velocity for particle" in capsys.readouterr().err
        summary = json.loads((tmp_path / "o" / "manifest.json").read_text())["summary"]
        assert summary["abort"]["message"].startswith("non-finite velocity for particle")
        assert summary["abort"]["step"] == 1
        assert summary["abort"]["particle"] is not None
        assert summary["logged_steps"] == [0]

    @pytest.mark.parametrize("kernel, target, path", [
        ({"kernel": "rbf", "kernel_params": {"bandwidth": float("inf")}}, {},
         "kernel_params.bandwidth"),
        ({"kernel": "imq", "kernel_params": {"c": float("inf")}}, {}, "kernel_params.c"),
        ({"kernel": "rescaled",
          "kernel_params": {"inner": "rbf", "scale": 2.0,
                            "inner_params": {"bandwidth": float("inf")}}}, {},
         "kernel_params.inner_params.bandwidth"),
        ({}, {"map": "entropic-box", "target": "truncated-gaussian",
              "target_params": {"mean": [0.0, float("nan")], "cov": 1.0,
                                "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
         "target_params.mean[1]"),
    ])
    def test_non_finite_params_exit_two_and_name_the_path(self, tmp_path, capsys,
                                                          kernel, target, path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(dict(DIRICHLET_SMALL, **kernel, **target)))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"'{path}' must be finite" in capsys.readouterr().err

    def test_rescaled_median_bandwidth_exits_two_and_names_the_path(self, tmp_path, capsys):
        config = tmp_path / "rescaled.json"
        config.write_text(json.dumps(dict(
            DIRICHLET_SMALL, kernel="rescaled", steps=3, particles=20,
            kernel_params={"inner": "rbf", "scale": 2.0,
                           "inner_params": {"bandwidth": "median"}})))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'kernel_params.inner_params.bandwidth'" in capsys.readouterr().err

    @pytest.mark.parametrize("inner", ["dual-imq", "rescaled"])
    def test_rescaled_non_radial_inner_exits_two_before_any_output(self, tmp_path, capsys,
                                                                   inner):
        config = tmp_path / "rescaled.json"
        config.write_text(json.dumps(dict(
            DIRICHLET_SMALL, kernel="rescaled", steps=3, particles=20,
            kernel_params={"inner": inner, "scale": 0.5})))
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert "'kernel_params.inner'" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        assert not (out / "diagnostics.csv").exists()

    def test_infinite_gamma_in_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(dict(DIRICHLET_SMALL, gamma=float("inf"))))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'gamma' must be finite" in capsys.readouterr().err

    def test_oversized_particle_count_exits_two_before_any_output(self, tmp_path, capsys):
        # one (300000, 300000, 2) float64 block is 1.44e12 bytes
        out = tmp_path / "big"
        code = cli.main(["run", "--config", "dirichlet-simplex-d2", "--particles", "300000",
                         "--steps", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'particles' = 300000" in err and "1440000000000 bytes" in err
        assert not out.exists()

    def test_preset_name_resolution(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", "--config", "dirichlet-simplex-d2",
                         "--out", str(out), "--steps", "3"])
        assert code == 0


class TestVerifyCommand:
    def test_descent_suite_passes(self, quartic_config, tmp_path):
        out = tmp_path / "v"
        code = cli.main(["verify", "--suite", "descent",
                         "--target", str(quartic_config), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["violations"] == []
        assert report["fixed_cap"] > 0
        lines = (out / "verify.csv").read_text().splitlines()
        assert lines[0] == "step,kl,stein_fisher,gamma,bound_rhs"
        assert len(lines) == QUARTIC_SMALL["steps"] + 2

    def test_descent_suite_builds_one_flow_and_one_field_per_state(
            self, quartic_config, tmp_path, monkeypatch):
        builds, fields = [], []
        init, g_field = MirroredFlow.__init__, MirroredFlow.g_field

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        def counting_g_field(self, *args, **kwargs):
            fields.append(1)
            return g_field(self, *args, **kwargs)

        monkeypatch.setattr(MirroredFlow, "__init__", counting_init)
        monkeypatch.setattr(MirroredFlow, "g_field", counting_g_field)
        code = cli.main(["verify", "--suite", "descent", "--target", str(quartic_config),
                         "--out", str(tmp_path / "v"), "--steps", "6"])
        assert code == 0
        assert len(builds) == 1
        assert len(fields) == 6 + 1

    @pytest.mark.parametrize("flag", ["--gamma", "--gamma-scale"])
    def test_infinite_step_size_exits_two(self, quartic_config, tmp_path, capsys, flag):
        code = cli.main(["verify", "--suite", "descent", "--target", str(quartic_config),
                         "--out", str(tmp_path / "o"), flag, "inf"])
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_infinite_grid_halfwidth_exits_two(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dict(QUARTIC_SMALL, grid_halfwidth=float("inf"))))
        code = cli.main(["verify", "--suite", "descent", "--target", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'grid_halfwidth' must be finite" in capsys.readouterr().err

    def test_box_map_exits_two_before_any_output(self, box_config, tmp_path, capsys):
        out = tmp_path / "v"
        code = cli.main(["verify", "--suite", "descent", "--target", str(box_config),
                         "--out", str(out)])
        assert code == 2
        assert_box_map_refused(capsys.readouterr())
        assert not (out / "report.json").exists()

    def test_box_map_with_a_wide_explicit_grid_exits_two(self, tmp_path, capsys):
        # an explicit halfwidth skips the bracket walk, and the flow build
        # reads the potential past the chart's saturation itself
        path = tmp_path / "wide-box.json"
        path.write_text(json.dumps(dict(BOX_1D, grid_halfwidth=64)))
        out = tmp_path / "v"
        code = cli.main(["verify", "--suite", "descent", "--target", str(path),
                         "--out", str(out)])
        assert code == 2
        assert_box_map_refused(capsys.readouterr())
        assert not (out / "report.json").exists()

    def test_steps_override_and_2d_grid(self, tmp_path):
        # A d=2 preset at the quadrature defaults must be checkable in
        # seconds; --steps keeps the suite length independent of the
        # particle-run step count the preset was tuned for.
        out = tmp_path / "v2d"
        code = cli.main(["verify", "--suite", "bounds",
                         "--target", "dirichlet-simplex-d2",
                         "--out", str(out), "--steps", "3"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        lines = (out / "verify.csv").read_text().splitlines()
        assert lines[0] == "step,kl,stein_fisher,gamma,bound_rhs"
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("3,")

    def test_descent_suite_oversized_gamma_fails(self, quartic_config, tmp_path, capsys):
        out = tmp_path / "v10"
        code = cli.main(["verify", "--suite", "descent",
                         "--target", str(quartic_config), "--out", str(out),
                         "--gamma-scale", "10"])
        assert code == 1
        assert "exceeds the certified fixed cap" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["violations"]

    def test_lemmas_suite(self, quartic_config, tmp_path):
        out = tmp_path / "vl"
        code = cli.main(["verify", "--suite", "lemmas",
                         "--target", str(quartic_config), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [c["step"] for c in report["checks"]] == [0, 10]
        assert all(c["ok"] for c in report["checks"])

    def test_bounds_suite(self, quartic_config, tmp_path):
        out = tmp_path / "vb"
        code = cli.main(["verify", "--suite", "bounds",
                         "--target", str(quartic_config), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert all(c["margin"] >= -1e-8 for c in report["checks"])

    def test_adaptive_kernel_rejected(self, tmp_path, capsys):
        cfg = dict(QUARTIC_SMALL, kernel="rbf", kernel_params={"bandwidth": "median"})
        path = tmp_path / "adaptive.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["verify", "--suite", "descent",
                         "--target", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "median" in capsys.readouterr().err

    def test_refuses_overwrite(self, quartic_config, tmp_path):
        out = tmp_path / "v"
        args = ["verify", "--suite", "bounds",
                "--target", str(quartic_config), "--out", str(out)]
        assert cli.main(args) == 0
        assert cli.main(args) == 2


class TestTheoryCommand:
    def test_quartic_preset_reports_positive_gamma(self, capsys):
        assert cli.main(["theory", "--target", "quartic-1d-descent"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gamma"]["general"] > 0
        assert report["gamma"]["tp"] is None
        assert report["profile"]["provenance"]["l0"] == "analytic"
        assert report["iterations"]["general"] >= 1

    def test_dirichlet_preset_certifies(self, capsys):
        # Exercises the constrained catalog pair end to end; the constant
        # pricing probes the dual tails far past chart underflow.
        assert cli.main(["theory", "--target", "dirichlet-simplex-d2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gamma"]["general"] > 0
        assert report["profile"]["provenance"]["c_pi_p"] == "empirical"
        assert report["kl0_upper_bound"] > 0

    def test_lambda_enables_transport_numbers(self, tmp_path, capsys):
        cfg = dict(QUARTIC_SMALL)
        del cfg["target_params"]
        cfg["target"] = "mirrored-power-law"
        cfg["target_params"] = {"power": 2, "scale": 0.5}
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["theory", "--target", str(path), "--lambda", "1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gamma"]["tp"] is not None
        assert report["iterations"]["tp"] >= 1

    def test_out_directory_gets_manifest(self, tmp_path, capsys):
        out = tmp_path / "th"
        assert cli.main(["theory", "--target", "quartic-1d-descent",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "theory.json").exists()
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_two(self, capsys, eps):
        code = cli.main(["theory", "--target", "quartic-1d-descent", "--eps", eps])
        assert code == 2
        captured = capsys.readouterr()
        assert f"finite eps > 0, got {eps}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-0.01"])
    def test_bad_eps_exits_two_before_any_pricing(self, monkeypatch, capsys, eps):
        def fail(*args, **kwargs):
            raise AssertionError("--eps must be refused before the runtime is built")

        monkeypatch.setattr(theory, "certify", fail)
        monkeypatch.setattr(cli, "build_runtime", fail)
        code = cli.main(["theory", "--target", "dirichlet-simplex-d2", "--eps", eps])
        assert code == 2
        captured = capsys.readouterr()
        assert f"--eps needs a finite eps > 0, got {float(eps)!r}" in captured.err
        assert captured.out == ""

    def test_box_map_exits_two_before_any_output(self, box_config, tmp_path, capsys):
        out = tmp_path / "th"
        code = cli.main(["theory", "--target", str(box_config), "--out", str(out)])
        assert code == 2
        assert_box_map_refused(capsys.readouterr())
        assert not (out / "theory.json").exists()
        assert not (out / "report.json").exists()

    def test_p_mismatch_exits_two(self, capsys):
        code = cli.main(["theory", "--target", "quartic-1d-descent", "-p", "2.0"])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_map_override_changes_report(self, tmp_path, capsys):
        code = cli.main(["theory", "--target", "quartic-1d-descent",
                         "--kernel", "imq"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kernel"] == "imq"


class TestPresets:
    @pytest.mark.parametrize("name", [
        "quartic-1d-descent",
        "dirichlet-simplex-d2",
        "truncated-gaussian-box-d3",
    ])
    def test_preset_loads_and_round_trips(self, name):
        from msvgd.config import config_from_dict, load_config

        cfg = load_config(cli._resolve_config_path(name))
        assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_unknown_preset_named_in_error(self, tmp_path, capsys):
        code = cli.main(["run", "--config", "no-such-preset",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "no-such-preset" in capsys.readouterr().err


@pytest.fixture
def pricing_calls(monkeypatch):
    """Counts of the two quadrature-priced constants, through the module
    attributes every caller goes through."""
    calls = {"c_pi_p": 0, "kl0_upper_bound": 0}
    for name in calls:
        original = getattr(theory, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(theory, name, counting)
    return calls


class TestPricedOnce:
    def test_verify_descent_on_a_theorem_config(self, tmp_path, pricing_calls):
        path = tmp_path / "dirichlet.json"
        path.write_text(json.dumps(dict(DIRICHLET_SMALL, gamma="theorem",
                                        grid_nodes=24, steps=1)))
        assert cli.main(["verify", "--suite", "descent", "--target", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        assert pricing_calls == {"c_pi_p": 1, "kl0_upper_bound": 1}
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["fixed_cap"] == report["gamma"]

    def test_verify_descent_with_an_explicit_gamma(self, tmp_path, pricing_calls):
        # an explicit step size is still checked against the certified caps
        path = tmp_path / "quartic.json"
        path.write_text(json.dumps(dict(QUARTIC_SMALL, gamma=1e-5, steps=2)))
        assert cli.main(["verify", "--suite", "descent", "--target", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        assert pricing_calls == {"c_pi_p": 1, "kl0_upper_bound": 1}
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["fixed_cap_ok"] and report["per_step_cap_ok"]

    def test_run_with_a_theorem_gamma(self, quartic_config, tmp_path, pricing_calls):
        assert cli.main(["run", "--config", str(quartic_config), "--out", str(tmp_path / "out"),
                         "--steps", "2"]) == 0
        assert pricing_calls == {"c_pi_p": 1, "kl0_upper_bound": 1}

    def test_run_with_an_explicit_gamma_prices_nothing(self, dirichlet_config, tmp_path,
                                                        pricing_calls):
        assert cli.main(["run", "--config", str(dirichlet_config), "--out", str(tmp_path / "out"),
                         "--steps", "2"]) == 0
        assert pricing_calls == {"c_pi_p": 0, "kl0_upper_bound": 0}

    def test_theory(self, quartic_config, capsys, pricing_calls):
        assert cli.main(["theory", "--target", str(quartic_config)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert pricing_calls == {"c_pi_p": 1, "kl0_upper_bound": 1}
        assert report["profile"]["provenance"]["c_pi_p"] == "empirical"
