"""End-to-end command checks: exit codes, output layout, overwrite guard,
override plumbing, and the verification suites' pass/fail behavior."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from msvgd import cli, theory
from msvgd.gridflow import MirroredFlow
from msvgd.targets import certified_profile

PRESETS = Path(__file__).resolve().parents[1] / "presets"

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


# 2-D and 3-D settings that only the flow build refuses: the box map's
# chart saturates in the quadrature's tails, and the quadrature stops at
# dim 2
BOX_2D = dict(BOX_1D, target_params={"mean": [0.2, -0.1], "cov": 1.0,
                                     "lo": [-1.0, -1.0], "hi": [1.0, 1.0]})
# the Dirichlet preset on a grid so wide that the simplex chart rounds
# nodes near a vertex onto a face
WIDE_SIMPLEX = {
    "map": "entropic-simplex",
    "kernel": "imq",
    "target": "dirichlet",
    "target_params": {"concentration": [5, 5, 5]},
    "particles": 200,
    "steps": 5,
    "seed": 11,
    "gamma": 0.05,
    "grid_halfwidth": 40,
    "grid_nodes": 16,
}
GAUSSIAN_3D = {
    "map": "euclidean",
    "kernel": "imq",
    "target": "truncated-gaussian",
    "target_params": {"mean": [0.0, 0.0, 0.0], "cov": 1.0},
    "particles": 30,
    "steps": 5,
    "seed": 3,
    "gamma": 0.01,
}


# the Gaussian on R^2 under the identity map, a cataloged pair; a fit of its
# constants on sampled points gives c_p 2.2746, under the true 2.3264
GAUSSIAN_2D = {
    "map": "euclidean",
    "kernel": "imq",
    "target": "truncated-gaussian",
    "target_params": {"mean": [0.2, -0.3], "cov": [[1.0, 0.2], [0.2, 0.5]]},
    "particles": 30,
    "steps": 20,
    "seed": 3,
    "gamma": "theorem",
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

    def test_run_never_imports_numpy_random(self, tmp_path):
        """The start cloud comes from Python's random module, which numpy
        has loaded already; numpy.random would add about 6 MB of resident
        memory and 15 ms of imports to every particle process."""
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(dict(DIRICHLET_SMALL, particles=2, steps=1)))
        script = ("import sys\n"
                  "from msvgd import cli\n"
                  f"code = cli.main(['run', '--config', {str(config)!r}, "
                  f"'--out', {str(tmp_path / 'out')!r}])\n"
                  "print(code, 'numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 False"

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

    def test_overrides_are_checked_with_the_file(self, dirichlet_config, tmp_path, capsys):
        # each override is merged into the file's raw object before its one
        # schema check, so a bad one is refused by name before any output
        out = tmp_path / "o"
        for flag, value, message in (("--gamma", "-1", "'gamma' must be > 0"),
                                     ("--steps", "-1", "'steps' must be >= 0"),
                                     ("--particles", "0", "'particles' must be >= 1")):
            code = cli.main(["run", "--config", str(dirichlet_config), "--out", str(out),
                             flag, value])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_negative_seed_exits_two_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main(["run", "--config", "dirichlet-simplex-d2", "--seed", "-1",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config key 'seed' must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(dict(DIRICHLET_SMALL, seed=-1)))
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "config key 'seed' must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

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

    def test_face_hit_is_a_numeric_abort(self, tmp_path, capsys):
        # gamma 20 throws a particle of the preset so close to a vertex that
        # float64 rounds its coordinates' sum to 1, the simplex face the
        # chart must never return; the step that made it stops the run
        out = tmp_path / "o"
        code = cli.main(["run", "--config", "dirichlet-simplex-d2", "--gamma", "20",
                         "--steps", "3", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric abort") and "Traceback" not in err
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["abort"]["step"] == 2
        assert summary["abort"]["particle"] is not None
        assert "face of the simplex" in summary["abort"]["message"]
        assert summary["logged_steps"][0] == 0

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
        # the snapshot operator's price, past the field's one-row blocks: a
        # 256-row tile's two factors, numpy's two 8192-entry iteration
        # buffers, one tile's product with the 18 wider features, the 26
        # rows of the feature stack and the 32 rows of the two accumulators
        # per point at d = 2, 8 (2 * 256^2 + 16384 + 18 * 256 + 58e9)
        # = 4.64e11 bytes
        out = tmp_path / "big"
        code = cli.main(["run", "--config", "dirichlet-simplex-d2", "--particles", "1000000000",
                         "--steps", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'particles' = 1000000000 needs about 464001216512 bytes" in err
        assert not out.exists()

    def test_theorem_step_on_the_gaussian_on_rd(self, tmp_path):
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps(dict(GAUSSIAN_2D, gamma=0.01)))
        assert cli.main(["run", "--config", str(path), "--gamma", "theorem",
                         "--steps", "2", "--out", str(tmp_path / "out")]) == 0

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

    @pytest.mark.parametrize("suite", ["descent", "lemmas", "bounds"])
    def test_manifest_times_each_span_within_the_elapsed_time(self, quartic_config, tmp_path,
                                                              suite):
        out = tmp_path / suite
        assert cli.main(["verify", "--suite", suite, "--target", str(quartic_config),
                         "--out", str(out), "--steps", "12"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings"]
        assert tuple(sorted(timings)) == tuple(sorted(cli.VERIFY_SPANS))
        assert all(value >= 0.0 for value in timings.values())
        assert all(timings[name] > 0.0 for name in ("flow_build", "fields", "pushes",
                                                    "records", "writes"))
        assert sum(timings.values()) <= manifest["wallclock"]["elapsed_s"]

    def test_run_and_theory_manifests_keep_no_timings(self, tmp_path):
        assert cli.main(["run", "--config", "dirichlet-simplex-d2", "--steps", "2",
                         "--out", str(tmp_path / "r")]) == 0
        assert cli.main(["theory", "--target", "quartic-1d-descent",
                         "--out", str(tmp_path / "t")]) == 0
        for name in ("r", "t"):
            assert "timings" not in json.loads((tmp_path / name / "manifest.json").read_text())

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

    def test_descent_suite_runs_on_16384_nodes(self, tmp_path):
        # np.linspace axes this long once failed Grid's uniform-spacing check
        config = json.loads((PRESETS / "quartic-1d-descent.json").read_text())
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(dict(config, grid_nodes=16384)))
        out = tmp_path / "v"
        code = cli.main(["verify", "--suite", "descent", "--target", str(path),
                         "--out", str(out), "--steps", "2"])
        assert code == 0
        assert json.loads((out / "report.json").read_text())["passed"] is True

    @pytest.mark.parametrize("flag", ["--gamma", "--gamma-scale"])
    def test_infinite_step_size_exits_two(self, quartic_config, tmp_path, capsys, flag):
        out = tmp_path / "o"
        code = cli.main(["verify", "--suite", "descent", "--target", str(quartic_config),
                         "--out", str(out), flag, "inf"])
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--gamma-scale", "0", "--gamma-scale must be positive and finite, got 0.0"),
        ("--gamma-scale", "-2", "--gamma-scale must be positive and finite, got -2.0"),
        ("--gamma-scale", "nan", "--gamma-scale must be positive and finite, got nan"),
        ("--gamma", "0", "--gamma must be positive and finite, got 0.0"),
        ("--steps", "0", "verification needs at least one step, got 0"),
    ])
    def test_bad_step_arguments_exit_two_before_any_output(self, quartic_config, tmp_path,
                                                           capsys, pricing_calls, flag, value,
                                                           message):
        out = tmp_path / "o"
        code = cli.main(["verify", "--suite", "descent", "--target", str(quartic_config),
                         "--out", str(out), flag, value])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert pricing_calls == {"c_pi_p": 0, "kl0_upper_bound": 0}

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
        assert not out.exists()

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
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        (BOX_2D, "EntropicBoxMap chart saturates"),
        (GAUSSIAN_3D, "dual-space quadrature supports dim <= 2, got dim=3"),
        (WIDE_SIMPLEX, "EntropicSimplexMap chart saturates"),
    ])
    def test_flow_build_refusals_leave_no_output(self, tmp_path, capsys, config, message):
        # --out is made by the first output written, so a refusal from the
        # flow build leaves no empty directory behind
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "v"
        code = cli.main(["verify", "--suite", "descent", "--target", str(path),
                         "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_lemmas_suite_refuses_dim_two_before_any_flow(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a 2-D lemmas suite must be refused before the flow is built")

        monkeypatch.setattr(MirroredFlow, "__init__", fail)
        out = tmp_path / "v"
        code = cli.main(["verify", "--suite", "lemmas", "--target", "dirichlet-simplex-d2",
                         "--out", str(out)])
        assert code == 2
        assert "primal-chart field form, implemented for d=1 only" in capsys.readouterr().err
        assert not out.exists()

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
        out = tmp_path / "o"
        code = cli.main(["verify", "--suite", "descent", "--target", str(path), "--out", str(out)])
        assert code == 2
        assert "median" in capsys.readouterr().err
        assert not out.exists()
        # with an explicit gamma the refusal is verify's own, also before --out
        path.write_text(json.dumps(dict(cfg, gamma=1e-3)))
        code = cli.main(["verify", "--suite", "descent", "--target", str(path), "--out", str(out)])
        assert code == 2
        assert "fixed-bandwidth kernel, not the median heuristic" in capsys.readouterr().err
        assert not out.exists()

    def test_refuses_overwrite(self, quartic_config, tmp_path):
        out = tmp_path / "v"
        args = ["verify", "--suite", "bounds",
                "--target", str(quartic_config), "--out", str(out)]
        assert cli.main(args) == 0
        assert cli.main(args) == 2

    def test_occupied_out_directory_exits_two_before_any_flow(self, quartic_config, tmp_path,
                                                               monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("an occupied --out must be refused before the flow is built")

        out = tmp_path / "v"
        out.mkdir()
        (out / "manifest.json").write_text("{}")
        monkeypatch.setattr(MirroredFlow, "__init__", fail)
        code = cli.main(["verify", "--suite", "descent",
                         "--target", str(quartic_config), "--out", str(out)])
        assert code == 2
        assert "already contains manifest.json" in capsys.readouterr().err

    def test_descent_suite_on_the_gaussian_on_rd(self, tmp_path):
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps(GAUSSIAN_2D))
        assert cli.main(["verify", "--suite", "descent", "--target", str(path),
                         "--out", str(tmp_path / "v"), "--steps", "3"]) == 0


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

    @pytest.mark.parametrize("target, lam, message", [
        ("dirichlet-simplex-d2", "inf", "--lambda needs a finite lambda > 0, got inf"),
        ("quartic-1d-descent", "-1", "--lambda needs a finite lambda > 0, got -1.0"),
        ("quartic-1d-descent", "nan", "--lambda needs a finite lambda > 0, got nan"),
        # tp mode holds for 1 <= p <= 2, and the quartic's growth exponent is 3
        ("quartic-1d-descent", "1.0", "requires 1 <= p <= 2, got p=3.0"),
    ])
    def test_bad_lambda_exits_two_before_any_pricing(self, capsys, pricing_calls, target, lam,
                                                     message):
        code = cli.main(["theory", "--target", target, "--lambda", lam])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert pricing_calls == {"c_pi_p": 0, "kl0_upper_bound": 0}

    def test_box_map_exits_two_before_any_output(self, box_config, tmp_path, capsys):
        out = tmp_path / "th"
        code = cli.main(["theory", "--target", str(box_config), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert ("none are cataloged for target 'truncated-gaussian' under map "
                "'entropic-box'") in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (out / "theory.json").exists()
        assert not (out / "report.json").exists()

    def test_box_map_is_refused_before_pricing(self, box_config, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("an uncataloged pair must be refused before pricing")

        monkeypatch.setattr(theory, "certify", fail)
        assert cli.main(["theory", "--target", str(box_config)]) == 2
        assert capsys.readouterr().out == ""

    def test_growth_exponent_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["theory", "--target", "quartic-1d-descent", "-p", "2.0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -p" in capsys.readouterr().err

    def test_occupied_out_directory_exits_two_before_pricing(self, quartic_config, tmp_path,
                                                              capsys, pricing_calls):
        out = tmp_path / "th"
        out.mkdir()
        (out / "manifest.json").write_text("{}")
        code = cli.main(["theory", "--target", str(quartic_config), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "already contains manifest.json" in captured.err
        assert captured.out == ""
        assert pricing_calls == {"c_pi_p": 0, "kl0_upper_bound": 0}

    def test_gaussian_on_rd_is_priced_from_the_catalog(self, tmp_path, capsys):
        from msvgd.config import build_runtime, config_from_dict

        path = tmp_path / "gauss.json"
        path.write_text(json.dumps(GAUSSIAN_2D))
        assert cli.main(["theory", "--target", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        for name in ("l0", "l1", "c_p", "p"):
            assert report["profile"]["provenance"][name] == "analytic"
        assert report["profile"]["c_p"] == pytest.approx(2.3264265, rel=1e-7)

        bundle = build_runtime(config_from_dict(dict(GAUSSIAN_2D, gamma=0.01)))
        certificate = theory.certify(bundle.mirrored, certified_profile(bundle.mirrored),
                                     bundle.kernel.bounds(), bundle.mirror_map.strong_convexity,
                                     bundle.dim)
        assert report["gamma"]["general"] == certificate.fixed_cap
        assert report["gamma"]["general"] == pytest.approx(2.0199e-3, rel=1e-4)

    def test_map_override_changes_report(self, tmp_path, capsys):
        code = cli.main(["theory", "--target", "quartic-1d-descent",
                         "--kernel", "imq"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kernel"] == "imq"


@pytest.mark.parametrize("args", [
    ["run", "--config", "dirichlet-simplex-d2", "--steps", "1"],
    ["verify", "--suite", "descent", "--target", "quartic-1d-descent", "--steps", "1"],
    ["theory", "--target", "quartic-1d-descent"],
])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_naming_a_file_exits_two(tmp_path, capsys, args, below):
    taken = tmp_path / "taken"
    taken.write_text("x")
    out = taken / below
    assert cli.main([*args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"--out {out}: {taken} is an existing file, not a directory" in captured.err
    assert captured.out == ""
    assert taken.read_text() == "x"


@pytest.mark.parametrize("command", ["run", "verify", "theory"])
@pytest.mark.parametrize("kernel, key, value", [
    ("imq", "c", 1e155),  # c^2 overflows: a Python OverflowError
    ("imq", "c", 1e-170),  # c^2 underflows to 0: bounds (inf, inf)
    ("rbf", "bandwidth", 1e160),  # h^2 overflows in bounds()
    ("rbf", "bandwidth", 1e100),  # h^4 overflows in f''
    ("rbf", "bandwidth", 1e-170),  # h^2 underflows to 0: bounds (nan, nan)
])
def test_kernel_constants_out_of_float64_range_exit_two(tmp_path, capsys, command, kernel,
                                                        key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(QUARTIC_SMALL, kernel=kernel, kernel_params={key: value})))
    flag = "--config" if command == "run" else "--target"
    out = tmp_path / "out"
    args = {"run": ["run"], "verify": ["verify", "--suite", "descent"], "theory": ["theory"]}
    assert cli.main([*args[command], flag, str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"kernel parameter '{key}' = {value!r} is out of float64's range" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


class TestPresets:
    @pytest.mark.parametrize("name", [
        "quartic-1d-descent",
        "dirichlet-simplex-d2",
        "truncated-gaussian-box-d3",
    ])
    def test_preset_loads_and_round_trips(self, name):
        from msvgd.config import config_from_dict, load_config

        cfg = load_config(name, {})
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


@pytest.fixture
def wiring_calls(monkeypatch):
    """Calls to config.make_target, which only build_runtime makes: one per
    runtime wired."""
    from msvgd import config

    calls = []
    original = config.make_target

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(config, "make_target", counting)
    return calls


class TestWiredOnce:
    def test_run(self, quartic_config, tmp_path, wiring_calls):
        assert cli.main(["run", "--config", str(quartic_config), "--out", str(tmp_path / "out"),
                         "--steps", "2", "--seed", "3"]) == 0
        assert len(wiring_calls) == 1

    def test_verify_descent(self, quartic_config, tmp_path, wiring_calls):
        assert cli.main(["verify", "--suite", "descent", "--target", str(quartic_config),
                         "--out", str(tmp_path / "out"), "--steps", "2"]) == 0
        assert len(wiring_calls) == 1

    def test_theory(self, quartic_config, capsys, wiring_calls):
        assert cli.main(["theory", "--target", str(quartic_config), "--kernel", "imq"]) == 0
        assert len(wiring_calls) == 1


class TestHeapPin:
    def test_a_no_op_off_glibc(self, monkeypatch):
        monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
        assert cli._pin_heap() == ()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_mallopt_accepts_both_pins_again(self):
        assert cli._pin_heap() == (1, 1)
        assert cli._pin_heap() == (1, 1)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_minor_faults_do_not_depend_on_the_out_path(self, tmp_path):
        """Without the pin, 40 descent steps took 8.7k to 10.0k minor faults
        across these --out lengths: each step's transients exceed glibc's
        dynamic trim threshold, so the heap layout set-up leaves decides
        whether every step re-faults the heap top."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        faults = []
        for out in ("a", "b" * 13, "c" * 37):
            run = subprocess.run([sys.executable, "-m", "msvgd.cli", "verify", "--suite",
                                  "descent", "--target", "quartic-1d-descent", "--steps", "40",
                                  "--out", out],
                                 cwd=tmp_path, env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            manifest = json.loads((tmp_path / out / "manifest.json").read_text(encoding="utf-8"))
            faults.append(manifest["wallclock"]["minor_faults"])
            assert manifest["wallclock"]["peak_rss_mb"] > 0
        assert max(faults) <= 1.05 * min(faults), faults
