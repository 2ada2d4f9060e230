"""End-to-end command behavior: exit codes, CSV stability, plumbing.

Every test drives main() in process with argv lists; nothing here
touches the engine internals directly.
"""

import contextlib
import functools
import inspect
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import yaml
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _golden import CROSSING
from conformal_cbf import errors
from conformal_cbf.cli import BUILTIN_SCENES, CSV_HEADER, main
from conformal_cbf.scenario import synth_scene

BASE_CONFIG = {
    "dt": 0.1,
    "tau_frames": 5,
    "horizon_frames": 10,
    "alpha_slope": 2.0,
    "k_acc": 4.0,
    "k_rep": 200.0,
    "rho0": 25.0,
    "delta": 0.5,
    "eta": 1.0,
    "epsilon": -0.2,
    # start at the margin the update law would settle at, so the first
    # pass already keeps full clearance
    "lambda_initial": math.tan(math.pi * -0.2),
    "max_frames": 400,
    "goal": [60.0, 0.0],
    "goal_radius": 2.0,
    "attract_gain": 0.5,
}

GOOD_ANNOTATIONS = (
    '1 10 20 30 40 0 0 0 0 "Pedestrian"\n'
    '1 12 22 32 42 1 0 0 0 "Pedestrian"\n'
    '2 50 60 70 80 0 0 0 0 "Pedestrian"\n'
)


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({**BASE_CONFIG, **overrides}), encoding="utf-8")
    return str(path)


def make_scene(tmp_path, name="standing"):
    path = tmp_path / f"{name}.yaml"
    assert main(["make-scene", "--name", name, "--out", str(path)]) == 0
    return str(path)


class TestRunCommand:
    def test_writes_header_and_one_row(self, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "run",
                "--config", write_config(tmp_path),
                "--scene", make_scene(tmp_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == 8
        assert cells[0] == "-0.2" and cells[1] == "1.0" and cells[2] == "5"
        assert float(cells[3]) > 0.0  # reaches the goal
        assert cells[4] == "0"

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        scene = make_scene(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(
                ["run", "--config", cfg, "--scene", scene, "--out", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unreached_goal_renders_the_token(self, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "run",
                "--config", write_config(tmp_path, max_frames=30),
                "--scene", make_scene(tmp_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        cells = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert cells[3] == "unreached"

    def test_trace_flag_writes_one_record_per_frame(self, tmp_path):
        out, trace = tmp_path / "m.csv", tmp_path / "t.jsonl"
        code = main(
            [
                "run",
                "--config", write_config(tmp_path, max_frames=50),
                "--scene", make_scene(tmp_path),
                "--out", str(out),
                "--trace", str(trace),
            ]
        )
        assert code == 0
        assert len(trace.read_text(encoding="utf-8").splitlines()) == 50

    def test_seed_flag_steers_the_noise_oracle(self, tmp_path):
        scene = make_scene(tmp_path)
        outs = {}
        for tag, seed in (("a", 0), ("b", 0), ("c", 1)):
            cfg = write_config(
                tmp_path,
                predictor="noise-bounded-oracle",
                predictor_value_bound=2.0,
                predictor_dynamics_bound=0.5,
                max_frames=200,
                seed=seed,
            )
            out = tmp_path / f"{tag}.csv"
            assert main(["run", "--config", cfg, "--scene", scene, "--out", str(out)]) == 0
            outs[tag] = out.read_bytes()
        assert outs["a"] == outs["b"]
        assert outs["a"] != outs["c"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_seed_is_no_flag(self, tmp_path, capsys, command):
        # the config's seed key, or a --grid seed=..., is the one way to set it
        out = tmp_path / "m.csv"
        argv = [command, "--config", write_config(tmp_path), "--scene", make_scene(tmp_path),
                "--out", str(out), "--seed", "1"]
        assert main(argv + (["--grid", "eps=0.0"] if command == "sweep" else [])) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_one_exception_type_per_fault(self):
        # a bad value exits 2, bad data 3 (a malformed file, or an agent on
        # the ego) and an infeasible run 4
        types = {name for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, Exception)}
        assert types == {"InputError", "ParseError", "SingularityError", "InfeasibleError"}
        # the rules raise InputError themselves and take no error type
        for rule in (errors.scalar, errors.integer, errors.point, errors.floats):
            assert "error" not in inspect.signature(rule).parameters
        with pytest.raises(errors.InputError, match="^eta must be positive and finite$"):
            errors.scalar("eta", True, "positive")

    def test_unknown_flag_prints_usage_and_exits_2(self, tmp_path, capsys):
        assert main(["run", "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_scene_source_must_be_exactly_one(self, tmp_path):
        cfg = write_config(tmp_path)
        scene = make_scene(tmp_path)
        out = str(tmp_path / "m.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert main(
            [
                "run",
                "--config", cfg,
                "--scene", scene,
                "--annotations", scene,
                "--out", out,
            ]
        ) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, goal_radiuss=1.0)
        assert main(
            ["run", "--config", cfg, "--scene", make_scene(tmp_path),
             "--out", str(tmp_path / "m.csv")]
        ) == 2

    def test_missing_goal_exits_2(self, tmp_path):
        doc = {k: v for k, v in BASE_CONFIG.items() if k != "goal"}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(
            ["run", "--config", str(path), "--scene", make_scene(tmp_path),
             "--out", str(tmp_path / "m.csv")]
        ) == 2

    def test_missing_annotation_file_exits_3(self, tmp_path):
        assert main(
            [
                "run",
                "--config", write_config(tmp_path),
                "--annotations", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path / "m.csv"),
            ]
        ) == 3

    def test_hard_infeasibility_exits_4(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            tau_frames=2,
            horizon_frames=4,
            alpha_slope=0.1,
            lambda_initial=-5.0,
            relax_max_steps=0,
            max_frames=100,
            start=[10.0, 0.0],
            goal=[100.0, 0.0],
            attract_gain=0.05,
            goal_radius=1.0,
        )
        code = main(
            ["run", "--config", cfg, "--scene", make_scene(tmp_path, "flanked"),
             "--out", str(tmp_path / "m.csv")]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "infeasible" in err and '"frame"' in err


    @pytest.mark.parametrize(
        "start, box",
        [
            # walks along y = 100 through the ego at (100, 100) on frame 30
            ([100.0, 100.0], lambda f: (35 + 2 * f, 95, 45 + 2 * f, 105)),
            # stands 1e-80 px from the ego, where (1 + U)^2 would overflow
            ([0.0, 0.0], lambda f: (0, -1, 2e-80, 1)),
        ],
        ids=["walks-through", "stands-on"],
    )
    def test_an_agent_on_the_ego_exits_3(self, tmp_path, capsys, start, box):
        ann = tmp_path / "walk.txt"
        ann.write_text(
            "".join(
                '1 {} {} {} {} {} 0 0 0 "Pedestrian"\n'.format(*box(f), f) for f in range(80)
            ),
            encoding="utf-8",
        )
        path = tmp_path / "config.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "start": start,
                    "goal": [500.0, 500.0],
                    "attract_gain": 1e-300,
                    "lambda_initial": 1e6,
                    "eta": 0.001,
                    "max_frames": 70,
                    "dt": 1.0 / 30.0,
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "m.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["run", "--config", str(path), "--annotations", str(ann), "--out", str(out)]
            )
        assert code == 3
        assert "agent on the ego" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # the noise oracle keys numpy generators on the seed, which must
        # not be negative
        cfg = write_config(
            tmp_path,
            predictor="noise-bounded-oracle",
            predictor_value_bound=2.0,
            predictor_dynamics_bound=0.5,
            seed=-1,
        )
        out = tmp_path / "m.csv"
        code = main(
            ["run", "--config", cfg, "--scene", make_scene(tmp_path),
             "--out", str(out)]
        )
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_oracle_runs_on_negative_frames_and_ids(self, tmp_path):
        # track -3 walks past the ego's corridor on frames -40..39
        ann = tmp_path / "negative.txt"
        ann.write_text(
            "".join(
                '-3 {} 4 {} 6 {} 0 0 0 "Pedestrian"\n'.format(x - 1, x + 1, f)
                for f, x in zip(range(-40, 40), range(0, 80))
            ),
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path,
            predictor="noise-bounded-oracle",
            predictor_value_bound=2.0,
            predictor_dynamics_bound=0.5,
            max_frames=60,
        )
        out, trace = tmp_path / "m.csv", tmp_path / "t.jsonl"
        code = main(
            ["run", "--config", cfg, "--annotations", str(ann),
             "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0
        frames = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
        assert frames[0]["frame"] == -40
        assert any(f["n_constraints"] for f in frames)  # the oracle predicted track -3
        assert out.read_text(encoding="utf-8").splitlines()[1].split(",")[6] != "nan"

    def test_a_dt_without_a_finite_frame_rate_names_dt(self, tmp_path, capsys):
        # 1/dt overflows; k_acc keeps k_acc * dt below 2
        ann = tmp_path / "a.txt"
        ann.write_text(GOOD_ANNOTATIONS, encoding="utf-8")
        out = tmp_path / "m.csv"
        cfg = write_config(tmp_path, dt=5.0e-324, k_acc=1.0e-9)
        code = main(["run", "--config", cfg, "--annotations", str(ann), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: dt ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_a_frame_rate_below_one_is_not_snapped_to_zero(self, tmp_path, capsys):
        # 1/dt is 1e-7 frames per second, whose nearest whole rate is 0
        ann = tmp_path / "a.txt"
        ann.write_text(GOOD_ANNOTATIONS, encoding="utf-8")
        out = tmp_path / "m.csv"
        cfg = write_config(tmp_path, dt=1.0e7, k_acc=1.0e-9, max_frames=3)
        code = main(["run", "--config", cfg, "--annotations", str(ann), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert out.read_text(encoding="utf-8").splitlines()[0] == CSV_HEADER

    def test_an_underflowing_relaxation_step_names_its_key(self, tmp_path, capsys):
        # eta * (1/2 - epsilon) underflows to 0
        out = tmp_path / "m.csv"
        cfg = write_config(tmp_path, eta=5.0e-324, epsilon=0.4)
        code = main(["run", "--config", cfg, "--scene", make_scene(tmp_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: relax_lambda_step ")
        assert "eta 5e-324" in err and "epsilon 0.4" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_too_strong_a_barrier_is_a_config_error(self, tmp_path, capsys):
        # (1 + U)^2 would overflow everywhere inside rho0, so every sensed
        # agent would read as standing on the ego
        out = tmp_path / "m.csv"
        code = main(
            ["run", "--config", write_config(tmp_path, k_rep=1e200),
             "--scene", make_scene(tmp_path), "--out", str(out)]
        )
        assert code == 2
        assert "config error: k_rep" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, scene, message, frames",
        [
            # the first tracking acceleration overflows, which fails as the
            # frame's own check does
            ({"start_velocity": [1e308, 0.0]}, "crossing",
             "config error: reference and rows must be finite at frame 0\n", 1),
            # the ego is flung so far that the reference velocity of the
            # third frame overflows
            ({"attract_gain": 1e150}, "crossing",
             "config error: reference and rows must be finite at frame 2\n", 2),
            # the recorded future a window boundary hands the oracle
            # differences to infinite velocities; the first frame whose
            # row reads one fails, not the window that predicted it, and
            # numpy's overflow warnings do not repeat it
            ({"dt": 1.0 / 30.0, "predictor": "ground-truth-oracle"}, "flicker",
             "config error: reference and rows must be finite at frame 20\n", 20),
            # a k_att past int64 flings the ego out of the float range, and
            # tracking overflows before the reference does (the config fuzz
            # found this)
            ({"k_att": 2**64}, "crossing",
             "config error: reference and rows must be finite at frame 16\n", 17),
        ],
        ids=["first-frame", "mid-run", "overflowing-prediction", "int-gain-past-int64"],
    )
    def test_blow_up_exits_2(self, tmp_path, capsys, overrides, scene, message, frames):
        path = tmp_path / "config.yaml"
        path.write_text(
            yaml.safe_dump(dict(CROSSING, **overrides)), encoding="utf-8"
        )
        if scene == "flicker":
            # one pedestrian at x = 30 px, 30 px ahead of the ego; from frame
            # 20 on it alternates between 30 and 8e307 px
            ann = tmp_path / "flicker.txt"
            ann.write_text(
                "".join(
                    '1 {x!r} -1 {x!r} 1 {f} 0 0 0 "Pedestrian"\n'.format(
                        x=30.0 if f < 20 or f % 2 == 0 else 8e307, f=f
                    )
                    for f in range(80)
                ),
                encoding="utf-8",
            )
            source = ["--annotations", str(ann)]
        else:
            source = ["--scene", make_scene(tmp_path, scene)]
        out, trace = tmp_path / "m.csv", tmp_path / "t.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["run", "--config", str(path), *source,
                 "--out", str(out), "--trace", str(trace)]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()
        # the trace stops at the frame whose integration failed
        assert len(trace.read_text(encoding="utf-8").splitlines()) == frames


    @pytest.mark.parametrize(
        "overrides, frame",
        [({"eta": 1e17, "epsilon": 0.4}, 15), ({"eta": 1e308, "epsilon": -0.4}, 15),
         ({"lambda_initial": 1e17}, 10), ({"alpha_slope": 1e300}, 15)],
        ids=["eta-eps+0.4", "eta-eps-0.4", "lambda_initial", "alpha_slope"],
    )
    def test_a_saturated_window_loss_names_its_keys(self, tmp_path, capsys, overrides, frame):
        # once |G + lam| passes about 5.8e15, arctan(r) / pi rounds to 1/2
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(dict(CROSSING, max_frames=50, **overrides)),
                        encoding="utf-8")
        out = tmp_path / "m.csv"
        code = main(["run", "--config", str(path), "--scene", make_scene(tmp_path, "crossing"),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: the window loss saturated at frame {frame}: the worst gap plus "
            "the margin outgrew the squash; lower eta, lambda_initial or alpha_slope\n"
        )
        assert not out.exists()

    def test_a_horizon_past_its_ceiling_names_its_key(self, tmp_path, capsys):
        # 10**20 frames made predict fail with "Maximum allowed size exceeded"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(dict(CROSSING, max_frames=50, horizon_frames=10**20)),
                        encoding="utf-8")
        out = tmp_path / "m.csv"
        code = main(["run", "--config", str(path), "--scene", make_scene(tmp_path, "crossing"),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "config error: horizon_frames must be at most 10000\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("eta", 0.0), ("epsilon", 0.5), ("lambda_initial", math.inf), ("alpha_slope", 0),
         ("k_acc", -1), ("k_rep", 0), ("rho0", -1), ("delta", 1), ("predictor", "bogus"),
         ("predictor_value_bound", -1.0), ("predictor_value_bound", math.nan),
         ("predictor_dynamics_bound", -1.0), ("predictor_dynamics_bound", math.nan)],
    )
    def test_bad_margin_value_names_its_key(self, tmp_path, capsys, key, value):
        out = tmp_path / "m.csv"
        code = main(
            ["run", "--config", write_config(tmp_path, **{key: value}),
             "--scene", make_scene(tmp_path), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ")
        assert not out.exists()
        # an unknown predictor's message lists the accepted kinds
        kinds = ("constant-velocity", "ground-truth-oracle", "noise-bounded-oracle")
        assert key != "predictor" or all(kind in err for kind in kinds)

    @pytest.mark.parametrize("k_acc", [1e308, 100.0, 20.0])
    def test_unsettling_tracking_gain_is_a_config_error(self, tmp_path, capsys, k_acc):
        # tracking maps the velocity error e to (1 - k_acc * dt) e, which
        # does not shrink once k_acc * dt reaches 2 (dt is 0.1 here)
        out, trace = tmp_path / "m.csv", tmp_path / "t.jsonl"
        code = main(
            ["run", "--config", write_config(tmp_path, k_acc=k_acc),
             "--scene", make_scene(tmp_path), "--out", str(out), "--trace", str(trace)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: k_acc * dt") and "dt 0.1" in err
        assert not out.exists() and not trace.exists()


class TestConfigNumbers:
    def _run(self, tmp_path, name, text):
        config = tmp_path / f"{name}.yaml"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        code = main(
            ["run", "--config", str(config), "--scene", make_scene(tmp_path),
             "--out", str(out)]
        )
        return code, out

    @pytest.mark.parametrize("spelling", ["1e3", "1E3", "1e+3", "1.0e3", "1.e3", ".1e4"])
    def test_exponent_numbers_read_as_floats(self, tmp_path, spelling):
        base = yaml.safe_dump({k: v for k, v in BASE_CONFIG.items() if k != "k_rep"})
        code, out = self._run(tmp_path, "exp", base + f"k_rep: {spelling}\n")
        assert code == 0
        want_code, want = self._run(tmp_path, "dot", base + "k_rep: 1000.0\n")
        assert want_code == 0
        assert out.read_bytes() == want.read_bytes()

    def test_big_exponent_number_matches_its_dotted_form(self, tmp_path):
        base = yaml.safe_dump({k: v for k, v in BASE_CONFIG.items() if k != "k_rep"})
        code, out = self._run(tmp_path, "exp", base + "k_rep: 1e6\n")
        want_code, want = self._run(tmp_path, "dot", base + "k_rep: 1.0e6\n")
        assert code == want_code == 0
        assert out.read_bytes() == want.read_bytes()

    # the type that owns a key refuses its bad value, by the key's name
    RULES = {"eta": "must be positive and finite", "k_acc": "must be positive and finite",
             "dt": "must be positive and finite", "attract_gain": "must be positive and finite",
             "k_att": "must be positive and finite", "k_rep": "must be positive and finite",
             "goal_radius": "must be nonnegative and finite",
             "predictor_value_bound": "must be nonnegative and finite",
             "max_frames": "must be an integer >= 1", "seed": "must be an integer >= 0"}

    @pytest.mark.parametrize(
        "key, value",
        [("eta", "abc"), ("k_acc", "[1, 2]"), ("dt", "true"), ("attract_gain", "fast"),
         ("k_att", "x"), ("predictor_value_bound", "1e"), ("max_frames", "true"),
         ("seed", "yes")],
    )
    def test_non_numeric_value_names_its_key(self, tmp_path, capsys, key, value):
        base = yaml.safe_dump({k: v for k, v in BASE_CONFIG.items() if k != key})
        code, out = self._run(tmp_path, "bad", base + f"{key}: {value}\n")
        assert code == 2
        assert capsys.readouterr().err == f"config error: {key} {self.RULES[key]}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("start", "[1.0]"), ("start_velocity", "[.nan, 0.0]"), ("start", "abc"),
         ("goal", "abc"), ("goal", "[1.0, 2.0, 3.0]"), ("start_velocity", "[true, 0.0]"),
         ("start", "{x: 1.0, y: 2.0}"), ("goal", "[1e400, 0.0]"), ("goal_radius", "-1.0"),
         ("attract_gain", ".inf"), ("goal", '["6", 1.0]')],
    )
    def test_bad_task_value_names_its_key(self, tmp_path, capsys, key, value):
        base = yaml.safe_dump({k: v for k, v in BASE_CONFIG.items() if k != key})
        code, out = self._run(tmp_path, "bad", base + f"{key}: {value}\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["attract_gain", "goal_radius", "dt", "k_rep"])
    def test_integer_too_large_for_a_float_names_its_key(self, tmp_path, capsys, key):
        base = yaml.safe_dump({k: v for k, v in BASE_CONFIG.items() if k != key})
        code, out = self._run(tmp_path, "big", base + f"{key}: 1{'0' * 400}\n")
        assert code == 2
        assert capsys.readouterr().err == f"config error: {key} {self.RULES[key]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "scene"])
    def test_integer_past_the_digit_limit_exits_with_its_code(self, tmp_path, capsys, where):
        # Python refuses to read an integer of more than 4300 digits
        code, message = {"config": (2, "config error: bad config file"),
                         "scene": (3, "data error: bad scene spec file")}[where]
        huge = "9" * 4301
        config = tmp_path / "c.yaml"
        extra = f"seed: {huge}\n" if where == "config" else ""
        config.write_text(yaml.safe_dump(BASE_CONFIG) + extra, encoding="utf-8")
        scene = make_scene(tmp_path)
        if where == "scene":
            scene = tmp_path / "huge.yaml"
            scene.write_text(f"fps: {huge}\n", encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["run", "--config", str(config), "--scene", str(scene), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "4300" in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "scene"])
    def test_a_yaml_syntax_error_is_one_line(self, tmp_path, capsys, where):
        code, message = {"config": (2, "config error: bad config file"),
                         "scene": (3, "data error: bad scene spec file")}[where]
        broken = tmp_path / "broken.yaml"
        broken.write_text("dt: [1, 2\ngoal: [1, 2]\n", encoding="utf-8")
        config, scene = write_config(tmp_path), make_scene(tmp_path)
        config, scene = (broken, scene) if where == "config" else (config, broken)
        out = tmp_path / "m.csv"
        assert main(["run", "--config", str(config), "--scene", str(scene),
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "line 2, column 5" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "malformed",
        [*({"agents": agents} for agents in (
            None, 5, [{"id": 1, "waypoints": 5}],
            *([{"id": 1, "waypoints": [first, [1.0, [0.0, 0.0]]]}]
              for first in ([0.0], [0.0, [0.0]], [0.0, "ab"], [0.0, [10**400, 0.0]],
                            [False, [5.0, 1.0]], ["2", [5.0, 1.0]], [0.0, [5.0, True]],
                            [0.0, ["6", 1.0]])),
            [{"id": True, "waypoints": [[False, [5.0, True]], ["2", ["6", 1.0]]]}],
            [{"id": 1.7, "waypoints": [[0.0, [5.0, 1.0]], [1.0, [6.0, 1.0]]]}],
            [{"id": 1, "waypoints": [[0.0, [1.0e308, 0.0]], [1.0, [-1.0e308, 0.0]]]}],
            [{"id": 1, "label": None, "waypoints": [[0.0, [5.0, 1.0]], [1.0, [6.0, 1.0]]]}],
         )),
         {"scene_name": None}],
        ids=["null", "number", "waypoints-number", "waypoint-short", "point-short",
             "point-string", "coordinate-too-large", "time-bool", "time-string",
             "coordinate-bool", "coordinate-string", "id-bool", "id-fraction",
             "interpolation-past-the-float-range", "label-null", "scene_name-null"],
    )
    def test_malformed_scene_spec_names_its_key(self, tmp_path, capsys, malformed):
        scene = tmp_path / "scene.yaml"
        spec = {"scene_name": "s", "fps": 10.0, "duration": 1.0, "agents": [], **malformed}
        scene.write_text(yaml.safe_dump(spec), encoding="utf-8")
        out = tmp_path / "m.csv"
        code = main(["run", "--config", write_config(tmp_path), "--scene", str(scene),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and next(iter(malformed)) in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_a_frame_grid_numpy_refuses_exits_2(self, tmp_path, capsys):
        scene = tmp_path / "scene.yaml"
        waypoints = [[0.0, [0.0, 0.0]], [1.0, [1.0, 0.0]]]
        spec = {"scene_name": "s", "fps": 10.0, "duration": 1.0e300,
                "agents": [{"id": 1, "waypoints": waypoints}]}
        scene.write_text(yaml.safe_dump(spec), encoding="utf-8")
        out = tmp_path / "m.csv"
        code = main(["run", "--config", write_config(tmp_path), "--scene", str(scene),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "duration" in err and "fps" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_null_leaves_an_optional_key_unset(self, tmp_path):
        base = yaml.safe_dump(BASE_CONFIG)
        code, out = self._run(tmp_path, "null", base + "k_att: null\n")
        want_code, want = self._run(tmp_path, "plain", base)
        assert code == want_code == 0
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("key, spelling, dotted", [("fps", "1e1", "10.0"),
                                                      ("duration", "2e0", "2.0")])
    def test_exponent_numbers_in_a_scene_spec(self, tmp_path, key, spelling, dotted):
        spec = {"scene_name": "s", "fps": 10.0, "duration": 2.0,
                "agents": [{"id": 1, "waypoints": [[0.0, [5.0, 1.0]], [2.0, [6.0, 1.0]]]}]}
        del spec[key]
        base = yaml.safe_dump(spec)
        config = write_config(tmp_path, max_frames=20)
        tables = []
        for name, value in (("exp", spelling), ("dot", dotted)):
            scene = tmp_path / f"{name}.yaml"
            scene.write_text(base + f"{key}: {value}\n", encoding="utf-8")
            out = tmp_path / f"{name}.csv"
            assert main(["run", "--config", config, "--scene", str(scene), "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_safe_loader_is_untouched(self):
        assert yaml.safe_load("k: 1e6") == {"k": "1e6"}
        if hasattr(yaml, "CSafeLoader"):
            assert yaml.load("k: 1e6", Loader=yaml.CSafeLoader) == {"k": "1e6"}


# A scene spec's number slots drawn as YAML text, so that exponent forms
# reach the loader.  A draw is (text, value): value is the number the text
# stands for, None for a value that is not one, and text None leaves the
# key out.
HUGE = "1" + "0" * 400


def numbers(least):
    """Numbers from least to 30: ints, floats and exponent forms."""
    return st.one_of(
        st.integers(math.ceil(least), 30).map(lambda n: (str(n), n)),
        st.floats(least, 30.0).map(lambda x: (repr(x), x)),
        st.sampled_from([(t, v) for t, v in [("1e1", 10.0), ("2e0", 2.0), ("5E-1", 0.5),
                                             ("1.0e+1", 10.0), ("-1e0", -1.0)] if v >= least]),
    )


NUMBERS = numbers(-2.0)
# fps mostly the frame rate of the config's dt, in each spelling
FPS = st.one_of(st.sampled_from([("10", 10), ("10.0", 10.0), ("1e1", 10.0), ("100e-1", 10.0)]),
                numbers(0.1))
IDS = st.one_of(st.integers(-2, 50).map(lambda n: (str(n), n)), st.just((HUGE, 10**400)))
NOT_A_NUMBER = st.sampled_from(
    [(".inf", None), ("-.inf", None), (".nan", None), ("true", None), ("false", None),
     ("abc", None), ("'2'", None), ("null", None), (None, None)]
)
# a scene name or label is any string, quoted or not; a number, a bool, a
# list or null is none, and a left-out label is Pedestrian
NAMES = st.sampled_from([("fuzz", "fuzz"), ("Pedestrian", "Pedestrian"), ("'12'", "12"),
                         ("'null'", "null"), ('""', "")])
NOT_A_STRING = st.sampled_from([("null", None), ("12", None), ("1e1", None), (".nan", None),
                                ("true", None), ("[a]", None), ("{a: 1}", None)])
SPOILERS = {"number": st.one_of(NOT_A_NUMBER, st.just((HUGE, None))),
            "id": st.one_of(NOT_A_NUMBER, st.sampled_from([("1.7", None), ("1e1", None)])),
            "scene_name": st.one_of(NOT_A_STRING, st.just((None, None))),
            "label": NOT_A_STRING}


@st.composite
def scene_specs(draw):
    """The text of a small scene spec with at most one slot spoiled, and
    whether one is."""
    slots = {("scene_name",): draw(NAMES), ("fps",): draw(FPS),
             ("duration",): draw(numbers(0.1))}
    agents = []
    ids = draw(st.lists(IDS, min_size=1, max_size=2, unique_by=lambda d: d[1]))
    for a, agent_id in enumerate(ids):
        slots[a, "id"] = agent_id
        slots[a, "label"] = draw(st.one_of(NAMES, st.just((None, "Pedestrian"))))
        times = draw(st.lists(NUMBERS, min_size=2, max_size=3, unique_by=lambda d: d[1]))
        times.sort(key=lambda d: d[1])
        for w, time in enumerate(times):
            slots[a, w, "time"] = time
            slots[a, w, "x"], slots[a, w, "y"] = draw(NUMBERS), draw(NUMBERS)
        agents.append(len(times))
    # half the specs keep every slot a number; the rest spoil one slot of
    # a kind drawn first, so that the many coordinates do not crowd out
    # the one fps
    kind = None
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["scene_name", "fps", "duration", "id", "label", "time",
                                     "x", "y"]))
        spoiled = draw(st.sampled_from([key for key in slots if key[-1] == kind]))
        slots[spoiled] = draw(SPOILERS.get(kind, SPOILERS["number"]))

    def text(*key):
        return slots[key][0]

    lines = [f"{key}: {text(key)}" for key in ("scene_name", "fps", "duration")
             if text(key) is not None]
    lines.append("agents:")
    for a, n in enumerate(agents):
        waypoints = []
        for w in range(n):
            xy = ", ".join(v for v in (text(a, w, "x"), text(a, w, "y")) if v is not None)
            time = text(a, w, "time")
            waypoints.append(f"[[{xy}]]" if time is None else f"[{time}, [{xy}]]")
        lines.append(f"- waypoints: [{', '.join(waypoints)}]")
        lines += [f"  {key}: {text(a, key)}" for key in ("id", "label")
                  if text(a, key) is not None]
    return "\n".join(lines) + "\n", kind is not None


SPEC_AGENT = "fps: 10\nduration: 2\nagents:\n- id: 1\n{}  waypoints: [[0, [5, 1]], [2, [6, 1]]]\n"


class TestSceneSpecFuzz:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(scene_specs())
    # a null name and label once became the strings 'None'
    @example((SPEC_AGENT.format("  label: null\n") + "scene_name: s\n", True))
    @example((SPEC_AGENT.format("") + "scene_name: null\n", True))
    def test_a_scene_spec_runs_or_exits_with_one_line(self, drawn):
        spec, spoiled = drawn
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            config = tmp / "config.yaml"
            config.write_text("dt: 0.1\ngoal: [10.0, 0.0]\nmax_frames: 20\n", encoding="utf-8")
            scene = tmp / "scene.yaml"
            scene.write_text(spec, encoding="utf-8")
            out = tmp / "m.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(config), "--scene", str(scene),
                             "--out", str(out)])
            err = err.getvalue()
            assert code in (0, 2, 3), err
            assert "Traceback" not in err
            if code == 0:
                assert not spoiled, spec
                assert err == ""
                lines = out.read_text(encoding="utf-8").splitlines()
                assert len(lines) == 2 and lines[0] == CSV_HEADER
            else:
                assert len(err.splitlines()) == 1, err
                assert code != 2 or err.startswith("config error: ")
                assert not out.exists()


# Config documents and sweep grids drawn as YAML and flag text.  A draw of
# a value is its text; None leaves the key out.
SIM_KEYS = ("dt", "tau_frames", "horizon_frames", "alpha_slope", "k_acc", "k_rep", "k_att",
            "rho0", "delta", "eta", "epsilon", "lambda_initial", "predictor", "max_frames",
            "seed", "collision_distance", "relax_lambda_step", "relax_max_steps")
CONFIG_KEYS = SIM_KEYS + ("start", "start_velocity", "goal", "goal_radius", "attract_gain",
                          "predictor_value_bound", "predictor_dynamics_bound")
# solve_with_relaxation makes up to relax_max_steps + 1 attempts a frame,
# and a frame loop runs max_frames times, so these two stay small as ints
BOUNDED = {"max_frames": (-2, 50), "relax_max_steps": (-2, 64)}
NUMBER_TEXTS = st.one_of(
    st.integers(-3, 100).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    # 1e-30 to 1e310 and their negatives, past the float range at the top
    st.tuples(st.sampled_from(["", "-"]), st.integers(-30, 310)).map("{0[0]}1e{0[1]}".format),
    # powers of ten as ints: from 10**6 to 10**9 an unchecked horizon would
    # ask for gigabytes before failing, so they are left out
    st.sampled_from([0, 1, 2, 3, 4, 5, 12, 20, 30, 100]).map(lambda k: str(10**k)),
    st.sampled_from(["2E-1", "1.0e+2", ".5e1", "5e-324", str(2**64)]),
)
SCALARS = st.one_of(
    NUMBER_TEXTS,
    NUMBER_TEXTS,
    st.sampled_from([".inf", "-.inf", ".nan", "true", "false", "null", "abc", "'1.0'",
                     "'1e3'", "[1, 2]", "{a: 1}", "[1, 2", "'open"]),
    st.sampled_from([HUGE, "-" + HUGE, "9" * 4301]),
)
SMALL_INTS = {key: st.one_of(st.integers(*least_most).map(str),
                             SCALARS.filter(lambda t: not t.lstrip("-").isdigit()))
              for key, least_most in BOUNDED.items()}
POINTS = st.lists(SCALARS, min_size=1, max_size=3).map(lambda xs: f"[{', '.join(xs)}]")
VALUES = {
    **{key: st.one_of(POINTS, SCALARS) for key in ("start", "start_velocity", "goal")},
    **SMALL_INTS,
    "predictor": st.one_of(
        st.sampled_from(["constant-velocity", "ground-truth-oracle", "noise-bounded-oracle"]),
        SCALARS),
}
UNKNOWN_KEYS = ["bogus", "Eta", "k_rep2", "workers", "scene_name"]


def rarely():
    """True about one time in eight."""
    return st.tuples(st.booleans(), st.booleans(), st.booleans()).map(all)


def crossing_text(doc):
    """A config's text from the text of each value; None leaves a key out."""
    doc = {**{key: json.dumps(value) for key, value in CROSSING.items()}, **doc}
    return "".join(f"{key}: {text}\n" for key, text in doc.items() if text is not None)


@st.composite
def config_docs(draw):
    """The text of a crossing config with max_frames at most 50 and a few
    keys changed, left out or added."""
    doc = {"max_frames": str(draw(st.integers(1, 50)))}
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=3, unique=True)):
        doc[key] = draw(st.one_of(st.none(), VALUES.get(key, SCALARS)))
    if draw(rarely()):
        doc[draw(st.sampled_from(UNKNOWN_KEYS))] = draw(SCALARS)
    return crossing_text(doc)


GRID_NAMES = list(SIM_KEYS) + ["eps", "tau", "a", "lambda", "goal", "nope"]
GRID_TOKENS = st.one_of(
    st.integers(-3, 100).map(str),
    st.floats(-1e3, 1e3).map(repr),
    # float and exponent spellings of ints, which an int field refuses by name
    st.integers(-3, 100).map("{}.0".format),
    st.tuples(st.sampled_from(["", "-"]), st.integers(0, 400), st.sampled_from("eE")).map(
        "{0[0]}1{0[2]}{0[1]}".format),
    st.sampled_from(["1e3", "inf", "-inf", "nan", "1e400", "abc", "true", "", " 2 ", HUGE,
                     "9" * 4301]),
)
# JSON's number grammar, which every grid token that is a number here follows
NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


@st.composite
def grids(draw):
    """One or two --grid flags of up to two values each; the bounded
    fields take only small ints or a value that is no int."""
    flags = []
    for name in draw(st.lists(st.sampled_from(GRID_NAMES), min_size=1, max_size=2, unique=True)):
        field = {"tau": "tau_frames"}.get(name, name)
        tokens = GRID_TOKENS
        if field in BOUNDED:
            tokens = st.one_of(st.integers(*BOUNDED[field]).map(str),
                               GRID_TOKENS.filter(lambda t: not t.strip().lstrip("-").isdigit()))
        values = draw(st.lists(tokens, min_size=1, max_size=2))
        flags.append(name if draw(rarely()) else f"{name}={','.join(values)}")
    return flags


def _main_in_process(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# the exit-2 lines that name no key: the engine's finiteness check, which
# the README documents, and a config file YAML or Python cannot read
KEYLESS = ("config error: reference and rows must be finite at frame ",
           "config error: bad config file ")


@functools.cache
def crossing_scene_text():
    # dumping the spec takes about 30 ms, longer than most drawn runs
    return yaml.safe_dump(BUILTIN_SCENES["crossing"])


class TestConfigFuzz:
    def _check(self, argv, named, cells, items=()):
        """Run argv in process on the crossing scene; an exit-2 line names
        a key of named or quotes a grid name of items, and an exit 0
        writes cells rows.  Returns the stderr text."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            scene = tmp / "crossing.yaml"
            scene.write_text(crossing_scene_text(), encoding="utf-8")
            out = tmp / "m.csv"
            code, err = _main_in_process(argv + ["--scene", str(scene), "--out", str(out)])
            assert code in (0, 2, 3, 4), err
            assert "Traceback" not in err
            if code == 0:
                lines = out.read_text(encoding="utf-8").splitlines()
                assert lines[0] == CSV_HEADER and len(lines) == 1 + cells
                failed = [line for line in lines if line.endswith("failed")]
                notes = err.splitlines()
                assert len(notes) == len(failed), err
                # a cell fails only by the package's own errors
                assert all(note.startswith("sweep: cell ") and any(
                    f": {kind}: " in note for kind in ("InputError", "InfeasibleError"))
                    for note in notes), err
            elif code in (2, 3):
                assert len(err.splitlines()) == 1, err
                assert not out.exists()
            if code == 2 and not err.startswith(KEYLESS):
                assert err.startswith("config error: "), err
                # a key by its whole name, or a grid name quoted as given
                assert any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err)
                           for name in named) or any(f"'{item}" in err for item in items), err
        return err

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(config_docs())
    # what the fuzz found: a saturated loss and a horizon past numpy's
    # array size named no key, and an int gain past int64 overflowed the
    # tracking acceleration, whose message named none either
    @example(crossing_text({"max_frames": "50", "eta": "1e17", "epsilon": "0.4"}))
    @example(crossing_text({"max_frames": "50", "horizon_frames": str(10**20)}))
    @example(crossing_text({"max_frames": "50", "k_att": str(2**64)}))
    def test_a_config_document_runs_or_exits_with_one_line(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.yaml"
            config.write_text(text, encoding="utf-8")
            self._check(["run", "--config", str(config)], CONFIG_KEYS + tuple(UNKNOWN_KEYS), 1)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(grids())
    # what the fuzz found: an int field's exponent or float spelling read
    # as a non-numeric value
    @example(["tau=1e1"])
    @example(["tau=10.0"])
    def test_a_grid_sweeps_or_exits_with_one_line(self, flags):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.yaml"
            config.write_text(yaml.safe_dump(dict(CROSSING, max_frames=20)), encoding="utf-8")
            argv = ["sweep", "--config", str(config)]
            for flag in flags:
                argv += ["--grid", flag]
            cells = math.prod(len([v for v in flag.partition("=")[2].split(",") if v.strip()])
                              for flag in flags)
            err = self._check(argv, CONFIG_KEYS, cells, [flag.partition("=")[0] for flag in flags])
        # a flag whose tokens are all numbers is never called non-numeric
        for flag in flags:
            if f"grid {flag!r} has a non-numeric value" in err:
                assert not all(NUMBER.fullmatch(tok.strip())
                               for tok in flag.partition("=")[2].split(",") if tok.strip()), err


class TestValidateAnnotations:
    def test_clean_file_passes(self, tmp_path, capsys):
        path = tmp_path / "good.txt"
        path.write_text(GOOD_ANNOTATIONS, encoding="utf-8")
        assert main(["validate-annotations", "--annotations", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_malformed_row_reports_line_and_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(
            '1 10 20 30 40 0 0 0 0 "Pedestrian"\n'
            "2 50 60 70\n",
            encoding="utf-8",
        )
        assert main(["validate-annotations", "--annotations", str(path)]) == 3
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-annotations", "run"])
    def test_nonfinite_box_names_its_line_once(self, tmp_path, capsys, command):
        path = tmp_path / "nan.txt"
        path.write_text(
            '1 10 20 30 40 0 0 0 0 "Pedestrian"\n'
            '1 nan 20 30 40 1 0 0 0 "Pedestrian"\n',
            encoding="utf-8",
        )
        argv = [command, "--annotations", str(path)]
        if command == "run":
            config = tmp_path / "config.yaml"
            config.write_text("dt: 0.1\ngoal: [10.0, 0.0]\n", encoding="utf-8")
            argv += ["--config", str(config), "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err.count("line 2") == 1


class TestSweepCommand:
    def test_rows_follow_grid_order(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            [
                "sweep",
                "--config", write_config(tmp_path, max_frames=200),
                "--scene", make_scene(tmp_path),
                "--out", str(out),
                "--grid", "eps=-0.2,0,0.2",
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["-0.2", "0.0", "0.2"]

    def test_failed_cells_keep_their_row(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(
            [
                "sweep",
                "--config", write_config(tmp_path, max_frames=150),
                "--scene", make_scene(tmp_path),
                "--out", str(out),
                "--grid", "eps=0.6,0.0",
            ]
        )
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert rows[0].split(",")[3:] == ["failed"] * 5
        assert "failed" not in rows[1]
        assert capsys.readouterr().err.splitlines() == [
            "sweep: cell epsilon=0.6 failed: InputError: epsilon must lie in (-1/2, 1/2)"
        ]

    def test_worker_count_not_in_bytes(self, tmp_path):
        cfg = write_config(tmp_path, max_frames=150)
        scene = make_scene(tmp_path)
        args = ["sweep", "--config", cfg, "--scene", scene,
                "--grid", "eps=-0.2,0.2"]
        serial = tmp_path / "serial.csv"
        assert main(args + ["--out", str(serial), "--workers", "1"]) == 0
        pooled = tmp_path / "pooled.csv"
        assert main(args + ["--out", str(pooled), "--workers", "2"]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_rejects_malformed_grids(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        scene = make_scene(tmp_path)
        out = str(tmp_path / "t.csv")
        base = ["sweep", "--config", cfg, "--scene", scene, "--out", out]
        assert main(base + ["--grid", "eps"]) == 2
        assert main(base + ["--grid", "nope=1,2"]) == 2
        assert main(base + ["--grid", "eps=a,b"]) == 2
        assert main(base) == 2  # no grid at all
        capsys.readouterr()
        # a field that takes no number cannot be swept from the command line
        assert main(base + ["--grid", "predictor=1"]) == 2
        assert capsys.readouterr().err.startswith("config error: predictor ")

    def test_the_environment_sets_no_worker_count(self, tmp_path, monkeypatch):
        # --workers, default 1, is the only way to set the worker count
        monkeypatch.setenv("CONFORMAL_CBF_WORKERS", "many")
        out = tmp_path / "t.csv"
        code = main(
            [
                "sweep",
                "--config", write_config(tmp_path, max_frames=150),
                "--scene", make_scene(tmp_path),
                "--out", str(out),
                "--grid", "eps=0.0",
            ]
        )
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2


class TestMakeScene:
    def test_emits_a_loadable_spec(self, tmp_path):
        for name in sorted(BUILTIN_SCENES):
            path = tmp_path / f"{name}.yaml"
            assert main(["make-scene", "--name", name, "--out", str(path)]) == 0
            spec = yaml.safe_load(path.read_text(encoding="utf-8"))
            scene = synth_scene(spec)
            assert scene.scene_name == name
            assert len(scene.labels) == len(BUILTIN_SCENES[name]["agents"])

    def test_unknown_name_exits_2(self, tmp_path):
        assert main(
            ["make-scene", "--name", "nope", "--out", str(tmp_path / "s.yaml")]
        ) == 2
