"""End-to-end command behavior: exit codes, CSV stability, plumbing.

Every test drives main() in process with argv lists; nothing here
touches the engine internals directly.
"""

import json
import math
import warnings

import yaml
import pytest

from _golden import CROSSING
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
        cfg = write_config(
            tmp_path,
            predictor="noise-bounded-oracle",
            predictor_value_bound=2.0,
            predictor_dynamics_bound=0.5,
            max_frames=200,
        )
        scene = make_scene(tmp_path)
        outs = {}
        for tag, seed in (("a", "0"), ("b", "0"), ("c", "1")):
            out = tmp_path / f"{tag}.csv"
            assert main(
                ["run", "--config", cfg, "--scene", scene,
                 "--out", str(out), "--seed", seed]
            ) == 0
            outs[tag] = out.read_bytes()
        assert outs["a"] == outs["b"]
        assert outs["a"] != outs["c"]


class TestExitCodes:
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
        )
        out = tmp_path / "m.csv"
        code = main(
            ["run", "--config", cfg, "--scene", make_scene(tmp_path),
             "--out", str(out), "--seed", "-1"]
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
            # the first tracking acceleration overflows
            ({"start_velocity": [1e308, 0.0]}, "crossing",
             "acceleration must be a finite planar vector", 1),
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
        ],
        ids=["first-frame", "mid-run", "overflowing-prediction"],
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
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be a number")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("start", "[1.0]"), ("start_velocity", "[.nan, 0.0]"), ("start", "abc"),
         ("goal", "abc"), ("goal", "[1.0, 2.0, 3.0]"), ("start_velocity", "[true, 0.0]"),
         ("start", "{x: 1.0, y: 2.0}"), ("goal", "[1e400, 0.0]"), ("goal_radius", "-1.0"),
         ("attract_gain", ".inf")],
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
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be a finite number")
        assert len(err.splitlines()) == 1
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

    @pytest.mark.parametrize(
        "agents",
        [None, 5, [{"id": 1, "waypoints": 5}],
         *([{"id": 1, "waypoints": [first, [1.0, [0.0, 0.0]]]}]
           for first in ([0.0], [0.0, [0.0]], [0.0, "ab"], [0.0, [10**400, 0.0]]))],
        ids=["null", "number", "waypoints-number", "waypoint-short", "point-short",
             "point-string", "coordinate-too-large"],
    )
    def test_malformed_scene_spec_names_its_key(self, tmp_path, capsys, agents):
        scene = tmp_path / "scene.yaml"
        spec = {"scene_name": "s", "fps": 10.0, "duration": 1.0, "agents": agents}
        scene.write_text(yaml.safe_dump(spec), encoding="utf-8")
        out = tmp_path / "m.csv"
        code = main(["run", "--config", write_config(tmp_path), "--scene", str(scene),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "agents" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_null_leaves_an_optional_key_unset(self, tmp_path):
        base = yaml.safe_dump(BASE_CONFIG)
        code, out = self._run(tmp_path, "null", base + "k_att: null\n")
        want_code, want = self._run(tmp_path, "plain", base)
        assert code == want_code == 0
        assert out.read_bytes() == want.read_bytes()

    def test_safe_loader_is_untouched(self):
        assert yaml.safe_load("k: 1e6") == {"k": "1e6"}


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

    def test_failed_cells_keep_their_row(self, tmp_path):
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

    def test_worker_count_not_in_bytes(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, max_frames=150)
        scene = make_scene(tmp_path)
        args = ["sweep", "--config", cfg, "--scene", scene,
                "--grid", "eps=-0.2,0.2"]
        serial = tmp_path / "serial.csv"
        assert main(args + ["--out", str(serial), "--workers", "1"]) == 0
        monkeypatch.setenv("CONFORMAL_CBF_WORKERS", "2")
        pooled = tmp_path / "pooled.csv"
        assert main(args + ["--out", str(pooled)]) == 0
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

    def test_bad_workers_env_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONFORMAL_CBF_WORKERS", "many")
        code = main(
            [
                "sweep",
                "--config", write_config(tmp_path, max_frames=150),
                "--scene", make_scene(tmp_path),
                "--out", str(tmp_path / "t.csv"),
                "--grid", "eps=0.0",
            ]
        )
        assert code == 2


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
