"""Tests for annotation parsing, synthetic scenes and scene queries."""

import numpy as np
import pytest

from _oracles import scene_from_frames
from conformal_cbf.cli import load_scene_spec
from conformal_cbf.engine import RobotState, RobotTask, reference_control, sensed_agents
from conformal_cbf.errors import InputError, ParseError
from conformal_cbf.scenario import ScenarioFrameSet, load_annotations, synth_scene


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadAnnotations:
    def test_single_row(self, tmp_path):
        p = write(tmp_path, "video.txt", '5 10 20 30 40 7 0 0 0 "Pedestrian"\n')
        scene = load_annotations(p)
        assert scene.scene_name == "video"
        assert set(scene.frames) == {7}
        assert np.array_equal(scene.frames[7][5], [20.0, 30.0])
        assert scene.labels[5] == "Pedestrian"

    def test_lost_rows_dropped(self, tmp_path):
        p = write(
            tmp_path,
            "a.txt",
            '1 0 0 2 2 0 0 0 0 "Pedestrian"\n'
            '1 0 0 2 2 1 1 0 0 "Pedestrian"\n'
            '1 0 0 2 2 2 0 0 0 "Pedestrian"\n',
        )
        scene = load_annotations(p)
        assert sorted(scene.frames) == [0, 2]

    def test_label_filter(self, tmp_path):
        p = write(
            tmp_path,
            "a.txt",
            '1 0 0 2 2 0 0 0 0 "Pedestrian"\n'
            '2 0 0 2 2 0 0 0 0 "Biker"\n'
            '3 0 0 2 2 0 0 0 0 "Cart"\n',
        )
        scene = load_annotations(p)
        assert set(scene.frames[0]) == {1}
        both = load_annotations(p, label_filter=("Pedestrian", "Biker"))
        assert set(both.frames[0]) == {1, 2}
        everything = load_annotations(p, label_filter=None)
        assert set(everything.frames[0]) == {1, 2, 3}

    def test_wrong_column_count(self, tmp_path):
        p = write(
            tmp_path,
            "a.txt",
            '1 0 0 2 2 0 0 0 0 "Pedestrian"\n1 0 0 2 2 0 0 0\n',
        )
        with pytest.raises(ParseError) as info:
            load_annotations(p)
        assert info.value.line == 2

    def test_non_numeric_field(self, tmp_path):
        p = write(tmp_path, "a.txt", '1 0 zero 2 2 0 0 0 0 "Pedestrian"\n')
        with pytest.raises(ParseError) as info:
            load_annotations(p)
        assert info.value.line == 1

    def test_duplicate_track_frame(self, tmp_path):
        p = write(
            tmp_path,
            "a.txt",
            '1 0 0 2 2 5 0 0 0 "Pedestrian"\n1 4 4 6 6 5 0 0 0 "Pedestrian"\n',
        )
        with pytest.raises(ParseError) as info:
            load_annotations(p)
        assert info.value.line == 2

    def test_empty_result_warns(self, tmp_path):
        p = write(tmp_path, "a.txt", '1 0 0 2 2 0 1 0 0 "Pedestrian"\n')
        with pytest.warns(UserWarning):
            load_annotations(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path, "a.txt", '\n1 0 0 2 2 0 0 0 0 "Pedestrian"\n\n')
        scene = load_annotations(p)
        assert set(scene.frames) == {0}

    def test_round_trip_is_exact(self, tmp_path):
        # positions written as zero-area boxes with full float precision
        # load back bit for bit
        rng = np.random.default_rng(17)
        frames = {}
        lines = []
        for frame in range(5):
            for agent in range(1 + frame % 3):
                x, y = rng.uniform(-100, 1000, size=2).tolist()
                frames.setdefault(frame, {})[agent] = (x, y)
                lines.append(f'{agent} {x!r} {y!r} {x!r} {y!r} {frame} 0 0 0 "Pedestrian"\n')
        p = write(tmp_path, "out.txt", "".join(lines))
        back = load_annotations(p, scene_name="synthetic")
        assert set(back.frames) == set(frames)
        for frame, row in frames.items():
            assert set(back.frames[frame]) == set(row)
            for agent, pos in row.items():
                assert back.frames[frame][agent].tolist() == list(pos)


class TestFrameSetQueries:
    def scene(self):
        frames = {f: {1: (float(f), 0.0), 2: (0.0, float(f))} for f in range(10)}
        del frames[4][1]  # a gap in agent 1's track
        return scene_from_frames(frames, labels={1: "Pedestrian"})

    def test_bounds_and_dt(self):
        s = self.scene()
        assert s.start_frame == 0
        assert s.end_frame == 10
        assert abs(s.dt - 0.1) <= 1e-15

    def run_of(self, s, agent, frame):
        """The (row, before, after) run rows_at lists for agent at frame."""
        ids, _, runs = s.rows_at(frame)
        (run,) = runs[ids == agent].tolist()
        return run

    def test_history_respects_gap(self):
        s = self.scene()
        row, before, _ = self.run_of(s, 1, 7)
        # contiguous run up to frame 7 is frames 5, 6, 7 (frame 4 is missing)
        assert before == 3
        assert s.track_positions[row - 2 : row + 1, 0].tolist() == [5.0, 6.0, 7.0]

    def test_history_cap(self):
        # a run longer than the history wanted: the engine takes its end
        s = self.scene()
        row, before, _ = self.run_of(s, 2, 7)
        assert before == 8
        assert s.track_positions[row - 2 : row + 1, 1].tolist() == [5.0, 6.0, 7.0]

    def test_history_absent_agent(self):
        # an agent absent at a frame has no entry there, and a frame
        # without agents has no runs
        s = self.scene()
        ids, positions, runs = s.rows_at(4)
        assert ids.tolist() == [2] and positions.shape == (1, 2) and runs.shape == (1, 3)
        assert [a.shape for a in s.rows_at(-1)] == [(0,), (0, 2), (0, 3)]

    def test_future_respects_gap(self):
        s = self.scene()
        row, _, after = self.run_of(s, 1, 2)
        assert after == 2  # frames 2, 3; frame 4 missing
        assert s.track_positions[row : row + 2, 0].tolist() == [2.0, 3.0]

    def test_future_cap_and_absent(self):
        s = self.scene()
        assert self.run_of(s, 2, 0)[2] == 10
        assert self.run_of(s, 2, 9)[2] == 1
        assert s.rows_at(10)[2].tolist() == []

    def test_rows_need_finite_planar_positions(self):
        for xy in ([[0.0, np.nan]], [[0.0, 1.0, 2.0]], [[0.0, 1.0], [2.0, 3.0]]):
            with pytest.raises(InputError, match="positions"):
                ScenarioFrameSet("r", 10.0, [1], [0], xy, {})

    def test_sensed_agents_strict_radius(self):
        frames = {0: {1: (3.0, 0.0), 2: (5.0, 0.0), 3: (0.0, 4.999)}}
        s = scene_from_frames(frames, fps=30.0)
        ids, positions, runs = sensed_agents(s, [0.0, 0.0], rho0=5.0, frame=0)
        assert ids.tolist() == [1, 3]
        assert positions.tolist() == [[3.0, 0.0], [0.0, 4.999]]
        # each sensed agent's one-sample run, at its table row
        assert runs.tolist() == [[0, 1, 1], [2, 1, 1]]

    def test_sensed_agents_monotone_in_radius(self):
        rng = np.random.default_rng(3)
        frames = {0: {i: rng.uniform(-10, 10, size=2) for i in range(20)}}
        s = scene_from_frames(frames, fps=30.0)
        previous = set()
        for rho0 in (2.0, 5.0, 9.0, 50.0):
            ids = set(sensed_agents(s, [0.0, 0.0], rho0, frame=0)[0].tolist())
            assert previous <= ids
            previous = ids


class TestRobotTask:
    def task(self):
        return RobotTask(goal=[10.0, 5.0], attract_gain=0.5, goal_radius=1.0)

    def test_reference_control_points_at_goal(self):
        t = self.task()
        u = reference_control(t, RobotState(position=[4.0, 5.0], velocity=[0.0, 0.0]))
        assert np.allclose(u, [3.0, 0.0], atol=1e-15)

    def test_reference_control_vanishes_at_goal(self):
        t = self.task()
        u = reference_control(t, RobotState(position=[10.0, 5.0], velocity=[1.0, 0.0]))
        assert np.array_equal(u, [0.0, 0.0])

    def test_validation(self):
        with pytest.raises(Exception):
            RobotTask(goal=[10.0, 5.0], attract_gain=0.0, goal_radius=1.0)


class TestSynthScene:
    def spec(self):
        return {
            "scene_name": "cross",
            "fps": 10.0,
            "duration": 3.0,
            "agents": [
                {
                    "id": 1,
                    "label": "Pedestrian",
                    "waypoints": [[0.0, [0.0, 0.0]], [3.0, [30.0, 0.0]]],
                },
                {
                    "id": 2,
                    "label": "Pedestrian",
                    "waypoints": [[1.0, [5.0, 5.0]], [2.0, [5.0, -5.0]]],
                },
            ],
        }

    def test_linear_interpolation(self):
        scene = synth_scene(self.spec())
        # agent 1 moves 10 px/s; frame 15 is t = 1.5
        assert np.allclose(scene.frames[15][1], [15.0, 0.0], atol=1e-12)

    def test_presence_window(self):
        scene = synth_scene(self.spec())
        assert 2 not in scene.frames[9]
        assert 2 in scene.frames[10]
        assert 2 in scene.frames[20]
        assert 2 not in scene.frames[21]

    def test_endpoint_values(self):
        scene = synth_scene(self.spec())
        assert np.allclose(scene.frames[0][1], [0.0, 0.0])
        assert np.allclose(scene.frames[30][1], [30.0, 0.0])

    def test_duplicate_id_rejected(self):
        spec = self.spec()
        spec["agents"].append(dict(spec["agents"][0]))
        with pytest.raises(InputError):
            synth_scene(spec)

    def test_non_monotone_schedule_rejected(self):
        spec = self.spec()
        spec["agents"][0]["waypoints"] = [[0.0, [0.0, 0.0]], [0.0, [1.0, 0.0]]]
        with pytest.raises(InputError):
            synth_scene(spec)

    def test_too_few_waypoints_rejected(self):
        spec = self.spec()
        spec["agents"][0]["waypoints"] = [[0.0, [0.0, 0.0]]]
        with pytest.raises(InputError):
            synth_scene(spec)

    def test_a_frame_grid_numpy_refuses_names_duration_and_fps(self):
        spec = {"scene_name": "s", "fps": 10.0, "duration": 1.0e300,
                "agents": [{"id": 1, "waypoints": [[0.0, [0.0, 0.0]], [1.0, [1.0, 0.0]]]}]}
        with pytest.raises(InputError, match="duration.*fps"):
            synth_scene(spec)

    def test_waypoint_times_of_opposite_sign_near_the_float_limit(self):
        # their difference overflows a float, yet the schedule increases
        spec = self.spec()
        spec["agents"][0]["waypoints"] = [[-1.0e308, [5.0, 1.0]], [1.0e308, [6.0, 1.0]]]
        scene = synth_scene(spec)
        assert all(1 in scene.frames[f] for f in range(31))

    def test_missing_keys_rejected(self):
        with pytest.raises(InputError):
            synth_scene({"scene_name": "x"})

    def test_yaml_spec_round_trip(self, tmp_path):
        import yaml

        p = tmp_path / "scene.yaml"
        p.write_text(yaml.safe_dump(self.spec()), encoding="utf-8")
        scene = synth_scene(load_scene_spec(p))
        assert scene.scene_name == "cross"
        assert np.allclose(scene.frames[15][1], [15.0, 0.0])

    def test_bad_yaml_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("scene_name: [unclosed", encoding="utf-8")
        with pytest.raises(ParseError):
            load_scene_spec(p)
        p2 = tmp_path / "list.yaml"
        p2.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_scene_spec(p2)
