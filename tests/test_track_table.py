"""The scene's track table and annotation parser against the references in
_oracles.py: the line-by-line parser and the frame-by-frame dict walks.

Annotation files are generated from tokens in many spellings Python's int()
and float() accept or refuse (signs, leading zeros, underscores, exponents,
20-digit integers, non-ASCII digits and spaces), quoted and unquoted labels,
blank lines and all three line endings, so both the column reader and the
line parser it falls back to are exercised.  Results are compared with ==,
positions bit for bit.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _golden import CROSSING
from _oracles import (
    Window,
    future_reference,
    future_window,
    history_reference,
    parse_annotations_reference,
    scene_from_frames,
    sensed_reference,
    stack_reference,
)
from conformal_cbf.cli import build_setup, main
from conformal_cbf.conformal import EgoWindow, window_loss
from conformal_cbf.engine import SimConfig, _run_samples, run, window_step
from conformal_cbf.engine import Window as EndedWindow
from conformal_cbf.errors import ParseError
from conformal_cbf.scenario import (
    ScenarioFrameSet,
    _parse_lines,
    _parse_plain,
    load_annotations,
    sensed_agents,
)

SETTINGS = settings(max_examples=150, deadline=None)

small_int = st.integers(-3, 40)
int_token = st.one_of(
    small_int.map(str),
    small_int.map(lambda i: f"+{i}" if i >= 0 else str(i)),
    small_int.map(lambda i: f"00{i}" if i >= 0 else str(i)),
    st.integers(-(10**22), 10**22).map(str),
    st.sampled_from(["1_0", "١٢", "1.0", "1e3", "0x1", "", "--1", "9" * 19]),
)
float_token = st.one_of(
    st.floats(-1e4, 1e4, allow_nan=False).map(repr),
    st.integers(-500, 500).map(str),
    st.sampled_from(
        [".5", "5.", "1e2", "-0", "+3.25", "1_0.5", "1E-3", "nan", "inf", "-Infinity",
         "1e400", "1e308", "abc", "1.5.2", "٣"]
    ),
)
label_token = st.sampled_from(
    ['"Pedestrian"', "Pedestrian", '""Pedestrian"', '"Biker"', '"Ped"x"', '"é"', '""', '"Cart',
     "L" * 23, "L" * 24, '"' + "L" * 30 + '"']
)
space = st.sampled_from([" ", " ", " ", "  ", "\t", " \t", "\x0c", "　"])
newline = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def rows(draw, valid=False):
    """One annotation line's tokens; valid rows avoid every rejection."""
    if valid:
        ints, floats = small_int.map(str), st.floats(-1e4, 1e4, allow_nan=False).map(repr)
    else:
        ints, floats = int_token, float_token
    tokens = [draw(ints)] + [draw(floats) for _ in range(4)]
    tokens += [draw(ints), draw(st.sampled_from(["0", "1", "0", "2"]) if valid else ints)]
    tokens += [draw(ints), draw(ints), draw(label_token)]
    if not valid and draw(st.integers(0, 9)) == 0:
        tokens = tokens[: draw(st.integers(0, 11))] + ["x"] * draw(st.integers(0, 2))
    return tokens


@st.composite
def files(draw, valid=False):
    out = []
    for tokens in draw(st.lists(rows(valid), max_size=12)):
        if valid:
            tokens[0] = str(len(out))  # one row per track: no duplicates
        if draw(st.integers(0, 6)) == 0:
            out.append(draw(space))  # a blank line
        sep = draw(space) if not valid or draw(st.booleans()) else " "
        out.append(draw(st.sampled_from(["", " "])) + sep.join(tokens))
    ends = [draw(newline) for _ in out]
    return "".join(line + end for line, end in zip(out, ends))


label_filters = st.sampled_from([("Pedestrian",), None, ("Pedestrian", "Biker", "é", "")])


def bits(frames):
    return {f: {a: np.asarray(p).tobytes() for a, p in row.items()} for f, row in frames.items()}


def outcome(parse):
    """(frames as bytes, labels) or the ParseError's line."""
    try:
        frames, labels = parse()
    except ParseError as exc:
        return ("error", exc.line)
    return (bits(frames), labels)


def check_against_reference(tmp_path, text, label_filter):
    path = tmp_path / "a.txt"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(lambda: parse_annotations_reference(path, label_filter))

    def load():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty result warns
            scene = load_annotations(path, label_filter=label_filter)
        return scene.frames, scene.labels

    assert outcome(load) == want
    return want


@SETTINGS
@given(text=files(valid=True), label_filter=label_filters)
def test_valid_files_parse_like_the_reference(tmp_path_factory, text, label_filter):
    want = check_against_reference(tmp_path_factory.mktemp("v"), text, label_filter)
    assert want[0] != "error"


@SETTINGS
@given(text=files(), label_filter=label_filters)
def test_garbage_gives_the_reference_line(tmp_path_factory, text, label_filter):
    check_against_reference(tmp_path_factory.mktemp("g"), text, label_filter)


@SETTINGS
@given(text=files(), label_filter=label_filters)
def test_column_reader_agrees_with_the_line_parser(tmp_path_factory, text, label_filter):
    path = tmp_path_factory.mktemp("c") / "a.txt"
    path.write_bytes(text.encode("utf-8"))
    keep = None if label_filter is None else set(label_filter)
    plain = _parse_plain(path, keep)
    if plain is None:
        return
    track, frame, xy, labels = _parse_lines(path, keep)
    assert np.asarray(plain[0]).tolist() == track
    assert np.asarray(plain[1]).tolist() == frame
    assert plain[2].tobytes() == xy.tobytes()
    assert plain[3] == labels


def test_plain_files_take_the_column_reader(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(
        b'1 10 20 30 40 7 0 0 0 "Pedestrian"\r\n2 1.5 2 3 4e1 7 1 0 0 "Pedestrian"\r\n'
    )
    track, frame, xy, labels = _parse_plain(path, {"Pedestrian"})
    assert track.tolist() == [1] and frame.tolist() == [7]
    assert xy.tolist() == [[20.0, 30.0]] and labels == {1: "Pedestrian"}


@pytest.mark.parametrize("width", [22, 23, 24, 25, 40])
def test_long_labels_are_read_whole(tmp_path, width):
    text = f'1 0 0 2 2 0 0 0 0 "{"L" * width}"\n2 0 0 2 2 0 0 0 0 "Pedestrian"\n'
    check_against_reference(tmp_path, text, None)


def test_twenty_digit_ids_are_read_exactly(tmp_path):
    big = 10**20
    path = tmp_path / "big.txt"
    path.write_text(
        f'{big} 0 0 2 2 {big} 0 0 0 "Pedestrian"\n{big} 0 0 4 4 {big + 1} 0 0 0 "Pedestrian"\n',
        encoding="utf-8",
    )
    scene = load_annotations(path)
    assert scene.labels == {big: "Pedestrian"}
    assert scene.start_frame == big and scene.end_frame == big + 2
    row, before, after = scene.runs_at([big], big + 1)
    assert (before.tolist(), after.tolist()) == ([2], [1])
    assert scene.track_positions[row[0] - 1 : row[0] + 1].tolist() == [[1.0, 1.0], [2.0, 2.0]]


def test_non_utf8_text_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b'1 0 0 2 2 0 0 0 0 "Pedestrian"\n2 0 0 2 2 0 0 0 0 "Stra\xdfe"\n')
    with pytest.raises(ParseError) as info:
        load_annotations(path)
    assert info.value.line == 2


NAN_ROW = '1 nan 407 300 421 30 0 0 0 "Pedestrian"\n'


@pytest.mark.parametrize("command", ["validate-annotations", "run"])
def test_non_finite_box_exits_3_with_its_line(tmp_path, capsys, command):
    ann = tmp_path / "crowd.txt"
    ann.write_text('1 0 0 2 2 29 0 0 0 "Pedestrian"\n' + NAN_ROW, encoding="utf-8")
    argv = [command, "--annotations", str(ann)]
    if command == "run":
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("goal: [10.0, 0.0]\nmax_frames: 5\n", encoding="utf-8")
        argv += ["--config", str(cfg), "--out", str(tmp_path / "m.csv")]
    assert main(argv) == 3
    assert "line 2" in capsys.readouterr().err


# scenes: up to six tracks, each present on a random subset of frames, so
# tracks have gaps, restart after them, or hold a single sample; ids may sit
# at the ends of int64
EDGE_IDS = [-(2**63), 2**63 - 1]


@st.composite
def scenes(draw):
    frames = {}
    for agent_id in draw(st.sets(st.integers(-5, 60) | st.sampled_from(EDGE_IDS), max_size=6)):
        present = draw(st.sets(st.integers(-4, 25), max_size=30))
        for f in present:
            xy = draw(st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
            frames.setdefault(f, {})[agent_id] = np.array(xy, dtype=np.float64) / 4.0
    return frames


def run_slices(scene, ids, f, cap):
    """The history ending right before frame f and the future from f, at
    most cap samples each, as (start frame, positions) or None per id:
    one runs_at lookup each, sliced from the table as the engine does."""
    histories, futures = [], []
    row, before, _ = scene.runs_at(ids, f - 1)
    for r, n in zip(row.tolist(), np.minimum(before, cap).tolist()):
        histories.append((f - n, scene.track_positions[r + 1 - n : r + 1]) if n > 0 else None)
    row, _, after = scene.runs_at(ids, f)
    for r, n in zip(row.tolist(), np.minimum(after, cap).tolist()):
        futures.append((f, scene.track_positions[r : r + n]) if n > 0 else None)
    return histories, futures


def same_slice(got, want):
    if want is None:
        return got is None
    return got is not None and got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


@SETTINGS
@given(frames=scenes())
def test_track_queries_match_the_dict_walks(frames):
    scene = scene_from_frames(frames)
    assert bits(scene.frames) == bits(frames)
    present = {a for row in frames.values() for a in row}
    ids = sorted(present | {99} | set(EDGE_IDS))  # absent ones among them
    lo, hi = (min(frames), max(frames) + 1) if frames else (0, 0)
    assert (scene.start_frame, scene.end_frame, scene.n_frames) == (lo, hi, len(frames))
    for f in range(lo - 2, hi + 3):
        ids_at, pos_at = scene.rows_at(f)
        assert bits({0: dict(zip(ids_at.tolist(), pos_at))}) == bits({0: frames.get(f, {})})
        # the frames from f up to f + 3 are one slice, in frame then id order
        frames_in, starts, pos_in = scene.rows_in(f, f + 3)
        want = [(g, a) for g in range(f, f + 3) for a in sorted(frames.get(g, {}))]
        assert frames_in.tolist() == [g for g in range(f, f + 3) if frames.get(g)]
        firsts = [i for i, (g, _) in enumerate(want) if i == 0 or want[i - 1][0] != g]
        assert starts.tolist() == firsts
        assert pos_in.tobytes() == b"".join(frames[g][a].tobytes() for g, a in want)
        for cap in (0, 1, 2, 3, 5, 100):
            histories, futures = run_slices(scene, ids, f, cap)
            for agent_id, got_history, got_future in zip(ids, histories, futures):
                want = history_reference(frames, agent_id, f, cap)
                assert same_slice(got_history, want)
                assert same_slice(got_future, future_reference(frames, agent_id, f, cap))


def test_a_scene_at_either_end_of_int64_runs_like_one_at_frame_0():
    """One agent over 31 frames gives the same metrics wherever the scene
    sits: ending at frame 2**63 - 1, d_min and n_collide still see it."""
    config, task = build_setup(dict(CROSSING, max_frames=60))
    t = np.arange(31)
    xy = np.stack([np.full(31, 30.0), 20.0 - t], axis=1)
    at_0, at_end, at_start = (
        run(config, ScenarioFrameSet.from_rows("s", 10.0, [7] * 31, first + t, xy, {}), task)
        for first in (0, 2**63 - 31, -(2**63))
    )
    assert at_0.n_collide > 0 and math.isfinite(at_0.d_min)
    assert at_end == at_0 == at_start


@SETTINGS
@given(
    frames=scenes(),
    ego=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    rho0=st.sampled_from([0.5, 1.25, 5.0, 10.0, 17.75, 1000.0]),
)
def test_sensing_matches_the_dict_walk(frames, ego, rho0):
    ego = np.array(ego, dtype=np.float64) / 4.0
    # one agent exactly rho0 away, which must not be sensed
    frames.setdefault(3, {})[1000] = ego + [rho0, 0.0]
    scene = scene_from_frames(frames)
    for f in range(-6, 28):
        ids, positions = sensed_agents(scene, ego, rho0, f)
        assert ids.shape == (len(positions),) and positions.shape == (len(ids), 2)
        want = sensed_reference(frames, ego, rho0, f)
        assert list(zip(ids.tolist(), (p.tobytes() for p in positions))) == [
            (a, p.tobytes()) for a, p in want
        ]
    assert 1000 not in sensed_agents(scene, ego, rho0, 3)[0].tolist()


def reference_window_score(cbf, alpha, lam, predictions, ego, frames):
    """The per-agent scoring loop the grouped scoring replaced."""
    worst = None
    for i, p in sorted(predictions.items()):
        actual = future_window(frames, i, ego.start_frame, ego.n_samples, ego.dt)
        if actual is None:
            continue
        n = min(ego.n_samples, actual.n_samples, p.n_samples)
        if n < 2:
            continue
        loss = window_loss(
            cbf, alpha, p.positions[None, :n], actual.positions[None, :n],
            EgoWindow(ego.positions[:n], ego.dt), lam,
        )
        worst = loss if worst is None or loss > worst else worst
    return worst


def test_scoring_groups_match_one_call_per_agent():
    """The engine's grouped window scoring equals scoring each agent
    alone over its own prefix, as the per-agent loop did, for every
    agent on its own and for all of them together."""
    rng = np.random.default_rng(4)
    cfg = SimConfig(dt=0.1, k_rep=50.0, rho0=60.0)
    cbf, alpha = cfg.cbf, cfg.alpha_slope
    frames = {}
    spans = [(0, 12), (0, 3), (2, 7), (0, 1), (0, 12), (5, 9), (1, 13)]
    for agent_id, (first, last) in enumerate(spans):
        for f in range(first, last):
            frames.setdefault(f, {})[agent_id] = rng.uniform(20, 50, size=2)
    scene = scene_from_frames(frames)
    ego = [rng.uniform(0, 10, size=2) for _ in range(12)]
    scored = 0
    for window_start in (0, 1, 2):
        predictions = {
            i: Window(i, window_start, 0.1, rng.uniform(20, 50, size=(int(rng.integers(2, 14)), 2)))
            for i in range(len(spans))
        }
        ego_traj = Window(-1, window_start, 0.1, np.array(ego))
        for subset in [[i] for i in predictions] + [list(predictions)]:
            chosen = {i: predictions[i] for i in subset}
            want = reference_window_score(cbf, alpha, -0.3, chosen, ego_traj, frames)
            stacked = stack_reference(chosen)
            row, _, after = scene.runs_at(stacked.ids, window_start)
            revealed = np.minimum(after, len(ego))
            ended = EndedWindow(stacked, _run_samples(scene, row, revealed), revealed, np.array(ego))
            margin = replace(cfg, lambda_initial=-0.3).margin()
            window_step(cfg, margin, ended, None, window_start, ego[0])
            got = margin.loss_history[-1] if margin.loss_history else None
            assert got == want
            scored += want is not None
    assert scored > 10
