"""Scene replay: annotation parsing, synthetic scenes, and the robot task.

A scene is one table of rows (track, frame, x, y) in pixel coordinates,
parsed from drone-footage annotation files or synthesized from waypoint
schedules.  The table is sorted by track, then frame, so an agent's
recorded path is contiguous: histories, futures and window scoring read
slices of it.  A frame index lists the table's rows by frame, then
track, so the agents present at a frame are one slice in id order:
rows_at returns it, for sensing.  The agents of a stretch of frames are
one slice too: rows_in returns it with where each frame starts in it, for
the engine's distance pass after a run.  Each index entry also holds its
table row and how many samples of its run (the stretch of consecutive
frames its track covers without a gap) lie up to and from its frame, so
runs_at finds the contiguous history or future of any set of agents at a
frame in one lookup, not a frame-by-frame walk.
Memory is proportional to the number of rows.

Annotation rows follow the ten-column layout

    track_id xmin ymin xmax ymax frame lost occluded generated "label"

where the position is taken as the bounding-box center, rows flagged
lost are dropped, and rows whose label is filtered out are ignored.
Every box center must be finite.
"""

import math
import string
import warnings
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import yaml

from conformal_cbf.dynamics import RobotState
from conformal_cbf.errors import ConfigError, InputError, ParseError

DEFAULT_LABEL_FILTER = ("Pedestrian",)
# libyaml's parser when present: a scene spec holds hundreds of waypoints
_SPEC_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioFrameSet:
    """Agent positions per frame, stored as a track table, plus labels.

    Built by from_rows from the table's columns; load_annotations and
    synth_scene do so.  labels maps agent_id -> label.  frames gives the
    frame index -> {agent_id -> (2,) position} mapping back, read-only,
    built on first access; the replay itself only uses the table
    queries.
    """

    @classmethod
    def from_rows(cls, scene_name, fps, track, frame, xy, labels):
        """Scene from table columns: integer track and frame per row and
        finite (n, 2) positions; at most one row per (track, frame)."""
        scene = cls.__new__(cls)
        scene._fill(scene_name, fps, track, frame, xy, labels)
        return scene

    def _fill(self, scene_name, fps, track, frame, xy, labels):
        if not (np.isfinite(fps) and fps > 0.0):
            raise InputError("fps must be positive and finite")
        self.scene_name = scene_name
        self.fps = fps
        self.labels = labels
        self._view = None
        track, frame = _int_column(track), _int_column(frame)
        by_track = np.lexsort((frame, track))
        track, frame = track[by_track], frame[by_track]
        same = track[1:] == track[:-1]
        twin = np.flatnonzero(same & (frame[1:] == frame[:-1]))
        if twin.size:
            i = twin[0]
            raise InputError(f"duplicate row for agent {track[i]} at frame {frame[i]}")
        # runs: maximal stretches of one track on consecutive frames
        cut = np.flatnonzero(~same | (frame[1:] != frame[:-1] + 1)) + 1
        start = np.concatenate(([0], cut)).astype(np.intp)
        end = np.concatenate((cut, [len(track)])).astype(np.intp)
        run_start = np.repeat(start, end - start)
        run_end = np.repeat(end, end - start)
        xy = np.asarray(xy, dtype=np.float64)
        if xy.shape != (len(track), 2) or not np.isfinite(xy).all():
            raise InputError("positions must be finite, one (x, y) per row")
        self.track_positions = xy[by_track]
        # the frame index, in (frame, track) order: each entry's track, its
        # table row and the samples of its run up to and from its frame
        row = np.lexsort((track, frame))
        self._track = track[row]
        self._runs = np.stack([row, row + 1 - run_start[row], run_end[row] - row], axis=1)
        self._frame_positions = self.track_positions[row]
        frame = frame[row]
        lo = [0] + (np.flatnonzero(frame[1:] != frame[:-1]) + 1).tolist() if len(frame) else []
        present = frame[lo].tolist()
        # frame -> (lo, hi) slice of the index, one entry per frame present
        self._at = dict(zip(present, zip(lo, lo[1:] + [len(frame)])))
        # the same slices as arrays: the frames present and where each one's
        # entries start, with the index's length last
        self._present = frame[lo]
        self._lo = np.array(lo + [len(frame)], dtype=np.intp)
        for a in (self.track_positions, self._track, self._runs, self._frame_positions,
                  self._present, self._lo):
            a.flags.writeable = False
        self.n_frames = len(present)
        self.start_frame = present[0] if present else 0
        self.end_frame = present[-1] + 1 if present else 0  # first frame past the data

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_view"] = None
        return state

    @property
    def dt(self) -> float:
        return 1.0 / self.fps

    @property
    def frames(self):
        """Read-only frame index -> {agent_id -> (2,) position}."""
        if self._view is None:
            view = {}
            for f in self._at:
                ids, pos = self.rows_at(f)
                view[f] = MappingProxyType(dict(zip(ids.tolist(), pos)))
            self._view = MappingProxyType(view)
        return self._view

    def rows_at(self, frame: int):
        """Ids (ascending) and (k, 2) positions of the agents at a frame."""
        lo, hi = self._at.get(frame, (0, 0))
        return self._track[lo:hi], self._frame_positions[lo:hi]

    def rows_in(self, first: int, stop: int):
        """The agents at the frames from first up to (not including) stop.

        Returns:
            (frames, starts, positions): the frames present, ascending;
            where each one's agents start in positions; and the (k, 2)
            positions of all of them, in frame order, then id order.
        """
        # the frames present before each bound, searched only inside them,
        # so a bound such as 2**63 never leaves the index's int64
        i, j = (
            0 if x <= self.start_frame else len(self._present) if x >= self.end_frame
            else np.searchsorted(self._present, x)
            for x in (first, stop)
        )
        lo = self._lo[i]
        return self._present[i:j], self._lo[i:j] - lo, self._frame_positions[lo:self._lo[j]]

    def runs_at(self, ids, frame: int):
        """Where each agent's contiguous run through a frame lies.

        Args:
            ids: agent ids, any order.

        Returns:
            (row, before, after) arrays aligned with ids: the agent's row
            at the frame in track_positions, the number of contiguous
            samples ending at the frame, and the number starting at it;
            -1, 0 and 0 for an agent absent at the frame.
        """
        ids = np.asarray(ids, dtype=self._track.dtype)
        absent = (-1, 0, 0)
        lo, hi = self._at.get(frame, (0, 0))
        if lo == hi:
            return np.full((len(ids), 3), absent).T
        k = lo + np.minimum(np.searchsorted(self._track[lo:hi], ids), hi - lo - 1)
        runs = self._runs[k]
        runs[self._track[k] != ids] = absent
        return runs.T


def _int_column(values) -> np.ndarray:
    """int64 when every value fits, else Python ints in an object array."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return np.asarray(values, dtype=np.int64)
    try:
        return np.array(values, dtype=np.int64).reshape(-1)
    except OverflowError:
        return np.array(values, dtype=object).reshape(-1)


@dataclass(frozen=True)
class RobotTask:
    """Start state, goal point, attraction gain, and arrival radius."""

    start: RobotState
    goal: np.ndarray
    attract_gain: float
    goal_radius: float

    def __post_init__(self):
        goal = np.asarray(self.goal, dtype=np.float64)
        if goal.shape != (2,) or not np.all(np.isfinite(goal)):
            raise InputError("goal must be a finite planar point")
        if not (np.isfinite(self.attract_gain) and self.attract_gain > 0.0):
            raise InputError("attract_gain must be positive and finite")
        if not (np.isfinite(self.goal_radius) and self.goal_radius >= 0.0):
            raise InputError("goal_radius must be nonnegative and finite")
        object.__setattr__(self, "goal", goal)


def reference_control(task: RobotTask, state: RobotState) -> np.ndarray:
    """Goal-attracting reference velocity: the descent direction of the
    quadratic attraction potential, attract_gain * (goal - position).

    It is evaluated on Python floats, coordinate by coordinate, with
    bitwise the result of the array expression (see dynamics)."""
    gain = task.attract_gain
    gx, gy = task.goal.tolist()
    px, py = state.position.tolist()
    return np.array([gain * (gx - px), gain * (gy - py)])


def load_annotations(
    path,
    label_filter=DEFAULT_LABEL_FILTER,
    fps: float = 30.0,
    scene_name: str | None = None,
) -> ScenarioFrameSet:
    """Parse an annotation file into a frame set.

    A file of plain ASCII tokens is parsed column-wise by numpy's C
    reader, which reads such tokens exactly as Python's int() and
    float() do; any token it refuses (an integer beyond int64, say)
    sends the file to the line-by-line parser.  That parser defines the
    format: it accepts the same files, gives the same table, and names
    the first bad line.

    Args:
        path: annotation text file in the ten-column layout above.
        label_filter: labels to keep, or None for all.
        fps: recording frame rate.
        scene_name: defaults to the file stem.

    Raises:
        ParseError: malformed row, non-finite box, duplicate (track,
            frame) or text that is not UTF-8; carries the 1-based line
            number.
    """
    keep = None if label_filter is None else set(label_filter)
    name = scene_name
    if name is None:
        name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    columns = _parse_plain(path, keep)
    scene = None
    if columns is not None:
        try:
            scene = ScenarioFrameSet.from_rows(name, fps, *columns)
        except InputError:
            pass  # a duplicate row: the line parser names its line
    if scene is None:
        scene = ScenarioFrameSet.from_rows(name, fps, *_parse_lines(path, keep))
    if not scene.n_frames:
        warnings.warn(f"no agents survived parsing {path}", stacklevel=2)
    return scene


# bytes of the files the column reader takes: tokens of these characters,
# split by spaces and tabs, cannot be read differently by numpy and Python
_PLAIN = (string.ascii_letters + string.digits + '+-."\t\r\n ').encode("ascii")
# numpy refuses a token out of its column's range, so narrow columns only
# send rare files (flags beyond int8) to the line parser; a label as long
# as its column may have been cut, so it does too
_PLAIN_ROW = np.dtype(
    [("track", np.int64)]
    + [(c, np.float64) for c in ("xmin", "ymin", "xmax", "ymax")]
    + [("frame", np.int64)]
    + [(c, np.int8) for c in ("lost", "occluded", "generated")]
    + [("label", "S24")]
)


def _parse_plain(path, keep):
    """Columns of a plain file, or None when it needs _parse_lines."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.translate(None, _PLAIN):
        return None
    if not raw.strip():
        return [], [], np.zeros((0, 2)), {}
    del raw  # numpy reads the file itself, with universal newlines
    try:
        rows = np.loadtxt(
            path, dtype=_PLAIN_ROW, comments=None, quotechar=None, ndmin=1,
            encoding="ascii",
        )
    except (ValueError, OverflowError):
        return None
    label = rows["label"]
    if np.strings.str_len(label).max() == label.itemsize:
        return None
    kept = rows["lost"] != 1
    label = np.strings.strip(label, b'"')
    if keep is not None:
        kept &= np.isin(label, [k.encode() for k in keep if isinstance(k, str)])
    label = label[kept]
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        x = 0.5 * (rows["xmin"] + rows["xmax"])
        y = 0.5 * (rows["ymin"] + rows["ymax"])
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return None
    xy = np.stack([x[kept], y[kept]], axis=1)
    track, frame = rows["track"][kept], rows["frame"][kept]
    del rows, x, y
    ids, first = np.unique(track, return_index=True)
    labels = dict(zip(ids.tolist(), (v.decode() for v in label[first].tolist())))
    return track, frame, xy, labels


def _parse_lines(path, keep):
    """Columns of any annotation file, line by line; raises ParseError at
    the first bad line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # universal newlines, as text-mode reading applies them
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {line}: not UTF-8 text", line=line) from None
    track, frame, xy = [], [], []
    labels: dict = {}
    seen = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 10:
            raise ParseError(
                f"line {lineno}: expected 10 columns, got {len(tokens)}",
                line=lineno,
            )
        try:
            t = int(tokens[0])
            xmin, ymin, xmax, ymax = (float(v) for v in tokens[1:5])
            f = int(tokens[5])
            lost = int(tokens[6])
            int(tokens[7])
            int(tokens[8])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}", line=lineno) from None
        center = (0.5 * (xmin + xmax), 0.5 * (ymin + ymax))
        if not (math.isfinite(center[0]) and math.isfinite(center[1])):
            raise ParseError(f"line {lineno}: box center is not finite", line=lineno)
        label = tokens[9].strip('"')
        if lost == 1 or (keep is not None and label not in keep):
            continue
        if (t, f) in seen:
            raise ParseError(
                f"line {lineno}: duplicate row for agent {t} at frame {f}",
                line=lineno,
            )
        seen.add((t, f))
        track.append(t)
        frame.append(f)
        xy.append(center)
        labels.setdefault(t, label)
    return track, frame, np.array(xy, dtype=np.float64).reshape(-1, 2), labels


def sensed_agents(scene: ScenarioFrameSet, ego_position, rho0: float, frame: int):
    """Ids (ascending) and (k, 2) positions of the agents at a frame
    strictly inside the sensing radius.  An agent exactly at distance rho0
    is not sensed."""
    if not (np.isfinite(rho0) and rho0 > 0.0):
        raise InputError("rho0 must be positive and finite")
    ids, pos = scene.rows_at(frame)
    apart = pos - np.asarray(ego_position, dtype=np.float64)
    near = np.sqrt(np.vecdot(apart, apart)) < rho0
    return ids[near], pos[near]


def synth_scene(spec: dict) -> ScenarioFrameSet:
    """Build a scene from waypoint schedules.

    The spec is a mapping with scene_name, fps, duration, and agents;
    each agent has id, label, and waypoints as [time_s, [x, y]] pairs
    with strictly increasing times.  Positions are piecewise-linear
    between waypoints and the agent is present only inside its schedule.

    Raises:
        ConfigError: missing keys, bad values, or a non-monotone schedule.
    """
    try:
        name = str(spec["scene_name"])
        fps = float(spec["fps"])
        duration = float(spec["duration"])
        agents = spec["agents"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scene spec: {exc}") from None
    if not (np.isfinite(fps) and fps > 0.0):
        raise ConfigError("fps must be positive")
    if not (np.isfinite(duration) and duration > 0.0):
        raise ConfigError("duration must be positive")

    track: list = []
    frame: list = []
    xy = []
    labels: dict[int, str] = {}
    seen = set()
    for entry in agents:
        try:
            agent_id = int(entry["id"])
            label = str(entry.get("label", "Pedestrian"))
            waypoints = entry["waypoints"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad agent entry: {exc}") from None
        if agent_id in seen:
            raise ConfigError(f"duplicate agent id {agent_id}")
        seen.add(agent_id)
        if len(waypoints) < 2:
            raise ConfigError(f"agent {agent_id} needs at least 2 waypoints")
        times = np.array([float(w[0]) for w in waypoints])
        points = np.array([[float(w[1][0]), float(w[1][1])] for w in waypoints])
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(points)):
            raise ConfigError(f"agent {agent_id} has non-finite waypoints")
        if np.any(np.diff(times) <= 0.0):
            raise ConfigError(
                f"agent {agent_id} has a non-monotone waypoint schedule"
            )
        labels[agent_id] = label
        t = np.arange(int(round(duration * fps)) + 1) / fps
        present = np.flatnonzero((t >= times[0]) & (t <= times[-1]))
        track += [agent_id] * len(present)
        frame += present.tolist()
        xy.append(np.stack([
            np.interp(t[present], times, points[:, 0]),
            np.interp(t[present], times, points[:, 1]),
        ], axis=1))
    xy = np.concatenate(xy) if xy else np.zeros((0, 2))
    return ScenarioFrameSet.from_rows(name, fps, track, frame, xy, labels)


def load_scene_spec(path) -> dict:
    """Read a YAML scene spec; validation happens in synth_scene."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = yaml.load(fh, Loader=_SPEC_LOADER)
        except (yaml.YAMLError, ValueError) as exc:
            # ValueError: a value Python refuses, such as an int of 4301 digits
            raise ParseError(f"bad scene spec file {path}: {exc}") from None
    if not isinstance(spec, dict):
        raise ParseError(f"scene spec {path} is not a mapping")
    return spec
