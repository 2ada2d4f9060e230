"""Scene replay: annotation parsing, synthetic scenes, and the robot task.

Scenes are frame-indexed sets of agent positions in pixel coordinates,
either parsed from drone-footage annotation files or synthesized from
waypoint schedules.  Annotation rows follow the ten-column layout

    track_id xmin ymin xmax ymax frame lost occluded generated "label"

where the position is taken as the bounding-box center, rows flagged
lost are dropped, and rows whose label is filtered out are ignored.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import yaml

from conformal_cbf.dynamics import RobotState
from conformal_cbf.errors import ConfigError, InputError, ParseError
from conformal_cbf.predictor import SampledTrajectory

DEFAULT_LABEL_FILTER = ("Pedestrian",)
# libyaml's parser when present: a scene spec holds hundreds of waypoints
_SPEC_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class ScenarioFrameSet:
    """Agent positions per frame, plus agent labels for serialization.

    frames maps frame index -> {agent_id -> (2,) position}; labels maps
    agent_id -> label.  Frames with no agents simply have no entry.
    """

    scene_name: str
    fps: float
    frames: dict
    labels: dict

    def __post_init__(self):
        if not (np.isfinite(self.fps) and self.fps > 0.0):
            raise InputError("fps must be positive and finite")

    @property
    def dt(self) -> float:
        return 1.0 / self.fps

    @property
    def start_frame(self) -> int:
        return min(self.frames) if self.frames else 0

    @property
    def end_frame(self) -> int:
        """First frame past the recorded range."""
        return max(self.frames) + 1 if self.frames else 0

    def agents_at(self, frame: int) -> dict:
        return self.frames.get(frame, {})

    def history_of(
        self, agent_id: int, end_frame: int, max_frames: int
    ) -> SampledTrajectory | None:
        """Longest contiguous presence of the agent ending right before
        end_frame, capped at max_frames samples."""
        rows = []
        frame = end_frame - 1
        while frame >= end_frame - max_frames:
            pos = self.frames.get(frame, {}).get(agent_id)
            if pos is None:
                break
            rows.append(pos)
            frame -= 1
        if not rows:
            return None
        rows.reverse()
        return SampledTrajectory(
            agent_id=agent_id,
            start_frame=frame + 1,
            dt=self.dt,
            positions=np.array(rows),
        )

    def future_of(
        self, agent_id: int, start_frame: int, max_frames: int
    ) -> SampledTrajectory | None:
        """Contiguous presence of the agent from start_frame on, capped
        at max_frames samples."""
        rows = []
        frame = start_frame
        while frame < start_frame + max_frames:
            pos = self.frames.get(frame, {}).get(agent_id)
            if pos is None:
                break
            rows.append(pos)
            frame += 1
        if not rows:
            return None
        return SampledTrajectory(
            agent_id=agent_id,
            start_frame=start_frame,
            dt=self.dt,
            positions=np.array(rows),
        )


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
    quadratic attraction potential, attract_gain * (goal - position)."""
    return task.attract_gain * (task.goal - state.position)


def load_annotations(
    path,
    label_filter=DEFAULT_LABEL_FILTER,
    fps: float = 30.0,
    scene_name: str | None = None,
) -> ScenarioFrameSet:
    """Parse an annotation file into a frame set.

    Args:
        path: annotation text file in the ten-column layout above.
        label_filter: labels to keep, or None for all.
        fps: recording frame rate.
        scene_name: defaults to the file stem.

    Raises:
        ParseError: malformed row; carries the 1-based line number.
    """
    frames: dict[int, dict] = {}
    labels: dict[int, str] = {}
    keep = None if label_filter is None else set(label_filter)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            tokens = text.split()
            if len(tokens) != 10:
                raise ParseError(
                    f"line {lineno}: expected 10 columns, got {len(tokens)}",
                    line=lineno,
                )
            try:
                track = int(tokens[0])
                xmin, ymin, xmax, ymax = (float(t) for t in tokens[1:5])
                frame = int(tokens[5])
                lost = int(tokens[6])
                int(tokens[7])
                int(tokens[8])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}", line=lineno) from None
            label = tokens[9].strip('"')
            if lost == 1:
                continue
            if keep is not None and label not in keep:
                continue
            row = frames.setdefault(frame, {})
            if track in row:
                raise ParseError(
                    f"line {lineno}: duplicate row for agent {track} at frame {frame}",
                    line=lineno,
                )
            row[track] = np.array([0.5 * (xmin + xmax), 0.5 * (ymin + ymax)])
            labels.setdefault(track, label)
    if not frames:
        warnings.warn(f"no agents survived parsing {path}", stacklevel=2)
    name = scene_name
    if name is None:
        name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return ScenarioFrameSet(scene_name=name, fps=fps, frames=frames, labels=labels)


def save_annotations(scene: ScenarioFrameSet, path) -> None:
    """Write the frame set back out in the annotation layout.

    Positions are stored as zero-area boxes with full float precision,
    so loading the file again reproduces the frame set exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for frame in sorted(scene.frames):
            row = scene.frames[frame]
            for agent_id in sorted(row):
                x, y = (float(v) for v in row[agent_id])
                label = scene.labels.get(agent_id, "Pedestrian")
                fh.write(
                    f"{agent_id} {x!r} {y!r} {x!r} {y!r} {frame} 0 0 0 \"{label}\"\n"
                )


def sensed_agents(
    scene: ScenarioFrameSet, ego_position, rho0: float, frame: int
) -> list:
    """(agent_id, position) pairs strictly inside the sensing radius,
    ordered by agent id.  An agent exactly at distance rho0 is not sensed."""
    if not (np.isfinite(rho0) and rho0 > 0.0):
        raise InputError("rho0 must be positive and finite")
    ego = np.asarray(ego_position, dtype=np.float64)
    out = []
    for agent_id in sorted(scene.agents_at(frame)):
        pos = scene.frames[frame][agent_id]
        if float(np.linalg.norm(pos - ego)) < rho0:
            out.append((agent_id, pos))
    return out


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

    frames: dict[int, dict] = {}
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
        xs = np.interp(t[present], times, points[:, 0])
        ys = np.interp(t[present], times, points[:, 1])
        for frame, x, y in zip(present.tolist(), xs.tolist(), ys.tolist()):
            frames.setdefault(frame, {})[agent_id] = np.array([x, y])
    return ScenarioFrameSet(scene_name=name, fps=fps, frames=frames, labels=labels)


def load_scene_spec(path) -> dict:
    """Read a YAML scene spec; validation happens in synth_scene."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = yaml.load(fh, Loader=_SPEC_LOADER)
        except yaml.YAMLError as exc:
            raise ParseError(f"bad scene spec file {path}: {exc}") from None
    if not isinstance(spec, dict):
        raise ParseError(f"scene spec {path} is not a mapping")
    return spec
