"""The scene: annotation parsing, synthetic scenes and the track table.

A scene is one table of rows (track, frame, x, y) in pixel coordinates,
parsed from drone-footage annotation files or synthesized from waypoint
schedules.  The table is sorted by track, then frame, so an agent's
recorded path is contiguous: histories, futures and window scoring read
slices of it.  A frame index lists the table's rows by frame, then
track, so the agents present at a frame are one slice in id order.  Each
index entry holds its agent's run: its table row and how many samples of
its run (the stretch of consecutive frames its track covers without a
gap) end and start at its frame.  rows_at returns the slice, runs
included, so sensing an agent also finds its contiguous history and
future, with no frame-by-frame walk.  The agents of a stretch of frames
are one slice too: rows_in returns it with where each frame starts in
it, for the engine's distance pass after a run.
Memory is proportional to the number of rows.  The robot, its task and
its sensing rule live in engine; this module imports nothing of the
package but errors, so a scene knows nothing of who replays it.

Annotation rows follow the ten-column layout

    track_id xmin ymin xmax ymax frame lost occluded generated "label"

where the position is taken as the bounding-box center, rows flagged
lost are dropped, and rows whose label is filtered out are ignored.
Every box center must be finite.

record_table parses a file and writes the columns it checked beside it,
at the file's path plus TABLE_SUFFIX, with the digest of the file's bytes
and the label filter.  load_annotations reads that table in place of the
file while both still match; without a matching table it parses.
"""

import contextlib
import json
import math
import os
import string
import warnings
from types import MappingProxyType

import numpy as np

from conformal_cbf.errors import InputError, ParseError, floats, integer, point, scalar

DEFAULT_LABEL_FILTER = ("Pedestrian",)
# the checked table of an annotation file sits at its path plus this
TABLE_SUFFIX = ".table.npz"
# bumped when the table's contents change meaning
_TABLE_FORMAT = 1


class ScenarioFrameSet:
    """Agent positions per frame, stored as a track table, plus labels.

    Built from the table's columns: integer track and frame per row and
    finite (n, 2) positions, at most one row per (track, frame);
    load_annotations and synth_scene build it so.  labels maps agent_id
    -> label.  frames gives the frame index -> {agent_id -> (2,)
    position} mapping back, read-only, built on first access; the replay
    itself only uses the table queries.
    """

    def __init__(self, scene_name, fps, track, frame, xy, labels):
        scalar("fps", fps, "positive")
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
        xy = floats("xy", xy)
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
                ids, pos, _ = self.rows_at(f)
                view[f] = MappingProxyType(dict(zip(ids.tolist(), pos)))
            self._view = MappingProxyType(view)
        return self._view

    def rows_at(self, frame: int):
        """The agents at a frame: ids (ascending), (k, 2) positions and
        (k, 3) runs.  An agent's run is its row in track_positions and the
        numbers of contiguous samples that end at the frame and that
        start at it."""
        lo, hi = self._at.get(frame, (0, 0))
        return self._track[lo:hi], self._frame_positions[lo:hi], self._runs[lo:hi]

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


def _int_column(values) -> np.ndarray:
    """int64 when every value fits, else Python ints in an object array."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return np.asarray(values, dtype=np.int64)
    try:
        return np.array(values, dtype=np.int64).reshape(-1)
    except OverflowError:
        return np.array(values, dtype=object).reshape(-1)


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
    the first bad line.  The file is read once, and the parse works on
    its bytes.

    When record_table has left a table beside the file, and the file
    still holds the bytes the table was made from and label_filter keeps
    the labels it kept, the table's columns are read in place of the
    file's.  They build the frame set through its constructor, so every
    check of the columns still runs.  A missing, outdated, unreadable or
    malformed table is ignored, and this function never writes one.

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
    name = _stem(path) if scene_name is None else scene_name
    table = str(path) + TABLE_SUFFIX
    raw = _read(path)
    # a file never recorded pays this one test, and no digest
    scene = _recorded(table, raw, keep, name, fps) if os.path.exists(table) else None
    if scene is None:
        scene = _parse(raw, keep, name, fps)[0]
    if not scene.n_frames:
        warnings.warn(f"no agents survived parsing {path}", stacklevel=2)
    return scene


def record_table(path):
    """Parse an annotation file as load_annotations does with its
    defaults, never from a table, and record the checked table beside it.

    The table, at the file's path plus TABLE_SUFFIX, holds the track,
    frame and position columns and the labels the parse built the frame
    set from, the SHA-256 digest of the file's bytes and the label
    filter.  It is written to a temporary file in the same directory and
    then moved over the old table, so a reader finds one whole table or
    the other.  The file is read once, and the table is built from the
    bytes it digests.  A file whose track or frame numbers do not all fit
    int64 gets none.

    Returns:
        (scene, unrecorded): the frame set, and None once the table is
        written, else why it was not (a failed write's OSError among
        them), as one line.

    Raises:
        ParseError: as load_annotations; no table is written then.
    """
    keep = set(DEFAULT_LABEL_FILTER)
    raw = _read(path)
    # load_annotations' default scene name and fps
    scene, (track, frame, xy, labels) = _parse(raw, keep, _stem(path), 30.0)
    if not scene.n_frames:
        warnings.warn(f"no agents survived parsing {path}", stacklevel=2)
    track, frame = _int_column(track), _int_column(frame)
    if track.dtype != np.int64 or frame.dtype != np.int64:
        return scene, "a track or frame number does not fit int64"
    meta = {
        "format": _TABLE_FORMAT,
        "sha256": _digest(raw),
        "filter": _filter_key(keep),
        "labels": list(labels.items()),
    }
    table = str(path) + TABLE_SUFFIX
    part = f"{table}.{os.getpid()}.part"
    try:
        with open(part, "wb") as fh:
            np.savez(
                fh, track=track, frame=frame, xy=xy,
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )
        os.replace(part, table)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(part)
        return scene, str(exc)
    return scene, None


def _stem(path) -> str:
    return str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]


def _parse(raw, keep, name, fps):
    """The frame set of a file's bytes, parsed, and the columns it was
    built from."""
    columns = _parse_plain(raw, keep)
    if columns is not None:
        try:
            return ScenarioFrameSet(name, fps, *columns), columns
        except InputError:
            pass  # a duplicate row: the line parser names its line
    columns = _parse_lines(raw, keep)
    return ScenarioFrameSet(name, fps, *columns), columns


def _recorded(table, raw, keep, name, fps):
    """The frame set of the table of a file holding raw, or None when the
    table was made from other bytes or another label filter, or is
    damaged."""
    try:
        # np.load leaves a file it opened itself open when the zip is bad
        with open(table, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            meta = json.loads(npz["meta"].tobytes())
            if (meta["format"], meta["filter"]) != (_TABLE_FORMAT, _filter_key(keep)):
                return None
            if meta["sha256"] != _digest(raw):
                return None
            track, frame, xy = npz["track"], npz["frame"], npz["xy"]
            labels = dict(meta["labels"])
    except Exception:
        # a damaged table raises any of a dozen types from zipfile, numpy
        # and json (BadZipFile, EOFError, NotImplementedError, KeyError,
        # ...); the table is only a copy, so the file decides then
        return None
    if track.dtype != np.int64 or frame.dtype != np.int64 or (
        track.ndim != 1 or frame.shape != track.shape
    ):
        return None
    try:
        return ScenarioFrameSet(name, fps, track, frame, xy, labels)
    except InputError:
        return None


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _digest(raw: bytes) -> str:
    import hashlib  # about 3 ms to import, paid only where a table is

    return hashlib.sha256(raw).hexdigest()


def _filter_key(keep):
    """The labels a filter can keep, as the table records them: only
    strings match a label."""
    return None if keep is None else sorted(k for k in keep if isinstance(k, str))


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


def _parse_plain(raw, keep):
    """Columns of a plain file's bytes, or None when they need
    _parse_lines."""
    if raw.translate(None, _PLAIN):
        return None
    if not raw.strip():
        return [], [], np.zeros((0, 2)), {}
    try:
        # on these bytes splitlines breaks lines where universal newlines do
        rows = np.loadtxt(
            raw.decode("ascii").splitlines(), dtype=_PLAIN_ROW, comments=None,
            quotechar=None, ndmin=1, encoding="ascii",
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


def _parse_lines(raw, keep):
    """Columns of any annotation file's bytes, line by line; raises
    ParseError at the first bad line."""
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


def synth_scene(spec: dict) -> ScenarioFrameSet:
    """Build a scene from waypoint schedules.

    The spec is a mapping with scene_name (a string), fps, duration, and
    agents; each agent has id, label (a string, Pedestrian when left
    out), and waypoints as [time_s, [x, y]] pairs with strictly
    increasing times.  Positions are piecewise-linear between waypoints
    and the agent is present only inside its schedule.

    Raises:
        InputError: missing keys, bad values, a malformed agent entry or
            waypoint, a non-monotone schedule, a duration and fps whose
            frame grid numpy refuses to build, or waypoints whose
            interpolation leaves the float range.  An agent's message
            names it as agents[i].
    """
    try:
        name = spec["scene_name"]
        fps, duration = (float(scalar(k, spec[k], "positive")) for k in ("fps", "duration"))
        agents = spec["agents"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad scene spec: {exc}") from None
    if not isinstance(name, str):
        raise InputError("scene_name must be a string")
    if not isinstance(agents, (list, tuple)):
        raise InputError("agents must be a list of agent entries")
    try:
        t = np.arange(int(round(duration * fps)) + 1) / fps
    except (ValueError, OverflowError, MemoryError):
        raise InputError(
            "duration * fps must give a frame grid that numpy can build"
        ) from None

    track: list = []
    frame: list = []
    xy = []
    labels: dict[int, str] = {}
    seen = set()
    for i, entry in enumerate(agents):
        key = f"agents[{i}]"
        try:
            agent_id = integer(f"{key} id", entry["id"])
            label = entry.get("label", "Pedestrian")
            if not isinstance(label, str):
                raise InputError(f"{key} label must be a string")
            waypoints = entry["waypoints"]
            times = np.array([scalar(f"{key} waypoint time", w[0]) for w in waypoints],
                             dtype=np.float64)
            points = np.array([point(f"{key} waypoint", w[1]) for w in waypoints])
        except (KeyError, TypeError, IndexError) as exc:
            raise InputError(f"bad {key} entry: {exc}") from None
        if agent_id in seen:
            raise InputError(f"{key} repeats agent id {agent_id}")
        seen.add(agent_id)
        if len(waypoints) < 2:
            raise InputError(f"{key} needs at least 2 waypoints")
        # not np.diff, which overflows between times of opposite sign
        if np.any(times[1:] <= times[:-1]):
            raise InputError(f"{key} has a non-monotone waypoint schedule")
        labels[agent_id] = label
        present = np.flatnonzero((t >= times[0]) & (t <= times[-1]))
        track += [agent_id] * len(present)
        frame += present.tolist()
        path = np.stack([
            np.interp(t[present], times, points[:, 0]),
            np.interp(t[present], times, points[:, 1]),
        ], axis=1)
        if not np.isfinite(path).all():
            raise InputError(f"{key} waypoints interpolate to positions past the float range")
        xy.append(path)
    xy = np.concatenate(xy) if xy else np.zeros((0, 2))
    return ScenarioFrameSet(name, fps, track, frame, xy, labels)
