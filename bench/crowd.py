"""Seeded pedestrian crowd written in the ten-column drone-annotation layout.

Each line is ``track xmin ymin xmax ymax frame lost occluded generated "label"``
with integer pixel boxes, as in the Stanford Drone Dataset.  A fixed number
of pedestrian slots is kept busy for the whole clip: when a pedestrian
leaves the arena its slot starts a new track on the border, so the density
the ego meets does not depend on where or when it looks.  Pedestrians walk
piecewise-straight paths at walking pace with small box jitter.

Rows the parser must drop are mixed in: occlusion gaps written as rows
flagged lost (the rest of the gaps have no rows at all), and whole tracks
labelled Biker, Skater, Cart or Car.  Rows flagged occluded or generated but
not lost are kept, as the parser keeps them.

``generate`` returns the lines together with the pedestrian positions the
parser has to recover, so a check can compare the parsed scene exactly.
"""

import numpy as np

FPS = 30.0
OTHER_LABELS = ("Biker", "Skater", "Cart", "Car")


def generate(seed, *, agents=40, others=6, width=720, height=480, frames=540):
    """Lines of an annotation file and the pedestrian tracks they encode.

    Returns:
        (lines, expected) where expected maps frame -> {track: (x, y)} for
        every row that survives parsing (label Pedestrian, not lost).
    """
    rng = np.random.default_rng([int(seed), 0x5DD])
    lines = []
    expected = {}
    next_id = 1
    for slot in range(agents + others):
        pedestrian = slot < agents
        label = "Pedestrian" if pedestrian else OTHER_LABELS[slot % len(OTHER_LABELS)]
        speed = (25.0, 50.0) if pedestrian else (60.0, 120.0)
        frame = 0
        first = True
        while frame < frames:
            track = next_id
            next_id += 1
            path = _walk(rng, width, height, speed, inside=first)
            first = False
            n = min(path.shape[0], frames - frame)
            half = rng.integers(5, 12, size=2)
            gap = _gap(rng, n)
            for i in range(n):
                cx, cy = path[i]
                xmin = int(np.floor(cx - half[0]))
                ymin = int(np.floor(cy - half[1]))
                # boxes breathe by a pixel, so centres land on half pixels too
                xmax = xmin + 2 * int(half[0]) + int(rng.integers(0, 2))
                ymax = ymin + 2 * int(half[1]) + int(rng.integers(0, 2))
                f = frame + i
                lost = 0
                if gap is not None and gap[0] <= i < gap[1]:
                    if gap[2]:
                        continue  # occlusion with no rows at all
                    lost = 1
                occluded = int(lost or rng.random() < 0.05)
                generated = int(rng.random() < 0.1)
                lines.append(
                    f'{track} {xmin} {ymin} {xmax} {ymax} {f} {lost} {occluded} {generated} "{label}"'
                )
                if pedestrian and not lost:
                    expected.setdefault(f, {})[track] = (0.5 * (xmin + xmax), 0.5 * (ymin + ymax))
            # a short pause before the slot's next pedestrian walks in
            frame += n + int(rng.integers(1, 4))
    return lines, expected


def _walk(rng, width, height, speed, inside):
    """Positions at every frame along a two-leg path that ends off the arena."""
    if inside:
        start = rng.uniform([0.0, 0.0], [width, height])
    else:
        start = _border_point(rng, width, height)
    turn = rng.uniform([0.15 * width, 0.15 * height], [0.85 * width, 0.85 * height])
    end = _border_point(rng, width, height)
    # push the end point just outside the arena, away from its centre
    centre = np.array([0.5 * width, 0.5 * height])
    end = end + 20.0 * (end - centre) / np.linalg.norm(end - centre)
    step = rng.uniform(*speed) / FPS
    legs = [start, turn, end]
    out = [start]
    for a, b in zip(legs[:-1], legs[1:]):
        length = float(np.linalg.norm(b - a))
        k = max(int(length / step), 1)
        t = np.arange(1, k + 1)[:, None] / k
        out.extend(a + t * (b - a))
    return np.array(out)


def _border_point(rng, width, height):
    side = int(rng.integers(0, 4))
    u = rng.random()
    if side == 0:
        return np.array([u * width, 0.0])
    if side == 1:
        return np.array([u * width, float(height)])
    if side == 2:
        return np.array([0.0, u * height])
    return np.array([float(width), u * height])


def _gap(rng, n):
    """(start, end, drop_rows) of one occlusion inside a track, or None."""
    if n < 40 or rng.random() < 0.4:
        return None
    length = int(rng.integers(2, 11))
    start = int(rng.integers(10, n - length - 10))
    return start, start + length, bool(rng.random() < 0.5)


def max_present(expected):
    """Largest number of pedestrians present in one frame."""
    return max(len(row) for row in expected.values())
