"""Conformal control barrier function safety filtering.

A robot tracks a goal among dynamic agents whose future motion is only
available through a predictor.  Barrier constraints built from the
predictions are slackened by an online-calibrated margin so that the
average constraint-surrogate loss is steered to a chosen risk level.
The package provides the barrier/constraint algebra, the projection QP,
the online calibration rule with its certificates, trajectory
predictors, scenario replay, the closed-loop simulator, and a CLI.
"""

from conformal_cbf.errors import (
    ConfigError,
    InfeasibleError,
    InfeasibleRunError,
    InputError,
    ParseError,
    SingularityError,
)
from conformal_cbf.engine import RobotTask, RunMetrics, SimConfig, SweepRow, run, sweep
from conformal_cbf.scenario import ScenarioFrameSet, load_annotations

__all__ = [
    "ConfigError",
    "InfeasibleError",
    "InfeasibleRunError",
    "InputError",
    "ParseError",
    "RobotTask",
    "RunMetrics",
    "ScenarioFrameSet",
    "SimConfig",
    "SingularityError",
    "SweepRow",
    "load_annotations",
    "run",
    "sweep",
]

__version__ = "0.1.0"
