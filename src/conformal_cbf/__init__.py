"""Conformal control barrier function safety filtering.

A robot tracks a goal among dynamic agents whose future motion is only
available through a predictor.  Barrier constraints built from the
predictions are slackened by an online-calibrated margin so that the
average constraint-surrogate loss is steered to a chosen risk level.
The package provides the barrier/constraint algebra, the projection QP,
the online calibration rule with its certificates, trajectory
predictors, scenario replay, the closed-loop simulator, and a CLI.
Each name is imported from its own module; this file imports nothing,
so importing one module loads only what that module needs.
"""

__version__ = "0.1.0"
