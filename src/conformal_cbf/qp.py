"""Projection of a reference velocity onto the safety polygon.

The per-step problem is

    min_u ||u - u_ref||^2   s.t.   a_i . u + b_i >= 0  for every row i

over a planar u: the Euclidean projection of the reference onto a convex
polygon.  It is solved exactly.  If the reference satisfies every row it
is the answer.  Otherwise the optimum lies on the line of some row the
reference violates: writing u* - u_ref = sum mu_j a_j over the rows
active at u* (mu_j >= 0, not all zero) gives
|u* - u_ref|^2 = -sum mu_j (a_j . u_ref + b_j), so some active row with
mu_j > 0 is violated at u_ref.  On that line the optimum is the
reference's foot point clipped to the interval the other rows allow, and
every such clipped point is feasible, so the nearest clipped point over
the violated rows is the projection.  No violated row with a nonempty
interval means the polygon is empty, which surfaces as a distinct
infeasibility error rather than a silently relaxed answer.

Rows are normalized internally so tolerances are scale-free; results are
reported against the original rows.  The search over the violated rows
is one pass of array calls: their normals and distances are gathered
once, and every foot point, interval and cost comes from them.  A frame
has only a few rows, so the cost of solve is its fixed count of numpy
calls; it calls the ufunc reductions (np.maximum.reduce and the like)
directly, since both the np.max-style functions and the ndarray.max-style
methods reach them through a Python-level wrapper.  A problem without
rows returns its reference at once.

Each value is checked once, where it enters.  QpProblem(...) checks the
shapes and finiteness of what it is given, so solve and
solve_with_relaxation trust the problem they receive.  The closed loop
builds its per-frame problem with unchecked_problem from rows it has
already checked (see engine), and solve_with_relaxation builds its
inflated attempts the same way, checking only the one value it makes:
the inflated offsets, which can overflow.
"""

from dataclasses import dataclass

import numpy as np

from conformal_cbf.barrier import AffineConstraint
from conformal_cbf.errors import InfeasibleError, InputError, integer, scalar

# Residuals within this band of zero count as active.
ACTIVE_TOL = 1e-8
# Norm below which a row is treated as having a zero normal.
_ZERO_NORMAL = 1e-300
# Sine of the angle below which two rows count as parallel.
_PARALLEL = 1e-12
# Turns a row's unit normal a quarter turn, onto the row's line.
_QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])
NOT_FINITE = "reference and rows must be finite"
# the reductions ndarray.any and ndarray.all reach through a Python wrapper
_any, _all = np.logical_or.reduce, np.logical_and.reduce


@dataclass(frozen=True)
class QpProblem:
    """Reference decision plus the rows normals[i] . u + offsets[i] >= 0,
    each labelled with the id of the agent it comes from."""

    reference: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    ids: np.ndarray

    def __init__(self, reference, normals, offsets, ids):
        ref = np.asarray(reference, dtype=np.float64)
        a = np.asarray(normals, dtype=np.float64)
        b = np.asarray(offsets, dtype=np.float64)
        ids = np.asarray(ids)
        if ref.shape != (2,):
            raise InputError("reference must be a planar vector")
        if a.ndim != 2 or a.shape[1] != 2 or b.shape != (len(a),) or ids.shape != b.shape:
            raise InputError("rows need (m, 2) normals and (m,) offsets and ids")
        if not np.isfinite(np.concatenate([ref, a.ravel(), b])).all():
            raise InputError(NOT_FINITE)
        object.__setattr__(self, "reference", ref)
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)
        object.__setattr__(self, "ids", ids)

    @property
    def constraints(self) -> tuple:
        """The rows as AffineConstraint objects, built on each access."""
        return tuple(
            AffineConstraint(normal=n, offset=b, agent_id=i)
            for n, b, i in zip(self.normals, self.offsets.tolist(), self.ids.tolist())
        )


def unchecked_problem(reference, normals, offsets, ids) -> QpProblem:
    """QpProblem for a caller that has already checked its arrays.

    reference must be a finite float64 (2,) array, normals a finite
    float64 (m, 2) array, offsets a finite float64 (m,) array and ids an
    (m,) array; nothing is checked or copied.
    """
    problem = object.__new__(QpProblem)
    # a frozen dataclass refuses setattr, not an update of its __dict__
    vars(problem).update(reference=reference, normals=normals, offsets=offsets, ids=ids)
    return problem


@dataclass(frozen=True)
class QpSolution:
    """Optimal decision of the problem solved."""

    decision: np.ndarray


def solve(problem: QpProblem) -> QpSolution:
    """Exact projection onto the constraint polygon.

    Raises:
        InfeasibleError: the polygon is empty.
    """
    ref = problem.reference
    a, b = problem.normals, problem.offsets
    if not len(b):
        return QpSolution(ref.copy())

    # Zero-normal rows constrain nothing or everything.  The row norms
    # are computed as np.linalg.norm(a, axis=1) computes them.
    norms = np.sqrt(np.add.reduce(a * a, axis=1))
    zero = norms <= _ZERO_NORMAL
    if _any(zero):
        if _any(b[zero] < -ACTIVE_TOL):
            raise InfeasibleError("zero-normal row with negative offset")
        a, b, norms = a[~zero], b[~zero], norms[~zero]
    a = a / norms[:, None]
    b = b / norms
    tol = 1e-9 / np.maximum.reduce(norms, initial=1.0)

    dist = a @ ref + b
    violated = dist < -tol
    if not _any(violated):
        return QpSolution(ref.copy())

    # Foot points on the violated rows' lines, and the lines' directions.
    av, dv = a[violated], dist[violated]
    foot = ref - dv[:, None] * av
    along = av @ _QUARTER_TURN
    # Row j at foot + t * along reads slope[v, j] * t + level[v, j] >= 0; a
    # row parallel to the line bounds no t and is only checked below.
    slope = along @ a.T
    level = foot @ a.T + b
    rising, falling = slope > _PARALLEL, slope < -_PARALLEL
    bound = -level / np.where(rising | falling, slope, 1.0)
    lo = np.maximum.reduce(np.where(rising, bound, -np.inf), axis=1)
    hi = np.minimum.reduce(np.where(falling, bound, np.inf), axis=1)
    t = np.minimum(np.maximum(0.0, lo), hi)
    ok = _all(slope * t[:, None] + level >= -tol, axis=1)
    if not _any(ok):
        raise InfeasibleError("constraint polygon is empty")
    # |candidate - ref|^2 = dist^2 + t^2 on each line
    cost = np.where(ok, dv**2 + t * t, np.inf)
    best = int(cost.argmin())
    return QpSolution(foot[best] + t[best] * along[best])


def solve_with_relaxation(
    problem: QpProblem, lambda_step: float, max_steps: int
) -> tuple[QpSolution, float]:
    """Solve, loosening all offsets in multiples of lambda_step if needed.

    Attempt k inflates every offset by k * lambda_step, k = 0..max_steps,
    and the first feasible attempt wins, so the reported inflation is the
    smallest multiple that worked.  The problem is trusted as it is; of
    an inflated attempt only the new offsets are checked.

    Returns:
        (solution, inflation); inflation is 0.0 when no loosening was
        needed.

    Raises:
        InputError: an inflated attempt's offsets overflow.
        InfeasibleError: still empty at the largest inflation.
    """
    scalar("lambda_step", lambda_step, InputError, "positive")
    integer("max_steps", max_steps, InputError, 0)
    attempt = problem
    for k in range(max_steps + 1):
        inflation = k * lambda_step
        if k:
            offsets = problem.offsets + inflation
            if not _all(np.isfinite(offsets)):
                raise InputError(NOT_FINITE)
            attempt = unchecked_problem(problem.reference, problem.normals, offsets, problem.ids)
        try:
            return solve(attempt), inflation
        except InfeasibleError:
            pass
    raise InfeasibleError(
        f"still infeasible after {max_steps} relaxation steps of {lambda_step}"
    )
