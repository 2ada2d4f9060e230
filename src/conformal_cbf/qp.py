"""Projection of a reference velocity onto the safety polyhedron.

The per-step problem is

    min_u ||u - u_ref||^2   s.t.   a_i . u + b_i >= 0  for every row i

a strictly convex QP whose solution is the Euclidean projection of the
reference onto the feasible set.  It is solved exactly by a dual
active-set method: start from the unconstrained optimum, repeatedly pick
a violated row, and step toward its plane while trading off working-set
rows whose multipliers would go negative.  Multipliers stay nonnegative
throughout, every working set is visited at most once, and an empty
polyhedron surfaces as a distinct infeasibility error rather than a
silently relaxed answer.

Rows are normalized internally so tolerances are scale-free; results are
reported against the original rows.
"""

from dataclasses import dataclass

import numpy as np

from conformal_cbf.barrier import AffineConstraint
from conformal_cbf.errors import InfeasibleError, InputError

# Residuals within this band of zero count as active.
ACTIVE_TOL = 1e-8
# Norm below which a row is treated as having a zero normal.
_ZERO_NORMAL = 1e-300
# Squared norm below which a candidate normal is dependent on the working set.
_DEP_TOL = 1e-12
_DUAL_TOL = 1e-12


@dataclass(frozen=True)
class QpProblem:
    """Reference decision plus the affine rows constraining it."""

    reference: np.ndarray
    constraints: tuple

    def __init__(self, reference, constraints):
        ref = np.asarray(reference, dtype=np.float64)
        if ref.shape != (2,):
            raise InputError("reference must be a planar vector")
        if not np.all(np.isfinite(ref)):
            raise InputError("reference must be finite")
        rows = tuple(constraints)
        for row in rows:
            if not isinstance(row, AffineConstraint):
                raise InputError("constraints must be AffineConstraint rows")
        object.__setattr__(self, "reference", ref)
        object.__setattr__(self, "constraints", rows)


@dataclass(frozen=True)
class QpSolution:
    """Optimal decision with the rows active there.

    relaxation_used is None for a plain solve and carries the offset
    inflation when the relaxing wrapper had to loosen the rows.
    """

    decision: np.ndarray
    active_set: tuple
    relaxation_used: float | None = None


def solve(problem: QpProblem) -> QpSolution:
    """Exact projection onto the constraint polyhedron.

    Raises:
        InfeasibleError: the polyhedron is empty.
    """
    ref = problem.reference
    rows = problem.constraints
    if not rows:
        return QpSolution(decision=ref.copy(), active_set=())

    normals = np.array([row.normal for row in rows])
    offsets = np.array([row.offset for row in rows])
    norms = np.linalg.norm(normals, axis=1)

    def active_ids(u):
        # row by row this is AffineConstraint.residual, bit for bit
        resid = np.abs(np.vecdot(normals, u) + offsets)
        return tuple(rows[i].agent_id for i in np.flatnonzero(resid <= ACTIVE_TOL))

    # Zero-normal rows constrain nothing or everything.
    degenerate = norms <= _ZERO_NORMAL
    if np.any(degenerate):
        if np.any(offsets[degenerate] < -ACTIVE_TOL):
            raise InfeasibleError("zero-normal row with negative offset")
        keep = ~degenerate
        if not keep.any():
            return QpSolution(decision=ref.copy(), active_set=active_ids(ref))
        a, b, norms = normals[keep], offsets[keep], norms[keep]
    else:
        a, b = normals, offsets

    a = a / norms[:, None]
    b = b / norms
    m = a.shape[0]
    stop_tol = 1e-9 / max(1.0, float(np.max(norms)))

    u = ref.copy()
    work: list[int] = []
    mu: list[float] = []

    for _ in range(20 * (m + 1) * (m + 1)):
        viol = a @ u + b
        p = int(np.argmin(viol))
        if viol[p] >= -stop_tol:
            return QpSolution(decision=u, active_set=active_ids(u))
        mu_p = 0.0
        for _ in range(2 * (m + 1)):
            a_p = a[p]
            if work:
                a_w = a[work]
                gram = a_w @ a_w.T
                d = np.linalg.solve(gram, a_w @ a_p)
                z = a_p - a_w.T @ d
            else:
                d = np.zeros(0)
                z = a_p.copy()
            zz = float(z @ z)
            if zz > _DEP_TOL:
                t_full = -(float(a_p @ u) + b[p]) / zz
                t_block = np.inf
                blocker = -1
                for idx in range(len(work)):
                    if d[idx] > _DUAL_TOL:
                        ratio = mu[idx] / d[idx]
                        if ratio < t_block:
                            t_block = ratio
                            blocker = idx
                t = min(t_full, t_block)
                u = u + t * z
                for idx in range(len(work)):
                    mu[idx] -= t * d[idx]
                mu_p += t
                if t_block < t_full:
                    work.pop(blocker)
                    mu.pop(blocker)
                    continue
                work.append(p)
                mu.append(mu_p)
                break
            # The candidate normal lies in the span of the working set: only a
            # dual exchange can make room.  No admissible exchange means the
            # polyhedron is empty.
            if not any(d[idx] > _DUAL_TOL for idx in range(len(work))):
                raise InfeasibleError("constraint polyhedron is empty")
            t_block = np.inf
            blocker = -1
            for idx in range(len(work)):
                if d[idx] > _DUAL_TOL:
                    ratio = mu[idx] / d[idx]
                    if ratio < t_block:
                        t_block = ratio
                        blocker = idx
            for idx in range(len(work)):
                mu[idx] -= t_block * d[idx]
            mu_p += t_block
            work.pop(blocker)
            mu.pop(blocker)
        else:
            raise RuntimeError("active-set inner loop failed to settle")
    raise RuntimeError("active-set iteration limit exceeded")


def solve_with_relaxation(
    problem: QpProblem, lambda_step: float, max_steps: int
) -> tuple[QpSolution, float]:
    """Solve, loosening all offsets in multiples of lambda_step if needed.

    Attempt k inflates every offset by k * lambda_step, k = 0..max_steps,
    and the first feasible attempt wins, so the reported inflation is the
    smallest multiple that worked.

    Returns:
        (solution, inflation); inflation is 0.0 when no loosening was
        needed and then solution.relaxation_used is None.

    Raises:
        InfeasibleError: still empty at the largest inflation.
    """
    if not (np.isfinite(lambda_step) and lambda_step > 0.0):
        raise InputError("lambda_step must be positive and finite")
    if max_steps < 0:
        raise InputError("max_steps must be nonnegative")
    try:
        return solve(problem), 0.0
    except InfeasibleError:
        pass
    for k in range(1, max_steps + 1):
        inflation = k * lambda_step
        inflated = QpProblem(
            reference=problem.reference,
            constraints=[
                AffineConstraint(
                    normal=row.normal,
                    offset=row.offset + inflation,
                    agent_id=row.agent_id,
                )
                for row in problem.constraints
            ],
        )
        try:
            base = solve(inflated)
        except InfeasibleError:
            continue
        return (
            QpSolution(
                decision=base.decision,
                active_set=base.active_set,
                relaxation_used=inflation,
            ),
            inflation,
        )
    raise InfeasibleError(
        f"still infeasible after {max_steps} relaxation steps of {lambda_step}"
    )
