"""Tests for the projection QP solver and its relaxation wrapper."""

import numpy as np
import pytest

from _oracles import enumerate_projection, grid_projection, kkt_residual
from conformal_cbf.barrier import AffineConstraint
from conformal_cbf.errors import InfeasibleError, InputError
from conformal_cbf.qp import QpProblem, QpSolution, solve, solve_with_relaxation


def row(nx, ny, offset, agent_id=0):
    return AffineConstraint(normal=[nx, ny], offset=offset, agent_id=agent_id)


def random_problem(rng, feasible=True, max_rows=5):
    """Rows around an interior point (feasible) or a deliberately empty
    pair of opposing halfplanes plus clutter (infeasible)."""
    m = int(rng.integers(1, max_rows + 1))
    reference = rng.uniform(-1.0, 1.0, size=2)
    if feasible:
        interior = rng.uniform(-1.0, 1.0, size=2)
        rows = []
        for i in range(m):
            normal = rng.normal(size=2)
            normal /= np.linalg.norm(normal)
            slack = rng.uniform(0.05, 1.0)
            rows.append(
                AffineConstraint(
                    normal=normal,
                    offset=float(slack - normal @ interior),
                    agent_id=i,
                )
            )
        return QpProblem(reference=reference, constraints=rows)
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    gap = rng.uniform(0.1, 2.0)
    rows = [
        AffineConstraint(normal=direction, offset=-gap, agent_id=0),
        AffineConstraint(normal=-direction, offset=0.0, agent_id=1),
    ]
    for i in range(m - 1):
        normal = rng.normal(size=2)
        normal /= np.linalg.norm(normal)
        rows.append(
            AffineConstraint(normal=normal, offset=float(rng.uniform(0.0, 2.0)), agent_id=2 + i)
        )
    return QpProblem(reference=reference, constraints=rows)


def test_no_constraints_returns_reference():
    sol = solve(QpProblem(reference=[0.3, -0.4], constraints=[]))
    assert np.array_equal(sol.decision, [0.3, -0.4])
    assert sol.active_set == ()
    assert sol.relaxation_used is None


def test_single_violated_row_projects_onto_plane():
    # min ||u - r||^2 s.t. a.u + b >= 0 lands on the plane at
    # u = r - (a.r + b) a / ||a||^2.
    problem = QpProblem(reference=[0.0, 0.0], constraints=[row(1.0, 0.0, -2.0, 7)])
    sol = solve(problem)
    assert np.allclose(sol.decision, [2.0, 0.0], atol=1e-12)
    assert sol.active_set == (7,)


def test_feasible_reference_is_untouched():
    problem = QpProblem(
        reference=[0.0, 0.0],
        constraints=[row(1.0, 0.0, 1.0), row(0.0, 1.0, 2.0)],
    )
    sol = solve(problem)
    assert np.array_equal(sol.decision, [0.0, 0.0])
    assert sol.active_set == ()


def test_vertex_projection():
    problem = QpProblem(
        reference=[-1.0, -1.0],
        constraints=[row(1.0, 0.0, -1.0, 1), row(0.0, 1.0, -2.0, 2)],
    )
    sol = solve(problem)
    assert np.allclose(sol.decision, [1.0, 2.0], atol=1e-12)
    assert set(sol.active_set) == {1, 2}


def test_opposing_rows_are_infeasible():
    problem = QpProblem(
        reference=[0.0, 0.0],
        constraints=[row(1.0, 0.0, -1.0), row(-1.0, 0.0, 0.0, 1)],
    )
    with pytest.raises(InfeasibleError):
        solve(problem)


def test_zero_normal_rows():
    # A vacuous zero row disappears; a contradictory one empties the set.
    sol = solve(
        QpProblem(reference=[1.0, 1.0], constraints=[row(0.0, 0.0, 0.5)])
    )
    assert np.array_equal(sol.decision, [1.0, 1.0])
    with pytest.raises(InfeasibleError):
        solve(QpProblem(reference=[1.0, 1.0], constraints=[row(0.0, 0.0, -0.5)]))


def test_parallel_rows_keep_the_tight_one():
    problem = QpProblem(
        reference=[0.0, 0.0],
        constraints=[row(1.0, 0.0, -1.0, 1), row(1.0, 0.0, -3.0, 2)],
    )
    sol = solve(problem)
    assert np.allclose(sol.decision, [3.0, 0.0], atol=1e-12)
    assert 2 in sol.active_set


def test_eighty_rows_match_enumeration_oracle():
    # a dense crowd frame can carry more rows than any fixed cap
    rng = np.random.default_rng(80)
    interior = np.array([0.2, -0.1])
    rows = []
    for i in range(80):
        normal = rng.normal(size=2)
        normal /= np.linalg.norm(normal)
        slack = rng.uniform(0.05, 1.0)
        rows.append(row(normal[0], normal[1], float(slack - normal @ interior), agent_id=i))
    problem = QpProblem(reference=[3.0, -2.0], constraints=rows)
    assert min(c.residual(problem.reference) for c in rows) < 0.0
    sol = solve(problem)
    expected = enumerate_projection(problem.reference, rows)
    assert expected is not None
    assert np.linalg.norm(sol.decision - expected) <= 1e-9
    assert kkt_residual(problem.reference, rows, sol.decision) <= 1e-6
    assert len(sol.active_set) >= 1


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(123)
    for i in range(400):
        problem = random_problem(rng, feasible=(i % 3 != 0))
        expected = enumerate_projection(problem.reference, problem.constraints)
        if expected is None:
            with pytest.raises(InfeasibleError):
                solve(problem)
            continue
        sol = solve(problem)
        assert np.linalg.norm(sol.decision - expected) <= 1e-9


def test_feasibility_kkt_and_idempotence():
    rng = np.random.default_rng(456)
    for _ in range(200):
        problem = random_problem(rng, feasible=True)
        sol = solve(problem)
        for c in problem.constraints:
            assert c.residual(sol.decision) >= -1e-8
        assert kkt_residual(problem.reference, problem.constraints, sol.decision) <= 1e-6
        again = solve(QpProblem(reference=sol.decision, constraints=problem.constraints))
        assert np.linalg.norm(again.decision - sol.decision) <= 1e-9


def test_matches_grid_oracle_sample():
    rng = np.random.default_rng(789)
    for _ in range(40):
        problem = random_problem(rng, feasible=True)
        sol = solve(problem)
        ref = problem.reference
        oracle = grid_projection(ref, problem.constraints)
        assert oracle is not None
        ours = float(np.sum((sol.decision - ref) ** 2))
        theirs = float(np.sum((oracle - ref) ** 2))
        assert abs(ours - theirs) <= 2e-3


def test_relaxation_not_needed_reports_zero():
    problem = QpProblem(reference=[0.0, 0.0], constraints=[row(1.0, 0.0, 1.0)])
    sol, inflation = solve_with_relaxation(problem, lambda_step=0.5, max_steps=4)
    assert inflation == 0.0
    assert sol.relaxation_used is None


def test_relaxation_opposing_gap_one():
    # u_x >= 1 against u_x <= 0: inflating both offsets by s leaves
    # [1 - s, s], nonempty once s >= 1/2, so step 0.6 opens it at the
    # first multiple.
    problem = QpProblem(
        reference=[0.5, 0.0],
        constraints=[row(1.0, 0.0, -1.0, 1), row(-1.0, 0.0, 0.0, 2)],
    )
    sol, inflation = solve_with_relaxation(problem, lambda_step=0.6, max_steps=8)
    assert inflation == 0.6
    assert sol.relaxation_used == 0.6
    assert 0.4 - 1e-9 <= sol.decision[0] <= 0.6 + 1e-9


def test_relaxation_inflation_is_minimal():
    rng = np.random.default_rng(31)
    for _ in range(60):
        problem = random_problem(rng, feasible=False)
        lambda_step = float(rng.uniform(0.05, 0.5))
        try:
            sol, inflation = solve_with_relaxation(problem, lambda_step, max_steps=64)
        except InfeasibleError:
            continue
        k = int(round(inflation / lambda_step))
        assert abs(k * lambda_step - inflation) <= 1e-12
        assert k >= 1
        # linear scan: every smaller multiple must still be empty
        for smaller in range(0, k):
            inflated = QpProblem(
                reference=problem.reference,
                constraints=[
                    AffineConstraint(
                        normal=c.normal,
                        offset=c.offset + smaller * lambda_step,
                        agent_id=c.agent_id,
                    )
                    for c in problem.constraints
                ],
            )
            assert enumerate_projection(inflated.reference, inflated.constraints) is None


def test_relaxation_exhaustion_raises():
    problem = QpProblem(
        reference=[0.0, 0.0],
        constraints=[row(1.0, 0.0, -10.0, 1), row(-1.0, 0.0, 0.0, 2)],
    )
    with pytest.raises(InfeasibleError):
        solve_with_relaxation(problem, lambda_step=0.1, max_steps=3)


def test_relaxation_validation():
    problem = QpProblem(reference=[0.0, 0.0], constraints=[])
    with pytest.raises(InputError):
        solve_with_relaxation(problem, lambda_step=0.0, max_steps=3)
    with pytest.raises(InputError):
        solve_with_relaxation(problem, lambda_step=0.1, max_steps=-1)


def test_solution_decision_is_copy():
    problem = QpProblem(reference=[0.3, -0.4], constraints=[])
    sol = solve(problem)
    sol.decision[0] = 99.0
    assert problem.reference[0] == 0.3
