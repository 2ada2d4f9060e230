"""Tests for the projection QP solver and its relaxation wrapper."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import enumerate_projection, grid_projection, kkt_residual, rows_to_arrays
from conformal_cbf.barrier import AffineConstraint
from conformal_cbf.errors import InfeasibleError, InputError
from conformal_cbf.qp import ACTIVE_TOL, QpProblem, solve, solve_with_relaxation


def row(nx, ny, offset, agent_id=0):
    return AffineConstraint(normal=[nx, ny], offset=offset, agent_id=agent_id)


def problem_of(reference, rows):
    return QpProblem(reference, *rows_to_arrays(rows))


def active(problem, decision):
    """Ids of the rows whose residual at the decision is within
    ACTIVE_TOL of zero, in row order."""
    return tuple(
        c.agent_id for c in problem.constraints if abs(c.residual(decision)) <= ACTIVE_TOL
    )


def inflated(rows, inflation):
    return [
        AffineConstraint(normal=c.normal, offset=c.offset + inflation, agent_id=c.agent_id)
        for c in rows
    ]


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
        return problem_of(reference, rows)
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
    return problem_of(reference, rows)


def test_no_constraints_returns_reference():
    problem = problem_of([0.3, -0.4], [])
    sol = solve(problem)
    assert np.array_equal(sol.decision, [0.3, -0.4])
    assert active(problem, sol.decision) == ()


def test_single_violated_row_projects_onto_plane():
    # min ||u - r||^2 s.t. a.u + b >= 0 lands on the plane at
    # u = r - (a.r + b) a / ||a||^2.
    problem = problem_of([0.0, 0.0], [row(1.0, 0.0, -2.0, 7)])
    sol = solve(problem)
    assert np.allclose(sol.decision, [2.0, 0.0], atol=1e-12)
    assert active(problem, sol.decision) == (7,)


def test_feasible_reference_is_untouched():
    problem = problem_of(
        [0.0, 0.0],
        [row(1.0, 0.0, 1.0), row(0.0, 1.0, 2.0)],
    )
    sol = solve(problem)
    assert np.array_equal(sol.decision, [0.0, 0.0])
    assert active(problem, sol.decision) == ()


def test_vertex_projection():
    problem = problem_of(
        [-1.0, -1.0],
        [row(1.0, 0.0, -1.0, 1), row(0.0, 1.0, -2.0, 2)],
    )
    sol = solve(problem)
    assert np.allclose(sol.decision, [1.0, 2.0], atol=1e-12)
    assert set(active(problem, sol.decision)) == {1, 2}


def test_opposing_rows_are_infeasible():
    problem = problem_of(
        [0.0, 0.0],
        [row(1.0, 0.0, -1.0), row(-1.0, 0.0, 0.0, 1)],
    )
    with pytest.raises(InfeasibleError):
        solve(problem)


def test_zero_normal_rows():
    # A vacuous zero row disappears; a contradictory one empties the set.
    sol = solve(
        problem_of([1.0, 1.0], [row(0.0, 0.0, 0.5)])
    )
    assert np.array_equal(sol.decision, [1.0, 1.0])
    with pytest.raises(InfeasibleError):
        solve(problem_of([1.0, 1.0], [row(0.0, 0.0, -0.5)]))


def test_parallel_rows_keep_the_tight_one():
    problem = problem_of(
        [0.0, 0.0],
        [row(1.0, 0.0, -1.0, 1), row(1.0, 0.0, -3.0, 2)],
    )
    sol = solve(problem)
    assert np.allclose(sol.decision, [3.0, 0.0], atol=1e-12)
    assert 2 in active(problem, sol.decision)


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
    problem = problem_of([3.0, -2.0], rows)
    assert min(c.residual(problem.reference) for c in rows) < 0.0
    sol = solve(problem)
    expected = enumerate_projection(problem.reference, rows)
    assert expected is not None
    assert np.linalg.norm(sol.decision - expected) <= 1e-9
    assert kkt_residual(problem.reference, rows, sol.decision) <= 1e-6
    assert len(active(problem, sol.decision)) >= 1


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
        again = solve(problem_of(sol.decision, problem.constraints))
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
    problem = problem_of([0.0, 0.0], [row(1.0, 0.0, 1.0)])
    sol, inflation = solve_with_relaxation(problem, lambda_step=0.5, max_steps=4)
    assert inflation == 0.0
    assert np.array_equal(sol.decision, [0.0, 0.0])


def test_relaxation_opposing_gap_one():
    # u_x >= 1 against u_x <= 0: inflating both offsets by s leaves
    # [1 - s, s], nonempty once s >= 1/2, so step 0.6 opens it at the
    # first multiple.
    problem = problem_of(
        [0.5, 0.0],
        [row(1.0, 0.0, -1.0, 1), row(-1.0, 0.0, 0.0, 2)],
    )
    sol, inflation = solve_with_relaxation(problem, lambda_step=0.6, max_steps=8)
    assert inflation == 0.6
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
            inflated = problem_of(
                problem.reference,
                [
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
    problem = problem_of(
        [0.0, 0.0],
        [row(1.0, 0.0, -10.0, 1), row(-1.0, 0.0, 0.0, 2)],
    )
    with pytest.raises(InfeasibleError):
        solve_with_relaxation(problem, lambda_step=0.1, max_steps=3)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_relaxation_refuses_overflowing_offsets():
    # the opposing pair needs one step of inflation, and that step
    # overflows the third row's offset: the attempt is refused as the
    # problem it makes would be
    problem = problem_of(
        [0.0, 0.0],
        [row(1.0, 0.0, -1.0, 1), row(-1.0, 0.0, 0.0, 2), row(0.0, 1.0, 1.7e308, 3)],
    )
    with pytest.raises(InputError, match="^reference and rows must be finite$"):
        solve_with_relaxation(problem, lambda_step=1e308, max_steps=3)


def test_relaxation_validation():
    problem = problem_of([0.0, 0.0], [])
    with pytest.raises(InputError):
        solve_with_relaxation(problem, lambda_step=0.0, max_steps=3)
    with pytest.raises(InputError):
        solve_with_relaxation(problem, lambda_step=0.1, max_steps=-1)


def test_solution_decision_is_copy():
    problem = problem_of([0.3, -0.4], [])
    sol = solve(problem)
    sol.decision[0] = 99.0
    assert problem.reference[0] == 0.3


def test_problem_validation_and_rows():
    with pytest.raises(InputError):
        QpProblem([0.0, 0.0], np.zeros((2, 2)), np.zeros(3), np.arange(2))
    with pytest.raises(InputError):
        QpProblem([0.0, 0.0], np.zeros(2), 0.0, 0)
    with pytest.raises(InputError):
        QpProblem([0.0, 0.0], [[1.0, np.inf]], [0.0], [0])
    with pytest.raises(InputError):
        QpProblem([0.0, np.nan], np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    big = 10**20  # a track id past int64 stays a Python int
    problem = QpProblem([0.0, 0.0], [[1.0, 2.0]], [-3.0], np.array([big], dtype=object))
    (c,) = problem.constraints
    assert np.array_equal(c.normal, [1.0, 2.0]) and c.offset == -3.0 and c.agent_id == big
    assert active(problem, solve(problem).decision) == (big,)


# ---------------------------------------------------------------------------
# property test against the enumeration oracle

HYPOTHESIS = settings(max_examples=60, deadline=None)
# eighths keep offsets and the anchor off the solver's and the oracle's
# tolerance bands, so feasibility is never decided by rounding alone
eighths = st.integers(-24, 24).map(lambda k: k / 8.0)


@st.composite
def polygons(draw):
    """A reference and up to 100 rows around an anchor point: fresh rows
    at one of 24 bearings, duplicates, parallel and opposing copies,
    nearly parallel copies (turned by 1e-3 to 5e-2 rad) and zero-normal
    rows.  Each row passes the anchor at a slack in eighths; a negative
    slack can empty the polygon."""
    anchor = np.array([draw(eighths), draw(eighths)])
    reference = np.array([draw(eighths), draw(eighths)]) * 2.0
    rows = []
    bearings = []
    for i in range(draw(st.integers(1, 100))):
        kind = draw(st.sampled_from(["fresh", "fresh", "duplicate", "parallel", "near", "zero"]))
        if kind == "zero":
            rows.append(row(0.0, 0.0, draw(st.integers(-1, 8)) / 8.0, i))
            continue
        if kind == "fresh" or not bearings:
            theta = draw(st.integers(0, 23)) * math.pi / 12.0
        else:
            theta = draw(st.sampled_from(bearings))
            if kind == "parallel":
                theta += draw(st.sampled_from([0.0, math.pi]))
            elif kind == "near":
                theta += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 5e-2))
        bearings.append(theta)
        unit = np.array([math.cos(theta), math.sin(theta)])
        scale = draw(st.sampled_from([0.01, 0.3, 1.0, 7.0, 100.0]))
        slack = 0.0 if kind == "duplicate" else draw(st.integers(-4, 16)) / 8.0
        rows.append(row(*(scale * unit), scale * (slack - float(unit @ anchor)), i))
    return reference, rows


@HYPOTHESIS
@given(polygons())
def test_solve_matches_enumeration_property(case):
    reference, rows = case
    expected = enumerate_projection(reference, rows)
    if expected is None:
        with pytest.raises(InfeasibleError):
            solve(problem_of(reference, rows))
        return
    sol = solve(problem_of(reference, rows))
    assert np.linalg.norm(sol.decision - expected) <= 1e-9 * max(1.0, np.linalg.norm(expected))
    assert kkt_residual(reference, rows, sol.decision) <= 1e-6


@HYPOTHESIS
@given(polygons(), st.sampled_from([0.05, 0.125, 0.3, 1.0]))
def test_relaxation_multiple_is_minimal_property(case, lambda_step):
    # inflating every offset only grows the polygon, so the first feasible
    # multiple is minimal once the one below it is empty
    reference, rows = case
    try:
        _, inflation = solve_with_relaxation(problem_of(reference, rows), lambda_step, 40)
    except InfeasibleError:
        assert enumerate_projection(reference, inflated(rows, 40 * lambda_step)) is None
        return
    k = round(inflation / lambda_step)
    assert inflation == k * lambda_step
    assert enumerate_projection(reference, inflated(rows, inflation)) is not None
    if k:
        assert enumerate_projection(reference, inflated(rows, (k - 1) * lambda_step)) is None
