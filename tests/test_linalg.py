import logging

import numpy as np
import pytest

from seqgp._linalg import SpdSolver, inv_spd, solve_spd
from seqgp.errors import NumericalError


def test_solve_matches_numpy(rng):
    A = rng.standard_normal((6, 6))
    A = A @ A.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    np.testing.assert_allclose(solve_spd(A, b), np.linalg.solve(A, b), atol=1e-10)
    np.testing.assert_allclose(inv_spd(A), np.linalg.inv(A), atol=1e-10)


def test_no_jitter_on_well_conditioned(rng):
    A = np.eye(4)
    assert SpdSolver(A).jitter == 0.0


def test_jitter_ladder_recovers_semidefinite(caplog):
    # rank-deficient PSD matrix: plain Cholesky fails, the ladder recovers
    v = np.array([1.0, 2.0, 3.0])
    A = np.outer(v, v)
    with caplog.at_level(logging.WARNING, logger="seqgp._linalg"):
        solver = SpdSolver(A)
    assert solver.jitter is not None and solver.jitter > 0
    assert any("jitter" in rec.message for rec in caplog.records)


def test_failure_carries_condition_diagnostic():
    A = np.array([[1.0, 0.0], [0.0, -1.0]])  # indefinite: no jitter in the ladder helps
    with pytest.raises(NumericalError, match="condition estimate"):
        SpdSolver(A)


def test_non_square_rejected():
    with pytest.raises(NumericalError):
        SpdSolver(np.ones((2, 3)))


def test_nonfinite_matrix_rejected():
    A = np.eye(3)
    A[2, 1] = A[1, 2] = np.nan
    with pytest.raises(NumericalError, match="nonfinite"):
        SpdSolver(A)


def test_jitter_leaves_input_unchanged():
    v = np.array([1.0, 2.0, 3.0])
    A = np.outer(v, v)
    before = A.copy()
    solver = SpdSolver(A)
    assert solver.jitter > 0
    np.testing.assert_array_equal(A, before)
    np.testing.assert_allclose(solver.lower @ solver.lower.T,
                               A + solver.jitter * np.eye(3), atol=1e-12)
