import logging

import numpy as np
import pytest

from seqgp._linalg import SpdSolver, inv_spd
from seqgp.errors import NumericalError


def test_solve_matches_numpy(rng):
    A = rng.standard_normal((6, 6))
    A = A @ A.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    np.testing.assert_allclose(SpdSolver(A).solve(b), np.linalg.solve(A, b), atol=1e-10)
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
    # whitening the factored matrix gives L', so L L' is recovered through whiten
    shifted = A + solver.jitter * np.eye(3)
    upper = solver.whiten(shifted)
    np.testing.assert_allclose(upper.T @ upper, shifted, atol=1e-12)


@pytest.mark.parametrize("jitter", [1e-12, 1e-10])
def test_jitter_ladder_in_place_matches_a_copy(jitter, rng):
    # smallest eigenvalue -jitter/2: every rung below ``jitter`` fails
    # partway, after overwriting part of the lower triangle, and ``jitter``
    # succeeds; each retry must start from the original matrix
    n = 12
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    G = (Q * np.append(rng.uniform(1.0, 2.0, n - 1), -jitter / 2)) @ Q.T
    G = np.triu(G) + np.triu(G, 1).T
    B = rng.standard_normal((n, 3))
    copied = SpdSolver(G.copy())
    assert copied.jitter == jitter
    fresh = SpdSolver(G + jitter * np.eye(n), ladder=(0.0,))
    in_place = SpdSolver(G, overwrite=True)
    assert in_place.jitter == jitter
    assert np.array_equal(in_place.whiten(B), copied.whiten(B))
    assert np.array_equal(copied.whiten(B), fresh.whiten(B))


def test_failed_ladder_restores_the_matrix():
    A = np.array([[1.0, 2.0, 0.5], [2.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
    work = A.copy()
    with pytest.raises(NumericalError, match="condition estimate"):
        SpdSolver(work, overwrite=True)
    np.testing.assert_array_equal(work, A)
