"""Property tests for the GEMM kernel builds, the whitened solver and the engine.

Each example draws its sizes and a generator seed; the arrays themselves come
from numpy, so a failing example replays from the printed seed.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgp import (
    ConnectednessKernelSpec,
    JengaKernelSpec,
    ProductKernel,
    SequenceSpace,
    TrainingData,
    TransformPosteriorRequest,
    VcKernel,
    transform_posterior,
    transform_rows,
)
from seqgp import kernels
from seqgp._linalg import SpdSolver
from seqgp.oracle import dense_transform_posterior

from conftest import rand_gauge

ALPHABET = "abcde"
SETTINGS = settings(max_examples=60, deadline=None)

alphas = st.integers(2, 5)
lengths = st.integers(1, 4)
row_counts = st.integers(0, 12)
seeds = st.integers(0, 2**32 - 1)
# entries per row block: small values split even tiny matrices into many blocks
block_entries = st.sampled_from([1, 3, 7, 1 << 20])


def _general_blocks(alpha, ell, rng):
    """Correlation blocks with random sign flips, so negative entries are common."""
    blocks = []
    for _ in range(ell):
        A = rng.standard_normal((alpha, alpha))
        C = A @ A.T + alpha * np.eye(alpha)
        d = np.sqrt(np.diag(C)) * rng.choice([-1.0, 1.0], size=alpha)
        blocks.append(C / np.outer(d, d))
    return np.stack(blocks)


def _jenga_blocks(alpha, ell, rng):
    """Jenga blocks, sign -1 at most positions, with some factors exactly zero."""
    signs, factors = [], []
    for _ in range(ell):
        sign = int(rng.choice([-1, -1, 1]))
        if sign == 1:
            row = rng.uniform(0.1, 0.9, alpha)
        else:
            row = rng.uniform(0.1, 0.6, alpha)
            row[rng.random(alpha) < 0.4] = 0.0
            while sum(v * v / (1 + v * v) for v in row) >= 1.0:
                row *= 0.7
        signs.append(sign)
        factors.append(tuple(row))
    spec = JengaKernelSpec(tuple(signs), tuple(factors))
    return np.stack([spec.block(p) for p in range(ell)])


def _connectedness_blocks(alpha, ell, rng):
    """Connectedness blocks with z < 0, z = 0 and z > 0 mixed over positions."""
    lower = -1.0 / (alpha - 1)
    choices = [0.0, float(rng.uniform(0.9 * lower, 0.0)), float(rng.uniform(0.0, 0.9))]
    z = tuple(choices[i] for i in rng.integers(0, 3, size=ell))
    return ConnectednessKernelSpec(z).to_product(SequenceSpace(ALPHABET[:alpha], ell)).blocks


BLOCK_FAMILIES = {"general": _general_blocks, "jenga": _jenga_blocks,
                  "connectedness": _connectedness_blocks}


def _per_position_product(blocks, X, Y):
    ell = blocks.shape[0]
    out = np.ones((X.shape[0], Y.shape[0]))
    for p in range(ell):
        out = out * blocks[p][X[:, p][:, None], Y[:, p][None, :]]
    return out


@SETTINGS
@given(alpha=alphas, ell=lengths, n=row_counts, m=row_counts,
       family=st.sampled_from(sorted(BLOCK_FAMILIES)), seed=seeds, block=block_entries)
def test_product_matrix_matches_per_position_product(alpha, ell, n, m, family, seed, block):
    rng = np.random.default_rng(seed)
    space = SequenceSpace(ALPHABET[:alpha], ell)
    blocks = BLOCK_FAMILIES[family](alpha, ell, rng)
    kernel = ProductKernel(blocks, space)
    X = rng.integers(0, alpha, size=(n, ell))
    Y = rng.integers(0, alpha, size=(m, ell))
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", block):
        got_xy, got_xx = kernel.matrix(X, Y), kernel.matrix(X)
    np.testing.assert_allclose(got_xy, _per_position_product(blocks, X, Y), rtol=0, atol=1e-14)
    np.testing.assert_allclose(got_xx, _per_position_product(blocks, X, X), rtol=0, atol=1e-14)


@SETTINGS
@given(alpha=alphas, ell=lengths, n=row_counts, m=row_counts, seed=seeds, block=block_entries)
def test_vc_matrix_is_the_hamming_table_lookup(alpha, ell, n, m, seed, block):
    rng = np.random.default_rng(seed)
    space = SequenceSpace(ALPHABET[:alpha], ell)
    kernel = VcKernel(rng.uniform(0.1, 3.0, ell + 1), space)
    X = rng.integers(0, alpha, size=(n, ell))
    Y = rng.integers(0, alpha, size=(m, ell))
    table = np.array([kernel.entry(d) for d in range(ell + 1)])
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", block):
        got = kernel.matrix(X, Y)
    assert np.array_equal(got, table[(X[:, None, :] != Y[None, :, :]).sum(axis=2)])


@SETTINGS
@given(n=st.integers(1, 20), k=st.integers(1, 5), seed=seeds)
def test_whiten_and_solve_match_numpy(n, k, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = G @ G.T + n * np.eye(n)
    B = rng.standard_normal((n, k))
    solver = SpdSolver(A)
    np.testing.assert_allclose(solver.whiten(B), np.linalg.solve(solver.lower, B),
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(solver.solve(B), np.linalg.solve(A, B), rtol=0, atol=1e-10)
    np.testing.assert_allclose(solver.solve(B[:, 0]), np.linalg.solve(A, B[:, 0]),
                               rtol=0, atol=1e-10)


@SETTINGS
@given(alpha=st.integers(2, 3), ell=st.integers(1, 3), t=st.integers(0, 10),
       family=st.sampled_from(sorted(BLOCK_FAMILIES)),
       kind=st.sampled_from(["gauge-weights", "zero-sum", "background-averaged"]),
       want_covariance=st.booleans(), seed=seeds)
def test_transform_posterior_matches_dense_oracle(alpha, ell, t, family, kind,
                                                  want_covariance, seed):
    rng = np.random.default_rng(seed)
    space = SequenceSpace(ALPHABET[:alpha], ell)
    kernel = ProductKernel(BLOCK_FAMILIES[family](alpha, ell, rng), space)
    data = TrainingData(rng.integers(0, alpha, size=(t, ell)), rng.standard_normal(t), 0.3)
    if kind == "background-averaged":
        ref = rng.integers(0, alpha, size=ell)
        keys = [s for s in space.subsequences()
                if all(c != ref[p - 1] for p, c in zip(s.positions, s.chars))]
        rows = transform_rows(kind, space, keys, reference=ref)
    else:
        gauge = rand_gauge(space, rng) if kind == "gauge-weights" else None
        rows = transform_rows(kind, space, space.subsequences(), gauge=gauge)
    got = transform_posterior(TransformPosteriorRequest(kernel, data, rows, want_covariance))
    want = dense_transform_posterior(rows.dense_matrix(space), kernel.dense(), data, space)
    np.testing.assert_allclose(got.mean, want.mean, rtol=0, atol=1e-8)
    np.testing.assert_allclose(got.var, np.diag(want.cov), rtol=0, atol=1e-8)
    if want_covariance:
        np.testing.assert_allclose(got.cov, want.cov, rtol=0, atol=1e-8)
