"""Property tests for the GEMM kernel builds, the whitened solver, the posterior
routes and the command line's exit codes.

Each numerical example draws its sizes and a generator seed; the arrays
themselves come from numpy, so a failing example replays from the printed
seed.  The command-line examples draw whole JSON configs.
"""

import contextlib
import io
import json
import math
import os
import tempfile
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
    VcKernel,
    transform_posterior,
    transform_rows,
)
from seqgp import cli, kernels, posterior
from seqgp.gauges import TRANSFORM_KINDS
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
@given(alpha=alphas, ell=lengths, n=st.integers(0, 30),
       family=st.sampled_from(sorted(BLOCK_FAMILIES)), seed=seeds, side=st.integers(1, 7))
def test_symmetric_product_matrix_is_exactly_symmetric(alpha, ell, n, family, seed, side):
    # square row blocks of 1-7 rows leave a partial last block for most n
    rng = np.random.default_rng(seed)
    space = SequenceSpace(ALPHABET[:alpha], ell)
    kernel = ProductKernel(BLOCK_FAMILIES[family](alpha, ell, rng), space)
    X = rng.integers(0, alpha, size=(n, ell))
    with mock.patch.object(kernels, "_SYMMETRIC_SIDE", side):
        got = kernel.matrix(X)
    assert np.array_equal(got, got.T)
    np.testing.assert_allclose(got, kernel.matrix(X, X.copy()), rtol=1e-14, atol=0)


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
    np.testing.assert_allclose(solver.whiten(B), np.linalg.solve(np.linalg.cholesky(A), B),
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
    got = transform_posterior(rows, kernel, data, want_covariance)
    want = dense_transform_posterior(rows.dense_matrix(space), kernel.dense(), data, space)
    np.testing.assert_allclose(got.mean, want.mean, rtol=0, atol=1e-8)
    np.testing.assert_allclose(got.var, np.diag(want.cov), rtol=0, atol=1e-8)
    if want_covariance:
        np.testing.assert_allclose(got.cov, want.cov, rtol=0, atol=1e-8)


@SETTINGS
@given(alpha=st.integers(2, 3), ell=st.integers(1, 3), t=st.integers(0, 10),
       vc=st.booleans(), side=st.integers(1, 30), want_covariance=st.booleans(), seed=seeds)
def test_streamed_posterior_matches_dense_oracle(alpha, ell, t, vc, side, want_covariance,
                                                 seed):
    rng = np.random.default_rng(seed)
    space = SequenceSpace(ALPHABET[:alpha], ell)
    if vc:
        kernel = VcKernel(10.0 ** rng.uniform(-3.0, 3.0, ell + 1), space)
    else:
        kernel = ProductKernel(_general_blocks(alpha, ell, rng), space)
    data = TrainingData(rng.integers(0, alpha, size=(t, ell)), rng.standard_normal(t), 0.3)
    rows = transform_rows("zero-sum", space, space.subsequences())
    with mock.patch.object(posterior, "_STREAM_BLOCK", side):
        got = transform_posterior(rows, kernel, data, want_covariance)
    want = dense_transform_posterior(rows.dense_matrix(space), kernel.dense(), data, space)
    np.testing.assert_allclose(got.mean, want.mean, rtol=0, atol=1e-8)
    np.testing.assert_allclose(got.var, np.diag(want.cov), rtol=0, atol=1e-8)
    if want_covariance:
        np.testing.assert_allclose(got.cov, want.cov, rtol=0, atol=1e-8)


# -- random configs through the command line ------------------------------------

_UNIT = st.floats(0.1, 0.9)
_POSITIVE = st.floats(0.1, 4.0)
# replacements that break a field: nonfinite literals, out-of-range numbers,
# integers too large for a float, wrong JSON types and missing values
_BAD = st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, -0.5, 1.0, 2, 1e-300, 1e308,
                        10 ** 400, "x", "inf", True, None, [], [1.0], [[]], {}, {"k": 1}])


@st.composite
def _kernel_configs(draw, alpha: int, ell: int):
    family = draw(st.sampled_from(["vc", "order-diag", "geometric", "connectedness", "jenga",
                                   "product", "diag-lambda-pi", "wh", "wt"]))
    if family in ("vc", "order-diag"):
        key = "lambdas" if family == "vc" else "a"
        return {"family": family, key: draw(st.lists(_POSITIVE, min_size=ell + 1,
                                                     max_size=ell + 1))}
    if family == "geometric":
        return {"family": family, "beta": draw(_UNIT)}
    if family == "connectedness":
        lower = -0.9 / (alpha - 1)
        return {"family": family, "z": draw(st.lists(st.floats(lower, 0.9), min_size=ell,
                                                     max_size=ell))}
    if family == "jenga":
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=ell, max_size=ell))
        factors = [draw(st.lists(_UNIT if sign == 1 else st.floats(0.0, 0.5),
                                 min_size=alpha, max_size=alpha)) for sign in signs]
        return {"family": family, "signs": signs, "factors": factors}
    if family == "product":
        blocks = []
        for _ in range(ell):
            r = draw(st.floats(-0.9 / (alpha - 1), 0.9))
            blocks.append([[1.0 if a == b else r for b in range(alpha)] for a in range(alpha)])
        return {"family": family, "blocks": blocks}
    if family == "diag-lambda-pi":
        return {"family": family, "lambda": draw(_POSITIVE), "pi": "uniform"}
    return {"family": family, "rho": draw(st.lists(_POSITIVE, min_size=ell, max_size=ell))}


def _leaf_paths(value, path=()):
    """Paths to every value inside a nested JSON object, containers included."""
    paths = [path] if path else []
    if isinstance(value, dict):
        for key, item in value.items():
            paths += _leaf_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            paths += _leaf_paths(item, path + (i,))
    return paths


@st.composite
def _cli_runs(draw):
    """A valid config on a tiny space with up to two fields broken, and its inputs."""
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    alpha, ell = len(alphabet), draw(st.integers(1, 3))
    kinds = [k for k in TRANSFORM_KINDS if alpha == 2 or k != "walsh-hadamard"]
    kind = draw(st.sampled_from(kinds))
    transform = {"kind": kind}
    if kind in ("wild-type", "background-averaged", "fourier"):
        transform["reference"] = alphabet[0] * ell
    config = {
        "alphabet": alphabet, "length": ell,
        "kernel": draw(_kernel_configs(alpha, ell)),
        "gauge": {"lambda": draw(st.one_of(_POSITIVE, st.just("inf"))), "pi": "uniform"},
        "noise_variance": draw(st.floats(0.01, 2.0)),
        "transform": transform,
        "jitter": draw(st.lists(st.sampled_from([0.0, 1e-10, 1e-6]), min_size=1, max_size=3)),
        "output": {"covariance": draw(st.booleans()), "precision": draw(st.integers(1, 17))},
        "simulate": {"samples": draw(st.integers(0, 2)),
                     "source": draw(st.sampled_from(["function", "gnk"])),
                     "neighborhoods": [[1], list(range(1, ell + 1))]},
    }
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(_leaf_paths(config)))
        parent = config
        for step in path[:-1]:
            parent = parent[step]
        if draw(st.booleans()) or isinstance(parent, list):
            parent[path[-1]] = draw(_BAD)
        else:
            del parent[path[-1]]
    command = draw(st.sampled_from(["posterior", "predict", "kernel-eval",
                                    "build-regularizer", "simulate"]))
    coeffs = "-,1" if kind == "walsh-hadamard" else f"-,1:{alphabet[-1]}"
    return config, alphabet, ell, coeffs, command


# bounded so that the example run stays within a few seconds
@settings(max_examples=200, deadline=None)
@given(run=_cli_runs())
def test_cli_exit_code_on_random_config(run):
    # every config, valid or broken, ends in a documented exit code: 0 success,
    # 2 config, 3 data, 4 numerical; an escaping exception fails the test
    config, alphabet, ell, coeffs, command = run
    seqs = [alphabet[0] * ell, alphabet[-1] * ell, (alphabet * ell)[:ell]]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("config.json", "train.csv", "pairs.csv", "out.txt")}
        with open(paths["config.json"], "w") as fh:
            json.dump(config, fh)  # writes NaN and Infinity as JSON literals
        with open(paths["train.csv"], "w") as fh:
            fh.write("sequence,value\n" + "".join(f"{x},{i - 0.5}\n"
                                                  for i, x in enumerate(seqs)))
        with open(paths["pairs.csv"], "w") as fh:
            fh.write(f"x,y\n{seqs[0]},{seqs[1]}\n")
        extra = {
            "posterior": ["--data", paths["train.csv"], f"--coeffs={coeffs}"],
            "predict": ["--data", paths["train.csv"], f"--coeffs={seqs[0]},{seqs[2]}"],
            "kernel-eval": ["--data", paths["pairs.csv"]],
            "build-regularizer": ["--out", paths["out.txt"]],
            "simulate": ["--seed", "3", "--out", paths["out.txt"]],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", paths["config.json"], *extra])
    assert code in (0, 2, 3, 4)
