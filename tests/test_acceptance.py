"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n (<name>): PASS`` line (run pytest with
``-s`` to see the lines for passing tests); a failing criterion fails its
test with the offending numbers.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from seqgp import (
    ConnectednessKernelSpec,
    GaugeSpec,
    GeometricKernelSpec,
    NotRepresentable,
    ProductDistribution,
    ProductKernel,
    SequenceSpace,
    Subsequence,
    TrainingData,
    VcKernel,
    bayes_weight_posterior,
    binomial,
    build_theta_regularizer,
    gauge_weight_posterior,
    gp_posterior,
    induced_kernel_diag_lambda_pi,
    induced_vc_from_order_diag,
    krawtchouk,
    marginalization_residual,
    order_diag_from_vc,
    ridge_function,
    ridge_weights,
    transform_posterior,
    transform_rows,
    wh_induced_entry,
    wt_induced_entry,
)
from seqgp.gauges import projection_dense
from seqgp.kernels import JengaKernelSpec
from seqgp.oracle import dense_transform_posterior
from seqgp.regress import (
    phit_kinv_phi_connectedness,
    phit_kinv_phi_geometric,
    phit_kinv_phi_jenga,
    phit_kinv_phi_product,
    phit_kinv_phi_vc,
)

from conftest import rand_pi, rand_product_kernel, rand_vc_kernel, small_spaces

SEED = 20250808


def _report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def _relative_gap(a, b):
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


# -- criteria 1 and 2: estimator equivalence and gauge membership --------------


@pytest.fixture(scope="module")
def estimator_trials():
    rng = np.random.default_rng(SEED)
    trials = []
    started = time.perf_counter()
    sizes = itertools.cycle((1, 2, 0))  # 1, half, all
    for space in small_spaces():
        for kernel_kind, eta, noise in itertools.product(("product", "vc"), (0.3, 1.0),
                                                         (0.01, 1.0)):
            kernel = (rand_product_kernel(space, rng) if kernel_kind == "product"
                      else rand_vc_kernel(space, rng))
            gauge = GaugeSpec(eta, rand_pi(space, rng))
            t = (1, space.n_sequences // 2, space.n_sequences)[next(sizes)]
            X = space.sequences_array()[rng.integers(0, space.n_sequences, size=t)]
            data = TrainingData(X, rng.standard_normal(t), noise)
            K_inv = (kernel.dense_inverse() if kernel_kind == "vc"
                     else np.linalg.inv(kernel.dense()))
            penalty = build_theta_regularizer(kernel, gauge, space)
            phi = space.phi_dense()
            routes = {
                "gp": gp_posterior(kernel, data, space.sequences_array(), space).mean,
                "ridge-w": phi @ ridge_weights(penalty, data, space, beta=noise),
                "ridge-f": ridge_function(K_inv, data, space, beta=noise),
                "bayes-w": phi @ bayes_weight_posterior(np.linalg.inv(penalty), data,
                                                        space).mean,
            }
            w_opt = ridge_weights(penalty, data, space, beta=noise)
            trials.append({
                "space": space, "gauge": gauge, "routes": routes,
                "residual": marginalization_residual(w_opt, gauge, space),
            })
    return {"trials": trials, "elapsed": time.perf_counter() - started}


def test_criterion_1_four_estimator_equivalence(estimator_trials):
    trials = estimator_trials["trials"]
    assert len(trials) >= 20
    worst = 0.0
    for trial in trials:
        routes = list(trial["routes"].values())
        for a, b in itertools.combinations(routes, 2):
            worst = max(worst, _relative_gap(a, b))
    assert worst <= 1e-7, f"worst pairwise relative gap {worst:.3e}"
    assert estimator_trials["elapsed"] < 30.0, f"took {estimator_trials['elapsed']:.1f}s"
    _report(1, "four-estimator equivalence")


def test_criterion_2_gauge_membership(estimator_trials):
    worst_resid = max(t["residual"] for t in estimator_trials["trials"])
    assert worst_resid <= 1e-8, f"worst marginalization residual {worst_resid:.3e}"
    worst_idem = 0.0
    for trial in estimator_trials["trials"][::4]:
        P = projection_dense(trial["gauge"], trial["space"])
        worst_idem = max(worst_idem, float(np.abs(P @ P - P).max()))
    assert worst_idem <= 1e-10, f"worst idempotence defect {worst_idem:.3e}"
    _report(2, "gauge membership of ridge optima")


# -- criterion 3: kernel-trick exactness and scaling ----------------------------


def _kind_transforms(space, rng):
    subs = space.subsequences()
    gauge = GaugeSpec(float(rng.uniform(0.2, 1.0)), rand_pi(space, rng))
    ref = space.sequences_array()[rng.integers(0, space.n_sequences)]
    off_ref = [s for s in subs if all(c != ref[p - 1] for p, c in zip(s.positions, s.chars))]
    off_zero = [s for s in subs if all(c != 0 for c in s.chars)]
    kinds = [
        ("gauge-weights", transform_rows("gauge-weights", space, subs, gauge=gauge), gauge),
        ("hierarchical", transform_rows("hierarchical", space, subs, gauge=gauge), None),
        ("zero-sum", transform_rows("zero-sum", space, subs), None),
        ("wild-type", transform_rows("wild-type", space, off_ref, reference=ref), None),
        ("background-averaged",
         transform_rows("background-averaged", space, off_ref, reference=ref), None),
        ("fourier", transform_rows("fourier", space, off_zero), None),
    ]
    if space.alpha == 2:
        kinds.append(("walsh-hadamard",
                      transform_rows("walsh-hadamard", space,
                                     [s.positions for s in off_zero]), None))
    return kinds


def test_criterion_3_kernel_trick_exactness():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for space in small_spaces():
        kernel = rand_product_kernel(space, rng)
        K = kernel.dense()
        t = max(2, space.n_sequences // 2)
        X = space.sequences_array()[rng.integers(0, space.n_sequences, size=t)]
        data = TrainingData(X, rng.standard_normal(t), 0.5)
        for kind, transform, gauge in _kind_transforms(space, rng):
            got = transform_posterior(transform, kernel, data)
            want = dense_transform_posterior(transform.dense_matrix(space), K, data, space)
            worst = max(worst, float(np.abs(got.mean - want.mean).max()),
                        float(np.abs(got.cov - want.cov).max()))
            if gauge is not None:
                direct = gauge_weight_posterior(gauge, kernel, data, transform.keys)
                worst = max(worst, float(np.abs(direct.mean - want.mean).max()),
                            float(np.abs(direct.cov - want.cov).max()))
    assert worst <= 1e-8, f"worst deviation from the dense oracle {worst:.3e}"
    _report(3, "kernel-trick exactness (scaling timed separately)")


def _time_gauge_posterior(ell, t, j, rng):
    space = SequenceSpace("ab", ell)
    block = np.array([[1.0, 0.35], [0.35, 1.0]])
    kernel = ProductKernel(np.stack([block] * ell), space)
    gauge = GaugeSpec(1.0, ProductDistribution.uniform(space))
    X = rng.integers(0, 2, size=(t, ell))
    data = TrainingData(X, rng.standard_normal(t), 0.5)
    subs = []
    seen = set()
    while len(subs) < j:
        size = int(rng.integers(0, 4))
        positions = tuple(sorted(rng.choice(ell, size=size, replace=False) + 1))
        chars = tuple(int(c) for c in rng.integers(0, 2, size=size))
        if (positions, chars) not in seen:
            seen.add((positions, chars))
            subs.append(Subsequence(positions, chars))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        gauge_weight_posterior(gauge, kernel, data, subs)
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_3_runtime_independent_of_space_size():
    rng = np.random.default_rng(SEED + 33)
    t_short = _time_gauge_posterior(10, 200, 50, rng)
    t_long = _time_gauge_posterior(20, 200, 50, rng)
    ratio = t_long / t_short
    assert ratio < 3.0, f"doubling the length scaled runtime by {ratio:.2f}x"
    _report(3, f"kernel-trick scaling (ratio {ratio:.2f}x)")


# -- criterion 4: exact combinatorics -------------------------------------------


def test_criterion_4_krawtchouk_identity_exact():
    for alpha in (2, 3, 4):
        for ell in range(1, 9):
            for d in range(ell + 1):
                for j in range(ell - d + 1):
                    lhs = sum(binomial(ell - k, j - k) * krawtchouk(k, d, ell, alpha)
                              for k in range(j + 1))
                    assert lhs == alpha ** j * binomial(ell - d, j), (alpha, ell, d, j)
    _report(4, "Krawtchouk identity, exact integers")


# -- criterion 5: closed-form weight penalties ----------------------------------


def test_criterion_5_closed_form_phit_kinv_phi():
    rng = np.random.default_rng(SEED + 5)
    worst_dense, worst_cor = 0.0, 0.0
    for space in small_spaces():
        phi = space.phi_dense()
        subs = space.subsequences()
        vc = rand_vc_kernel(space, rng)
        pk = rand_product_kernel(space, rng)
        geo = GeometricKernelSpec(float(rng.uniform(0.1, 0.9)))
        conn = ConnectednessKernelSpec(
            tuple(rng.uniform(-0.8 / (space.alpha - 1), 0.8, space.length)))
        jen_factors = tuple(tuple(rng.uniform(0.1, 0.6, space.alpha)) for _ in range(space.length))
        jen = JengaKernelSpec(tuple(int(s) for s in rng.choice([-1, 1], space.length)),
                              jen_factors)
        for kernel, closed in (
            (vc, lambda a, b: phit_kinv_phi_vc(vc, a, b)),
            (pk, lambda a, b: phit_kinv_phi_product(pk, a, b)),
            (geo.to_product(space), lambda a, b: phit_kinv_phi_geometric(geo, a, b, space)),
            (conn.to_product(space),
             lambda a, b: phit_kinv_phi_connectedness(conn, a, b, space)),
            (jen.to_product(space), lambda a, b: phit_kinv_phi_jenga(jen, a, b, space)),
        ):
            dense = phi.T @ np.linalg.inv(kernel.dense()) @ phi
            values = np.array([[closed(a, b) for b in subs] for a in subs])
            worst_dense = max(worst_dense, float(np.abs(values - dense).max()))
        for spec, fn in ((geo, phit_kinv_phi_geometric), (conn, phit_kinv_phi_connectedness),
                         (jen, phit_kinv_phi_jenga)):
            product = spec.to_product(space)
            for a in subs:
                for b in subs:
                    worst_cor = max(worst_cor, abs(fn(spec, a, b, space)
                                                   - phit_kinv_phi_product(product, a, b)))
    assert worst_dense <= 1e-8, f"worst closed-form-versus-dense gap {worst_dense:.3e}"
    assert worst_cor <= 1e-10, f"worst corollary-versus-product gap {worst_cor:.3e}"
    _report(5, "closed-form weight penalties")


# -- criterion 6: induced priors -------------------------------------------------


def test_criterion_6_induced_priors():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for space in small_spaces():
        phi = space.phi_dense()
        lam = float(rng.uniform(0.3, 3.0))
        pi = rand_pi(space, rng)
        kern = induced_kernel_diag_lambda_pi(lam, pi)
        diag = np.array([
            lam ** sub.size * np.prod([pi[p][c] for p, c in zip(sub.positions, sub.chars)])
            for sub in space.enumerate_subsequences()])
        worst = max(worst, float(np.abs(kern.dense() - phi @ np.diag(1 / diag) @ phi.T).max()))
        uni = induced_kernel_diag_lambda_pi(lam, ProductDistribution.uniform(space))
        X = space.sequences_array()
        D = (X[:, None, :] != X[None, :, :]).sum(axis=2)
        worst = max(worst, float(np.abs(uni.dense()
                                        - (1 + space.alpha / lam) ** (space.length - D)).max()))
        a = rng.uniform(0.3, 3.0, space.length + 1)
        vc = induced_vc_from_order_diag(a, space)
        diag = np.array([a[sub.size] for sub in space.enumerate_subsequences()])
        worst = max(worst, float(np.abs(vc.dense() - phi @ np.diag(1 / diag) @ phi.T).max()))
        back = order_diag_from_vc(vc)
        assert not isinstance(back, NotRepresentable)
        worst = max(worst, float(np.abs(back - a).max()))
        flat = order_diag_from_vc(VcKernel(np.ones(space.length + 1), space))
        assert isinstance(flat, NotRepresentable)
    assert worst <= 1e-10, f"worst induced-prior gap {worst:.3e}"
    _report(6, "diagonal-penalty induced priors")


# -- criterion 7: bi-allelic bases ------------------------------------------------


def test_criterion_7_biallelic_bases():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    witnessed = False
    for ell in (1, 2, 3):
        space = SequenceSpace("ab", ell)
        X = space.sequences_array()
        signs = 1.0 - 2.0 * X
        masks = [[p + 1 for p in range(ell) if m >> p & 1] for m in range(2 ** ell)]
        H = np.stack([np.prod(signs[:, [p - 1 for p in mask]], axis=1) for mask in masks],
                     axis=1)
        T = np.stack([np.prod(X[:, [p - 1 for p in mask]] == 1, axis=1) for mask in masks],
                     axis=1).astype(float)
        rho = rng.uniform(0.4, 3.0, ell)
        diag = np.array([np.prod(rho[[p - 1 for p in mask]]) for mask in masks])
        KH = H @ np.diag(1 / diag) @ H.T
        KT = T @ np.diag(1 / diag) @ T.T
        for i in range(space.n_sequences):
            for j in range(space.n_sequences):
                worst = max(worst, abs(wh_induced_entry(rho, X[i], X[j], space) - KH[i, j]),
                            abs(wt_induced_entry(rho, X[i], X[j], space) - KT[i, j]))
        wt_diag = [wt_induced_entry(rho, x, x, space) for x in X]
        witnessed = witnessed or (max(wt_diag) - min(wt_diag) > 1e-6)
    assert worst <= 1e-10, f"worst bi-allelic induced-prior gap {worst:.3e}"
    assert witnessed, "reference-anchored prior diagonal was constant"
    _report(7, "bi-allelic basis priors")


# -- criterion 8: posterior support -----------------------------------------------


def test_criterion_8_posterior_support():
    rng = np.random.default_rng(SEED + 8)
    space = SequenceSpace("ab", 2)
    kernel = rand_product_kernel(space, rng)
    gauge = GaugeSpec(float(rng.uniform(0.3, 1.0)), rand_pi(space, rng))
    X = space.sequences_array()[rng.integers(0, 4, size=5)]
    data = TrainingData(X, rng.standard_normal(5), 0.3)
    post = gauge_weight_posterior(gauge, kernel, data, space.subsequences())
    w, V = np.linalg.eigh(0.5 * (post.cov + post.cov.T))
    L = V * np.sqrt(np.clip(w, 0.0, None))
    samples = post.mean + rng.standard_normal((10_000, 9)) @ L.T
    from seqgp.gauges import b_matrix_dense
    B = b_matrix_dense(gauge, space)  # rows encode the marginalization constraints
    worst = float(np.abs(B @ samples.T).max())
    assert worst <= 1e-6, f"worst sample residual {worst:.3e}"
    spot = max(marginalization_residual(s, gauge, space) for s in samples[:100])
    assert spot <= 1e-6
    _report(8, "posterior support stays in the gauge")


# -- criterion 9: CLI end-to-end ----------------------------------------------------


def _run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "seqgp", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_9_cli_end_to_end(tmp_path):
    code, out, err = _run_cli("verify")
    assert code == 0, f"verify failed:\n{out}\n{err}"

    config = {
        "alphabet": "ab",
        "length": 2,
        "kernel": {"family": "connectedness", "z": [0.4, 0.25]},
        "gauge": {"lambda": "inf", "pi": "uniform"},
        "noise_variance": 0.2,
        "transform": {"kind": "gauge-weights"},
        "output": {"covariance": True, "precision": 10},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    train = tmp_path / "train.csv"
    train.write_text("sequence,value\naa,1.2\nab,0.7\nba,-0.3\nbb,0.9\nab,0.65\naa,1.1\n")
    args = ("posterior", "--config", str(cfg), "--data", str(train),
            "--coeffs=-,1:a,1:b,2:a,2:b,1:a;2:a")
    first = _run_cli(*args)
    second = _run_cli(*args)
    assert first[0] == 0, first[2]
    assert first == second, "repeated invocations differ"

    # reproduce the table against the dense oracle
    space = SequenceSpace("ab", 2)
    kernel = ConnectednessKernelSpec((0.4, 0.25)).to_product(space)
    gauge = GaugeSpec(1.0, ProductDistribution.uniform(space))
    data = TrainingData.from_sequences(
        space, ["aa", "ab", "ba", "bb", "ab", "aa"], [1.2, 0.7, -0.3, 0.9, 0.65, 1.1], 0.2)
    keys = [space.parse_subsequence(c) for c in ("-", "1:a", "1:b", "2:a", "2:b", "1:a;2:a")]
    transform = transform_rows("gauge-weights", space, keys, gauge=gauge)
    want = dense_transform_posterior(transform.dense_matrix(space), kernel.dense(), data,
                                     space, labels=transform.labels)
    rows = [line.split("\t") for line in first[1].splitlines() if not line.startswith("#")]
    header, body = rows[0], rows[1:]
    assert header[:3] == ["label", "mean", "sd"]
    assert [r[0] for r in body] == list(want.labels)
    for i, row in enumerate(body):
        assert abs(float(row[1]) - want.mean[i]) <= 1e-8
        assert abs(float(row[2]) - want.sd[i]) <= 1e-8
        for j, value in enumerate(row[3:]):
            assert abs(float(value) - want.cov[i, j]) <= 1e-8
    _report(9, "CLI verification and deterministic posterior run")
