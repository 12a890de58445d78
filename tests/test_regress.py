import tracemalloc

import numpy as np
import pytest

from seqgp import (
    ConnectednessKernelSpec,
    DataError,
    EMPTY_SUBSEQUENCE,
    GaugeGPRegressor,
    GaugeSpec,
    GeometricKernelSpec,
    ParameterError,
    ProductDistribution,
    ProductKernel,
    SequenceSpace,
    Subsequence,
    TrainingData,
    VcKernel,
    bayes_weight_posterior,
    build_theta_regularizer,
    gp_posterior,
    marginalization_residual,
    penalty_dense,
    phit_kinv_phi_product,
    phit_kinv_phi_vc,
    ridge_function,
    ridge_weights,
)
from seqgp.kernels import JengaKernelSpec
from seqgp.regress import (
    phi_rows,
    phit_kinv_phi_connectedness,
    phit_kinv_phi_geometric,
    phit_kinv_phi_jenga,
    prior_penalty_dense,
    whitened_cross,
)
from seqgp.gauges import projection_dense

from conftest import rand_data, rand_gauge, rand_pi, rand_product_kernel, rand_vc_kernel, small_spaces


def _empty_data(space, noise=1.0):
    return TrainingData(np.empty((0, space.length), dtype=np.int64), np.empty(0), noise)


class TestGpPosterior:
    def test_empty_training_returns_prior(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        post = gp_posterior(kernel, _empty_data(ab2), ab2.sequences_array(), ab2)
        np.testing.assert_array_equal(post.mean, 0.0)
        np.testing.assert_allclose(post.cov, kernel.dense(), atol=1e-12)

    def test_huge_noise_shrinks_to_zero(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        data = TrainingData(ab2.sequences_array()[:1], [3.0], 1e9)
        post = gp_posterior(kernel, data, ab2.sequences_array(), ab2)
        assert np.abs(post.mean).max() < 1e-6

    def test_near_noiseless_interpolation(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        X = ab2.sequences_array()
        y = rng.standard_normal(4)
        post = gp_posterior(kernel, TrainingData(X, y, 1e-8), X, ab2)
        np.testing.assert_allclose(post.mean, y, atol=1e-4)

    def test_duplicates_are_kept(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        X = ab2.sequences_array()[[0, 0]]
        data = TrainingData(X, [1.0, 1.0], 1.0)
        single = TrainingData(X[:1], [1.0], 0.5)
        post_dup = gp_posterior(kernel, data, ab2.sequences_array(), ab2)
        post_single = gp_posterior(kernel, single, ab2.sequences_array(), ab2)
        # two observations at noise 1 agree with one observation at noise 1/2
        np.testing.assert_allclose(post_dup.mean, post_single.mean, atol=1e-10)

    def test_zero_noise_rejected(self, ab2):
        with pytest.raises(ParameterError):
            TrainingData(ab2.sequences_array()[:1], [1.0], 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_targets_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            GaugeGPRegressor(alphabet="ab", length=2).fit(["aa", "ab", "ba"], [1.0, bad, 0.5])


class TestWhitenedCross:
    def test_conditioning_holds_one_training_matrix(self, rng):
        # the symmetric build writes K_XX once and the factorization runs in
        # it: the traced peak stays below one and a half t x t arrays
        t = 1000
        sp = SequenceSpace("ACGT", 8)
        kernel = ConnectednessKernelSpec((-0.2, 0.3) * 4).to_product(sp)
        data = TrainingData(rng.integers(0, 4, size=(t, 8)), rng.standard_normal(t), 0.1)
        Q = rng.integers(0, 4, size=(5, 8))
        kernel.matrix(Q[:1])  # loads scipy outside the traced region
        tracemalloc.start()
        try:
            mean, W = whitened_cross(kernel.matrix(data.X), data, kernel.matrix(Q, data.X))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert W.shape == (t, 5) and np.isfinite(mean).all()
        assert peak < 1.5 * 8 * t * t


class TestRidgeWeights:
    def test_zero_targets(self, ab2, rng):
        lam = np.eye(ab2.n_subsequences)
        data = TrainingData(ab2.sequences_array()[:3], np.zeros(3), 1.0)
        w = ridge_weights(lam, data, ab2, beta=0.5)
        np.testing.assert_array_equal(w, 0.0)

    def test_large_beta_shrinks(self, ab2, rng):
        lam = np.eye(ab2.n_subsequences)
        data = rand_data(ab2, rng, 4, 1.0)
        w = ridge_weights(lam, data, ab2, beta=1e12)
        assert np.abs(w).max() < 1e-9

    def test_equals_bayes_map(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        lam = build_theta_regularizer(kernel, gauge, ab2)
        noise = 0.3
        data = rand_data(ab2, rng, 4, noise)
        w_ridge = ridge_weights(lam, data, ab2, beta=noise)
        w_map = bayes_weight_posterior(np.linalg.inv(lam), data, ab2).mean
        np.testing.assert_allclose(w_ridge, w_map, atol=1e-9)


class TestRidgeFunction:
    def test_zero_targets(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        data = TrainingData(ab2.sequences_array()[:2], np.zeros(2), 1.0)
        f = ridge_function(np.linalg.inv(kernel.dense()), data, ab2, beta=1.0)
        np.testing.assert_array_equal(f, 0.0)

    def test_matches_gp_mean(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        noise = 0.4
        data = rand_data(ab2, rng, 5, noise)
        f = ridge_function(np.linalg.inv(kernel.dense()), data, ab2, beta=noise)
        gp = gp_posterior(kernel, data, ab2.sequences_array(), ab2)
        np.testing.assert_allclose(f, gp.mean, atol=1e-9)

    def test_weight_route_matches_function_route(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        delta = np.linalg.inv(kernel.dense())
        lam = ab2.phi_dense().T @ delta @ ab2.phi_dense() + penalty_dense(gauge, ab2)
        data = rand_data(ab2, rng, 4, 0.7)
        f_route = ridge_function(delta, data, ab2, beta=0.7)
        w_route = ab2.phi_dense() @ ridge_weights(lam, data, ab2, beta=0.7)
        np.testing.assert_allclose(w_route, f_route, atol=1e-9)


class TestBayesWeightPosterior:
    def test_zero_targets(self, ab2, rng):
        data = TrainingData(ab2.sequences_array()[:2], np.zeros(2), 1.0)
        post = bayes_weight_posterior(np.eye(ab2.n_subsequences), data, ab2)
        np.testing.assert_array_equal(post.mean, 0.0)
        assert post.cov.shape == (9, 9)

    def test_pushforward_matches_gp(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        W = np.linalg.inv(build_theta_regularizer(kernel, gauge, ab2))
        phi = ab2.phi_dense()
        np.testing.assert_allclose(phi @ W @ phi.T, kernel.dense(), atol=1e-8)
        data = rand_data(ab2, rng, 4, 0.5)
        post = bayes_weight_posterior(W, data, ab2)
        gp = gp_posterior(kernel, data, ab2.sequences_array(), ab2)
        np.testing.assert_allclose(phi @ post.mean, gp.mean, atol=1e-8)


class TestThetaRegularizer:
    def test_end_to_end_zero_sum(self, ab2, rng):
        kernel = GeometricKernelSpec(0.5).to_product(ab2)
        gauge = GaugeSpec(1.0, ProductDistribution.uniform(ab2))
        lam = build_theta_regularizer(kernel, gauge, ab2)
        noise = 0.2
        data = rand_data(ab2, rng, 4, noise)
        w = ridge_weights(lam, data, ab2, beta=noise)
        gp = gp_posterior(kernel, data, ab2.sequences_array(), ab2)
        np.testing.assert_allclose(ab2.phi_dense() @ w, gp.mean, atol=1e-8)
        assert marginalization_residual(w, gauge, ab2) <= 1e-8

    def test_wild_type_weights_vanish_on_reference(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        ref = "ab"
        gauge = GaugeSpec(1.0, ProductDistribution.point_mass(ab2, ref))
        lam = build_theta_regularizer(kernel, gauge, ab2)
        data = rand_data(ab2, rng, 4, 0.5)
        w = ridge_weights(lam, data, ab2, beta=0.5)
        ref_chars = ab2.encode_sequence(ref)
        for j, sub in enumerate(ab2.enumerate_subsequences()):
            if any(c == ref_chars[p - 1] for p, c in zip(sub.positions, sub.chars)) \
                    and sub.size > 0:
                assert abs(w[j]) < 1e-8

    def test_zero_targets_zero_weights(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        lam = build_theta_regularizer(kernel, gauge, ab2)
        data = TrainingData(ab2.sequences_array()[:3], np.zeros(3), 1.0)
        np.testing.assert_array_equal(ridge_weights(lam, data, ab2, beta=1.0), 0.0)

    def test_trivial_gauge_rejected(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = GaugeSpec(0.0, ProductDistribution.uniform(ab2))
        with pytest.raises(ParameterError):
            build_theta_regularizer(kernel, gauge, ab2)


class TestPhitKinvPhiVc:
    def test_ell1_empty_entry(self):
        sp = SequenceSpace("ab", 1)
        k = VcKernel([1.0, 1.0], sp)
        assert phit_kinv_phi_vc(k, EMPTY_SUBSEQUENCE, EMPTY_SUBSEQUENCE) == pytest.approx(1.0)

    def test_empty_entry_counting_identity(self, rng):
        sp = SequenceSpace("abc", 2)
        k = rand_vc_kernel(sp, rng)
        kinv = k.dense_inverse()
        assert phit_kinv_phi_vc(k, EMPTY_SUBSEQUENCE, EMPTY_SUBSEQUENCE) == pytest.approx(
            kinv.sum(), rel=1e-10)

    @pytest.mark.parametrize("space_idx", range(4))
    def test_matches_dense(self, space_idx, rng):
        sp = small_spaces()[space_idx]
        k = rand_vc_kernel(sp, rng)
        phi = sp.phi_dense()
        dense = phi.T @ np.linalg.inv(k.dense()) @ phi
        subs = sp.subsequences()
        closed = np.array([[phit_kinv_phi_vc(k, a, b) for b in subs] for a in subs])
        np.testing.assert_allclose(closed, dense, atol=1e-8)


class TestPhitKinvPhiProduct:
    def test_identity_blocks_ell1(self):
        sp = SequenceSpace("ab", 1)
        k = ProductKernel([np.eye(2)], sp)
        empty = EMPTY_SUBSEQUENCE
        s0 = Subsequence((1,), (0,))
        assert phit_kinv_phi_product(k, empty, empty) == pytest.approx(2.0)
        assert phit_kinv_phi_product(k, empty, s0) == pytest.approx(1.0)
        assert phit_kinv_phi_product(k, s0, s0) == pytest.approx(1.0)

    def test_connectedness_ell1_closed_forms(self):
        sp = SequenceSpace("ab", 1)
        z = 0.4
        k = ConnectednessKernelSpec((z,)).to_product(sp)
        s0 = Subsequence((1,), (0,))
        assert phit_kinv_phi_product(k, s0, s0) == pytest.approx(1 / (1 - z * z))
        assert phit_kinv_phi_product(k, EMPTY_SUBSEQUENCE, EMPTY_SUBSEQUENCE) == pytest.approx(
            2 / (1 + z))

    @pytest.mark.parametrize("space_idx", range(4))
    def test_matches_dense(self, space_idx, rng):
        sp = small_spaces()[space_idx]
        k = rand_product_kernel(sp, rng)
        phi = sp.phi_dense()
        dense = phi.T @ np.linalg.inv(k.dense()) @ phi
        subs = sp.subsequences()
        closed = np.array([[phit_kinv_phi_product(k, a, b) for b in subs] for a in subs])
        np.testing.assert_allclose(closed, dense, atol=1e-8)

    def test_corollary_forms_match_product(self, rng):
        sp = SequenceSpace("ab", 2)
        subs = sp.subsequences()
        beta = 0.35
        geo = GeometricKernelSpec(beta)
        geo_pk = geo.to_product(sp)
        z = (0.25, -0.4)
        conn = ConnectednessKernelSpec(z)
        conn_pk = conn.to_product(sp)
        jen = JengaKernelSpec((1, -1), ((0.3, 0.5), (0.2, 0.6)))
        jen_pk = jen.to_product(sp)
        for a in subs:
            for b in subs:
                assert phit_kinv_phi_geometric(geo, a, b, sp) == pytest.approx(
                    phit_kinv_phi_product(geo_pk, a, b), abs=1e-10)
                assert phit_kinv_phi_connectedness(conn, a, b, sp) == pytest.approx(
                    phit_kinv_phi_product(conn_pk, a, b), abs=1e-10)
                assert phit_kinv_phi_jenga(jen, a, b, sp) == pytest.approx(
                    phit_kinv_phi_product(jen_pk, a, b), abs=1e-10)


class TestFourEstimatorEquivalence:
    @pytest.mark.parametrize("space_idx", range(4))
    @pytest.mark.parametrize("eta", [0.3, 1.0])
    def test_all_routes_agree(self, space_idx, eta, rng):
        sp = small_spaces()[space_idx]
        kernel = rand_product_kernel(sp, rng)
        gauge = GaugeSpec(eta, rand_pi(sp, rng))
        noise = 0.25
        data = rand_data(sp, rng, max(2, sp.n_sequences // 2), noise)
        K = kernel.dense()
        lam = build_theta_regularizer(kernel, gauge, sp)
        phi = sp.phi_dense()
        f_gp = gp_posterior(kernel, data, sp.sequences_array(), sp).mean
        w_opt = ridge_weights(lam, data, sp, beta=noise)
        f_opt = ridge_function(np.linalg.inv(K), data, sp, beta=noise)
        w_map = bayes_weight_posterior(np.linalg.inv(lam), data, sp).mean
        scale = max(1.0, np.abs(f_gp).max())
        assert np.abs(phi @ w_opt - f_gp).max() / scale < 1e-7
        assert np.abs(f_opt - f_gp).max() / scale < 1e-7
        assert np.abs(phi @ w_map - f_gp).max() / scale < 1e-7
        assert marginalization_residual(w_opt, gauge, sp) <= 1e-8


class TestGaussianTransformLaw:
    def test_projected_samples_match_moments(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        data = rand_data(ab2, rng, 3, 0.5)
        gp = gp_posterior(kernel, data, ab2.sequences_array(), ab2)
        gauge = rand_gauge(ab2, rng)
        P = projection_dense(gauge, ab2)
        full = [j for j, s in enumerate(ab2.enumerate_subsequences()) if s.size == ab2.length]
        Pbar = P[:, full]
        n = 100_000
        w, V = np.linalg.eigh(gp.cov)
        L = V * np.sqrt(np.clip(w, 0, None))
        samples = gp.mean + rng.standard_normal((n, 4)) @ L.T
        projected = samples @ Pbar.T
        target_mean = Pbar @ gp.mean
        target_cov = Pbar @ gp.cov @ Pbar.T
        mean_sd = np.sqrt(np.diag(target_cov) / n)
        assert np.all(np.abs(projected.mean(axis=0) - target_mean) <= 3 * mean_sd + 1e-12)
        emp_cov = np.cov(projected.T)
        cov_sd = np.sqrt((np.outer(np.diag(target_cov), np.diag(target_cov))
                          + target_cov ** 2) / n)
        assert np.all(np.abs(emp_cov - target_cov) <= 3 * cov_sd + 1e-10)


class TestPriorPenaltyDense:
    def test_dispatch_matches_dense(self, ab2, rng):
        phi = ab2.phi_dense()
        for kernel in (rand_product_kernel(ab2, rng), rand_vc_kernel(ab2, rng)):
            dense = phi.T @ np.linalg.inv(kernel.dense()) @ phi
            np.testing.assert_allclose(prior_penalty_dense(kernel, ab2), dense, atol=1e-8)

    def test_phi_rows_match_phi_dense(self, ab2):
        np.testing.assert_array_equal(phi_rows(ab2, ab2.sequences_array()), ab2.phi_dense())
