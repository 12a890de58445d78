import numpy as np
import pytest

from seqgp import (
    GaugeSpec,
    ProductDistribution,
    SequenceSpace,
    TrainingData,
    build_theta_regularizer,
    gauge_weight_posterior,
    gp_posterior,
)
from seqgp.gauges import b_matrix_dense, penalty_dense
from seqgp.oracle import (
    DenseWorkspace,
    check_orthogonality,
    dense_transform_posterior,
    gauge_weight_posterior_closed_form,
    gnk_sample,
    gnk_weight_variances,
    run_conformance,
    sample_function_prior,
    vc_spectral_projectors,
)
from seqgp.errors import NumericalError, ParameterError

from conftest import rand_data, rand_gauge, rand_product_kernel


class TestConformance:
    def test_all_registered_comparisons_pass(self):
        results = run_conformance()
        failed = [r for r in results if not r.passed]
        assert not failed, "failing conformance checks: " + ", ".join(
            f"{r.name} (err {r.error:.3e} > tol {r.tolerance:.1e})" for r in failed)

    def test_deterministic_given_seed(self):
        a = run_conformance(seed=7)
        b = run_conformance(seed=7)
        assert [(r.name, r.error) for r in a] == [(r.name, r.error) for r in b]


class TestSamplers:
    def test_function_prior_covariance(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        K = kernel.dense()
        n = 100_000
        samples = sample_function_prior(K, n, rng)
        emp = samples.T @ samples / n
        sd = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K ** 2) / n)
        assert np.all(np.abs(emp - K) <= 3 * sd + 1e-10)

    def test_zero_samples(self, ab2, rng):
        K = rand_product_kernel(ab2, rng).dense()
        assert sample_function_prior(K, 0, rng).shape == (0, 4)

    def test_indefinite_covariance_rejected(self, rng):
        with pytest.raises(NumericalError):
            sample_function_prior(np.array([[1.0, 2.0], [2.0, 1.0]]), 3, rng)

    def test_weight_prior_covariance(self, ab2, rng):
        from seqgp.oracle import sample_weight_prior
        from seqgp import build_theta_regularizer
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        W = np.linalg.inv(build_theta_regularizer(kernel, gauge, ab2))
        n = 100_000
        samples = sample_weight_prior(W, n, rng)
        emp = samples.T @ samples / n
        sd = np.sqrt((np.outer(np.diag(W), np.diag(W)) + W ** 2) / n)
        assert np.all(np.abs(emp - W) <= 3 * sd + 1e-10)
        # pushed through the indicator map, weight draws carry the kernel prior
        phi = ab2.phi_dense()
        fn = samples @ phi.T
        K = kernel.dense()
        emp_k = fn.T @ fn / n
        sd_k = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K ** 2) / n)
        assert np.all(np.abs(emp_k - K) <= 3 * sd_k + 1e-10)


class TestGnk:
    def test_singleton_neighborhoods_are_additive(self, rng):
        sp = SequenceSpace("ab", 3)
        samples = gnk_sample([{1}, {2}, {3}], sp, 50, rng)
        projectors = vc_spectral_projectors(sp)
        for k in (2, 3):
            assert np.abs(samples @ projectors[k].T).max() < 1e-10

    def test_covariance_matches_weight_prior(self, rng):
        sp = SequenceSpace("ab", 3)
        hoods = [{1, 2}, {2}, {2, 3}]
        variances = gnk_weight_variances(hoods, sp)
        phi = sp.phi_dense()
        K = phi @ np.diag(variances) @ phi.T
        n = 100_000
        samples = gnk_sample(hoods, sp, n, rng)
        emp = samples.T @ samples / n
        sd = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K ** 2) / n)
        assert np.all(np.abs(emp - K) <= 3 * sd + 1e-10)

    def test_zero_samples(self, rng):
        sp = SequenceSpace("ab", 2)
        assert gnk_sample([{1}, {2}], sp, 0, rng).shape == (0, 4)

    def test_neighborhood_must_contain_position(self, rng):
        sp = SequenceSpace("ab", 2)
        with pytest.raises(ParameterError):
            gnk_sample([{2}, {2}], sp, 1, rng)

    def test_duplicate_neighborhoods_collapse(self, rng):
        sp = SequenceSpace("ab", 2)
        variances = gnk_weight_variances([{1, 2}, {1, 2}], sp)
        assert np.count_nonzero(variances) == 4
        np.testing.assert_allclose(variances[variances > 0], 0.5)


class TestCheckOrthogonality:
    def test_identity_is_not_a_regularizer_for_zero_sum(self):
        sp = SequenceSpace("ab", 1)
        gauge = GaugeSpec(1.0, ProductDistribution.uniform(sp))
        coupling = check_orthogonality(np.eye(3), gauge, sp)
        assert coupling > 1e-3

    def test_built_regularizer_orthogonalizes(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        lam = build_theta_regularizer(kernel, gauge, ab2)
        assert check_orthogonality(lam, gauge, ab2) <= 1e-8

    def test_regularizer_decomposition(self, ab2, rng):
        # the built penalty is (chol K^-1 Phi)' (chol K^-1 Phi) + B'B
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        lam = build_theta_regularizer(kernel, gauge, ab2)
        phi = ab2.phi_dense()
        L = np.linalg.cholesky(np.linalg.inv(kernel.dense()))
        A = L.T @ phi
        B = b_matrix_dense(gauge, ab2)
        np.testing.assert_allclose(A.T @ A + B.T @ B, lam, atol=1e-10)


class TestDenseWorkspace:
    def test_consistency(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        ws = DenseWorkspace.build(ab2, kernel, gauge)
        assert ws.phi.shape == (4, 9)
        np.testing.assert_allclose(ws.penalty, penalty_dense(gauge, ab2), atol=1e-12)
        np.testing.assert_allclose(ws.regularizer,
                                   build_theta_regularizer(kernel, gauge, ab2), atol=1e-8)


class TestDenseTransformPosterior:
    def test_identity_transform_is_gp(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        data = rand_data(ab2, rng, 3, 0.5)
        got = dense_transform_posterior(np.eye(4), kernel.dense(), data, ab2)
        want = gp_posterior(kernel, data, ab2.sequences_array(), ab2)
        np.testing.assert_allclose(got.mean, want.mean, atol=1e-10)
        np.testing.assert_allclose(got.cov, want.cov, atol=1e-10)

    def test_empty_training(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        K = kernel.dense()
        M = rng.standard_normal((5, 4))
        data = TrainingData(np.empty((0, 2), dtype=np.int64), np.empty(0), 1.0)
        post = dense_transform_posterior(M, K, data, ab2)
        np.testing.assert_array_equal(post.mean, 0.0)
        np.testing.assert_allclose(post.cov, M @ K @ M.T, atol=1e-12)

    def test_jitter_ladder_is_honored(self, ab2, rng):
        # duplicate rows under vanishing noise: singular without jitter
        kernel = rand_product_kernel(ab2, rng)
        X = ab2.sequences_array()[[1, 1]]
        data = TrainingData(X, [0.5, 0.5], 1e-300)
        with pytest.raises(NumericalError):
            dense_transform_posterior(np.eye(4), kernel.dense(), data, ab2, ladder=(0.0,))
        post = dense_transform_posterior(np.eye(4), kernel.dense(), data, ab2, ladder=(1e-8,))
        assert post.mean[1] == pytest.approx(0.5, abs=1e-6)


class TestGaugeWeightClosedForm:
    @pytest.mark.parametrize("t", [0, 5])
    def test_matches_rows_route(self, ab3, rng, t):
        kernel = rand_product_kernel(ab3, rng)
        gauge = rand_gauge(ab3, rng)
        data = rand_data(ab3, rng, t, 0.5)
        subs = ab3.subsequences()[:12]
        got = gauge_weight_posterior_closed_form(gauge, kernel, data, subs)
        want = gauge_weight_posterior(gauge, kernel, data, subs)
        assert got.labels == want.labels
        np.testing.assert_allclose(got.mean, want.mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.cov, want.cov, rtol=0, atol=1e-10)


class TestSpectralProjectors:
    def test_partition_of_identity(self):
        for sp in (SequenceSpace("ab", 3), SequenceSpace("abc", 2)):
            projectors = vc_spectral_projectors(sp)
            np.testing.assert_allclose(sum(projectors), np.eye(sp.n_sequences), atol=1e-10)
            for k, Pk in enumerate(projectors):
                np.testing.assert_allclose(Pk @ Pk, Pk, atol=1e-10)
                for Pj in projectors[k + 1:]:
                    np.testing.assert_allclose(Pk @ Pj, 0.0, atol=1e-10)

    def test_dimensions_match_counts(self):
        from seqgp import binomial
        sp = SequenceSpace("abc", 3)
        for k, Pk in enumerate(vc_spectral_projectors(sp)):
            dim = binomial(sp.length, k) * (sp.alpha - 1) ** k
            assert np.trace(Pk) == pytest.approx(dim, abs=1e-8)
