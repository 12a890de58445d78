import tracemalloc

import numpy as np
import pytest

from seqgp import (
    EMPTY_SUBSEQUENCE,
    FactorizedTransform,
    GaugeSpec,
    ParameterError,
    ProductDistribution,
    ProductKernel,
    SequenceSpace,
    SizeGuardError,
    Subsequence,
    TrainingData,
    VcKernel,
    bayes_weight_posterior,
    build_theta_regularizer,
    gauge_weight_posterior,
    gp_posterior,
    marginalization_residual,
    transform_posterior,
    transform_rows,
)
from seqgp.gauges import projection_dense
from seqgp.oracle import dense_transform_posterior
from seqgp import posterior
from seqgp.posterior import mk_matrix, mkmt_matrix

from conftest import rand_data, rand_gauge, rand_product_kernel, rand_vc_kernel, small_spaces


def _delta_transform(space, x):
    """One-row transform selecting the function value at sequence ``x``."""
    chars = space.encode_sequence(x)
    factors = np.zeros((1, space.length, space.alpha))
    factors[0, np.arange(space.length), chars] = 1.0
    return FactorizedTransform([space.format_sequence(chars)], factors)


def _empty_data(space, noise=1.0):
    return TrainingData(np.empty((0, space.length), dtype=np.int64), np.empty(0), noise)


class TestMkRow:
    def test_delta_row_reads_kernel(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        t = _delta_transform(ab2, "ab")
        want = [kernel.entry("ab", y) for y in ab2.enumerate_sequences()]
        assert mk_matrix(t, kernel, ab2.sequences_array())[0].tolist() == pytest.approx(want)

    def test_zero_sum_row_identity_blocks(self):
        sp = SequenceSpace("ab", 1)
        kernel = ProductKernel([np.eye(2)], sp)
        t = transform_rows("zero-sum", sp, [EMPTY_SUBSEQUENCE])
        row = mk_matrix(t, kernel, sp.encode_batch(["a", "b"]))[0]
        assert row.tolist() == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("space_idx", range(4))
    def test_matches_dense(self, space_idx, rng):
        sp = small_spaces()[space_idx]
        kernel = rand_product_kernel(sp, rng)
        gauge = rand_gauge(sp, rng)
        t = transform_rows("gauge-weights", sp, sp.subsequences(), gauge=gauge)
        M = t.dense_matrix(sp)
        X = sp.sequences_array()
        np.testing.assert_allclose(mk_matrix(t, kernel, X), M @ kernel.dense(), atol=1e-12)


class TestMkmt:
    def test_zero_sum_entries_identity_blocks(self):
        sp = SequenceSpace("ab", 1)
        kernel = ProductKernel([np.eye(2)], sp)
        t = transform_rows("zero-sum", sp, [EMPTY_SUBSEQUENCE, Subsequence((1,), (0,))])
        G = mkmt_matrix(t, kernel)
        assert G[0, 0] == pytest.approx(0.5)
        assert G[0, 1] == pytest.approx(0.0)

    def test_symmetry(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        t = transform_rows("zero-sum", ab2, ab2.subsequences())
        G = mkmt_matrix(t, kernel)
        np.testing.assert_allclose(G, G.T, atol=1e-14)

    @pytest.mark.parametrize("space_idx", range(4))
    def test_matches_dense(self, space_idx, rng):
        sp = small_spaces()[space_idx]
        kernel = rand_product_kernel(sp, rng)
        t = transform_rows("zero-sum", sp, sp.subsequences())
        M = t.dense_matrix(sp)
        np.testing.assert_allclose(mkmt_matrix(t, kernel), M @ kernel.dense() @ M.T,
                                   atol=1e-12)


class TestTransformPosterior:
    def test_empty_training_gives_prior(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        t = transform_rows("zero-sum", ab2, ab2.subsequences())
        post = transform_posterior(t, kernel, _empty_data(ab2))
        np.testing.assert_array_equal(post.mean, 0.0)
        np.testing.assert_allclose(post.cov, mkmt_matrix(t, kernel), atol=1e-14)

    def test_delta_row_reduces_to_gp(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        data = rand_data(ab2, rng, 3, 0.5)
        t = _delta_transform(ab2, "ba")
        post = transform_posterior(t, kernel, data)
        gp = gp_posterior(kernel, data, ["ba"], ab2)
        assert post.mean[0] == pytest.approx(gp.mean[0], abs=1e-12)
        assert post.cov[0, 0] == pytest.approx(gp.cov[0, 0], abs=1e-12)

    @pytest.mark.parametrize("space_idx", range(4))
    def test_matches_dense_oracle(self, space_idx, rng):
        sp = small_spaces()[space_idx]
        kernel = rand_product_kernel(sp, rng)
        data = rand_data(sp, rng, max(2, sp.n_sequences // 2), 0.3)
        gauge = rand_gauge(sp, rng)
        t = transform_rows("gauge-weights", sp, sp.subsequences(), gauge=gauge)
        got = transform_posterior(t, kernel, data)
        want = dense_transform_posterior(t.dense_matrix(sp), kernel.dense(), data, sp)
        np.testing.assert_allclose(got.mean, want.mean, atol=1e-8)
        np.testing.assert_allclose(got.cov, want.cov, atol=1e-8)

    def test_variance_only_mode(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        data = rand_data(ab2, rng, 3, 0.5)
        t = transform_rows("zero-sum", ab2, ab2.subsequences())
        full = transform_posterior(t, kernel, data, True)
        diag = transform_posterior(t, kernel, data, False)
        assert diag.cov is None
        np.testing.assert_allclose(diag.var, np.diag(full.cov), atol=1e-12)
        np.testing.assert_allclose(diag.mean, full.mean, atol=1e-14)

    def test_vc_kernel_matches_dense_oracle(self, ab2, rng):
        k = VcKernel([1.0, 0.5, 0.2], ab2)
        data = rand_data(ab2, rng, 3, 0.5)
        t = transform_rows("zero-sum", ab2, ab2.subsequences())
        got = transform_posterior(t, k, data)
        want = dense_transform_posterior(t.dense_matrix(ab2), k.dense(), data, ab2)
        np.testing.assert_allclose(got.mean, want.mean, atol=1e-8)
        np.testing.assert_allclose(got.cov, want.cov, atol=1e-8)

    @pytest.mark.parametrize("family", ["product", "vc"])
    def test_needs_rows(self, ab2, rng, family):
        kernel = rand_product_kernel(ab2, rng) if family == "product" else rand_vc_kernel(ab2, rng)
        t = transform_rows("zero-sum", ab2, [])
        with pytest.raises(ParameterError, match="at least one row"):
            transform_posterior(t, kernel, _empty_data(ab2))


class TestStreamedTransformPosterior:
    @pytest.fixture(autouse=True)
    def ragged_blocks(self, monkeypatch):
        # a side below ab3's 8 sequences that does not divide it runs
        # off-diagonal block pairs and a short last block
        monkeypatch.setattr(posterior, "_STREAM_BLOCK", 5)

    def test_empty_training_gives_prior(self, ab3, rng):
        kernel = rand_vc_kernel(ab3, rng)
        t = transform_rows("zero-sum", ab3, ab3.subsequences())
        post = transform_posterior(t, kernel, _empty_data(ab3))
        M = t.dense_matrix(ab3)
        np.testing.assert_array_equal(post.mean, 0.0)
        np.testing.assert_allclose(post.cov, M @ kernel.dense() @ M.T, rtol=0, atol=1e-12)

    def test_variance_only_mode(self, ab3, rng):
        kernel = rand_vc_kernel(ab3, rng)
        data = rand_data(ab3, rng, 4, 0.5)
        t = transform_rows("zero-sum", ab3, ab3.subsequences())
        full = transform_posterior(t, kernel, data, want_covariance=True)
        diag = transform_posterior(t, kernel, data, want_covariance=False)
        assert diag.cov is None
        assert full.labels == diag.labels == t.labels
        np.testing.assert_allclose(diag.var, np.diag(full.cov), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(diag.mean, full.mean)

    def test_size_guard(self):
        sp = SequenceSpace("ab", 21)
        kernel = VcKernel(np.ones(22), sp)
        t = transform_rows("zero-sum", sp, [EMPTY_SUBSEQUENCE])
        with pytest.raises(SizeGuardError, match="streamed"):
            transform_posterior(t, kernel, _empty_data(sp))


def test_streamed_posterior_never_builds_the_dense_kernel(monkeypatch, rng):
    # DNA at length 6 has 4096 sequences: the dense kernel alone is 134 MB,
    # so a traced peak of a quarter of that rules out any (n, n) array
    monkeypatch.setattr(VcKernel, "dense", None)
    sp = SequenceSpace("ACGT", 6)
    kernel = VcKernel([2.0 ** -k for k in range(7)], sp)
    off_ref = [s for s in sp.subsequences() if 0 not in s.chars]
    keys = [off_ref[i] for i in rng.choice(len(off_ref), 100, replace=False)]
    t = transform_rows("background-averaged", sp, keys, reference="AAAAAA")
    data = TrainingData(rng.integers(0, 4, size=(300, 6)), rng.standard_normal(300), 0.1)
    n = sp.n_sequences
    kernel.matrix(data.X[:1])  # loads scipy's BLAS outside the traced region
    tracemalloc.start()
    try:
        post = transform_posterior(t, kernel, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert post.cov.shape == (100, 100)
    assert peak < n * n * 8 / 4


class TestGaugeWeightPosterior:
    def test_prior_variance_identity_blocks(self):
        sp = SequenceSpace("ab", 1)
        kernel = ProductKernel([np.eye(2)], sp)
        gauge = GaugeSpec(1.0, ProductDistribution.uniform(sp))
        post = gauge_weight_posterior(gauge, kernel, _empty_data(sp), [EMPTY_SUBSEQUENCE])
        assert post.mean[0] == 0.0
        assert post.cov[0, 0] == pytest.approx(0.5)

    def test_wild_type_empty_coefficient_reads_reference(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        ref = "ba"
        gauge = GaugeSpec(1.0, ProductDistribution.point_mass(ab2, ref))
        X = ab2.sequences_array()
        f = rng.standard_normal(4)
        data = TrainingData(X, f, 1e-8)
        post = gauge_weight_posterior(gauge, kernel, data, [EMPTY_SUBSEQUENCE])
        assert post.mean[0] == pytest.approx(f[ab2.sequence_index(ref)], abs=1e-4)

    @pytest.mark.parametrize("space_idx", range(4))
    def test_matches_dense_projection_route(self, space_idx, rng):
        sp = small_spaces()[space_idx]
        kernel = rand_product_kernel(sp, rng)
        gauge = rand_gauge(sp, rng)
        data = rand_data(sp, rng, max(2, sp.n_sequences // 2), 0.4)
        subs = sp.subsequences()
        got = gauge_weight_posterior(gauge, kernel, data, subs)
        P = projection_dense(gauge, sp)
        full = [j for j, s in enumerate(sp.enumerate_subsequences()) if s.size == sp.length]
        want = dense_transform_posterior(P[:, full], kernel.dense(), data, sp)
        np.testing.assert_allclose(got.mean, want.mean, atol=1e-8)
        np.testing.assert_allclose(got.cov, want.cov, atol=1e-8)

    def test_matches_generic_rows_route(self, ab3, rng):
        kernel = rand_product_kernel(ab3, rng)
        gauge = rand_gauge(ab3, rng)
        data = rand_data(ab3, rng, 4, 0.5)
        subs = ab3.subsequences()[:10]
        got = gauge_weight_posterior(gauge, kernel, data, subs)
        t = transform_rows("gauge-weights", ab3, subs, gauge=gauge)
        want = transform_posterior(t, kernel, data)
        np.testing.assert_allclose(got.mean, want.mean, atol=1e-10)
        np.testing.assert_allclose(got.cov, want.cov, atol=1e-10)

    def test_posterior_covariance_psd(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        data = rand_data(ab2, rng, 4, 0.2)
        post = gauge_weight_posterior(gauge, kernel, data, ab2.subsequences())
        eigs = np.linalg.eigvalsh(0.5 * (post.cov + post.cov.T))
        assert eigs.min() >= -1e-8

    def test_matches_bayes_weight_projection(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        data = rand_data(ab2, rng, 4, 0.5)
        lam = build_theta_regularizer(kernel, gauge, ab2)
        bayes = bayes_weight_posterior(np.linalg.inv(lam), data, ab2)
        P = projection_dense(gauge, ab2)
        got = gauge_weight_posterior(gauge, kernel, data, ab2.subsequences())
        np.testing.assert_allclose(P @ bayes.mean, got.mean, atol=1e-8)
        np.testing.assert_allclose(P @ bayes.cov @ P.T, got.cov, atol=1e-8)

    def test_samples_stay_in_gauge(self, ab2, rng):
        # every draw from the coefficient posterior satisfies the
        # marginalization property over the complete subsequence set
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        data = rand_data(ab2, rng, 4, 0.3)
        post = gauge_weight_posterior(gauge, kernel, data, ab2.subsequences())
        w, V = np.linalg.eigh(0.5 * (post.cov + post.cov.T))
        L = V * np.sqrt(np.clip(w, 0.0, None))
        samples = post.mean + rng.standard_normal((10_000, len(post.mean))) @ L.T
        worst = max(marginalization_residual(s, gauge, ab2) for s in samples[:200])
        assert worst <= 1e-6
        # spot the rest with the dense constraint matrix for speed
        from seqgp.gauges import b_matrix_dense
        B = b_matrix_dense(gauge, ab2)
        assert np.abs(B @ samples.T).max() <= 1e-6

    def test_variance_only_mode(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        data = rand_data(ab2, rng, 4, 0.5)
        full = gauge_weight_posterior(gauge, kernel, data, ab2.subsequences(), True)
        diag = gauge_weight_posterior(gauge, kernel, data, ab2.subsequences(), False)
        assert diag.cov is None
        np.testing.assert_allclose(diag.var, np.diag(full.cov), atol=1e-12)

    def test_needs_subsequences(self, ab2, rng):
        kernel = rand_product_kernel(ab2, rng)
        gauge = rand_gauge(ab2, rng)
        with pytest.raises(ParameterError):
            gauge_weight_posterior(gauge, kernel, _empty_data(ab2), [])


class TestLargeLengthPath:
    def test_runs_without_dense_materialization(self, rng):
        # alpha^ell is ~10^9 here; only (j, t)-sized objects may exist
        sp = SequenceSpace("ab", 30)
        blocks = np.stack([np.array([[1.0, 0.4], [0.4, 1.0]])] * 30)
        kernel = ProductKernel(blocks, sp)
        gauge = GaugeSpec(1.0, ProductDistribution.uniform(sp))
        X = rng.integers(0, 2, size=(50, 30))
        data = TrainingData(X, rng.standard_normal(50), 0.5)
        subs = [EMPTY_SUBSEQUENCE, Subsequence((3,), (1,)), Subsequence((2, 17), (0, 1))]
        post = gauge_weight_posterior(gauge, kernel, data, subs)
        assert post.mean.shape == (3,)
        assert np.all(np.isfinite(post.cov))
