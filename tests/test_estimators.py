import numpy as np
import pytest

from seqgp import (
    DataError,
    GaugeSpec,
    ParameterError,
    ProductDistribution,
    SequenceSpace,
    TrainingData,
    gauge_weight_posterior,
    gp_posterior,
)
from seqgp.estimators import GaugeGPRegressor, SubsequenceFeaturizer, check_sequences
from seqgp.oracle import dense_transform_posterior
from seqgp.gauges import TRANSFORM_KINDS, all_transform_keys, projection_dense, transform_rows
from seqgp.posterior import transform_posterior

from conftest import rand_product_kernel

try:
    import sklearn.base
    HAVE_SKLEARN = True
except ImportError:
    HAVE_SKLEARN = False


TRAIN_X = ["aa", "ab", "ba", "bb", "ab"]
TRAIN_Y = [1.0, 0.4, -0.1, 0.8, 0.5]


def make_regressor(**overrides):
    params = dict(alphabet="ab", length=2,
                  kernel={"family": "geometric", "beta": 0.5},
                  gauge={"lambda": "inf", "pi": "uniform"},
                  noise_variance=0.25)
    params.update(overrides)
    return GaugeGPRegressor(**params)


class TestBaseEstimatorApi:
    def test_get_params(self):
        est = make_regressor()
        params = est.get_params()
        assert params["alphabet"] == "ab"
        assert params["noise_variance"] == 0.25

    def test_set_params_roundtrip(self):
        est = make_regressor()
        est.set_params(noise_variance=0.5, length=3)
        assert est.noise_variance == 0.5
        assert est.length == 3

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ParameterError, match="invalid parameter"):
            make_regressor().set_params(bandwidth=1.0)

    def test_clone_compatible_construction(self):
        est = make_regressor()
        clone = type(est)(**est.get_params())
        assert clone.get_params() == est.get_params()

    @pytest.mark.skipif(not HAVE_SKLEARN, reason="scikit-learn not installed")
    def test_sklearn_clone(self):
        clone = sklearn.base.clone(make_regressor())
        assert clone.get_params()["kernel"] == {"family": "geometric", "beta": 0.5}


class TestSubsequenceFeaturizer:
    def test_transform_matches_phi(self):
        feat = SubsequenceFeaturizer("ab", 2).fit(TRAIN_X)
        sp = SequenceSpace("ab", 2)
        F = feat.transform(TRAIN_X)
        assert F.shape == (5, 9)
        np.testing.assert_array_equal(F.sum(axis=1), 4)
        names = feat.get_feature_names_out()
        assert names[0] == "-" and len(names) == 9

    def test_requires_fit(self):
        with pytest.raises(ParameterError, match="not fitted"):
            SubsequenceFeaturizer("ab", 2).transform(TRAIN_X)

    def test_fit_transform(self):
        F = SubsequenceFeaturizer("ab", 2).fit_transform(TRAIN_X)
        assert F[:, 0].sum() == 5  # empty subsequence matches every row


class TestGaugeGPRegressor:
    def test_predict_matches_gp_posterior(self, rng):
        est = make_regressor().fit(TRAIN_X, TRAIN_Y)
        sp = est.space_
        data = TrainingData.from_sequences(sp, TRAIN_X, TRAIN_Y, 0.25)
        want = gp_posterior(est.kernel_, data, sp.sequences_array(), sp)
        mean, sd = est.predict(["aa", "ab", "ba", "bb"], return_std=True)
        np.testing.assert_allclose(mean, want.mean, atol=1e-12)
        np.testing.assert_allclose(sd, want.sd, atol=1e-12)

    def test_predict_with_covariance(self):
        est = make_regressor().fit(TRAIN_X, TRAIN_Y)
        mean, cov = est.predict(["aa", "bb"], return_cov=True)
        assert cov.shape == (2, 2)
        assert cov[0, 1] == pytest.approx(cov[1, 0])

    def test_score_near_one_for_low_noise(self):
        est = make_regressor(noise_variance=1e-6).fit(TRAIN_X[:4], TRAIN_Y[:4])
        assert est.score(TRAIN_X[:4], TRAIN_Y[:4]) > 0.999

    def test_coefficient_posterior_matches_module_api(self, rng):
        est = make_regressor().fit(TRAIN_X, TRAIN_Y)
        sp = est.space_
        post = est.coefficient_posterior(["-", "1:a", "1:b;2:b"])
        want = gauge_weight_posterior(est.gauge_, est.kernel_, est.data_,
                                      [sp.parse_subsequence(c) for c in ("-", "1:a", "1:b;2:b")])
        np.testing.assert_allclose(post.mean, want.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, want.cov, atol=1e-12)

    def test_coefficient_posterior_all_coeffs_matches_dense(self, rng):
        est = make_regressor().fit(TRAIN_X, TRAIN_Y)
        sp = est.space_
        post = est.coefficient_posterior()
        P = projection_dense(est.gauge_, sp)
        full = [j for j, s in enumerate(sp.enumerate_subsequences()) if s.size == sp.length]
        want = dense_transform_posterior(P[:, full], est.kernel_.dense(), est.data_, sp)
        np.testing.assert_allclose(post.mean, want.mean, atol=1e-8)
        np.testing.assert_allclose(post.cov, want.cov, atol=1e-8)

    def test_other_transform_kinds(self):
        est = make_regressor().fit(TRAIN_X, TRAIN_Y)
        post = est.coefficient_posterior(kind="fourier")
        assert len(post.labels) == 4
        post = est.coefficient_posterior(kind="walsh-hadamard", want_covariance=False)
        assert post.cov is None and post.var.shape == (4,)

    def test_vc_kernel_falls_back_to_dense(self, rng):
        est = make_regressor(kernel={"family": "vc", "lambdas": [1.0, 0.5, 0.25]})
        est.fit(TRAIN_X, TRAIN_Y)
        sp = est.space_
        post = est.coefficient_posterior(kind="zero-sum")
        M = transform_rows("zero-sum", sp, sp.subsequences()).dense_matrix(sp)
        want = dense_transform_posterior(M, est.kernel_.dense(), est.data_, sp)
        np.testing.assert_allclose(post.mean, want.mean, atol=1e-10)
        np.testing.assert_allclose(post.cov, want.cov, atol=1e-10)

    @pytest.mark.parametrize("kernel, kind", [
        ({"family": "geometric", "beta": 0.5}, "gauge-weights"),
        ({"family": "geometric", "beta": 0.5}, "hierarchical"),
        ({"family": "vc", "lambdas": [1.0, 0.5, 0.25]}, "gauge-weights"),
    ])
    def test_transform_rows_built_once_per_call(self, monkeypatch, kernel, kind):
        import seqgp.estimators
        import seqgp.posterior

        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return transform_rows(*args, **kwargs)

        monkeypatch.setattr(seqgp.estimators, "transform_rows", spy)
        monkeypatch.setattr(seqgp.posterior, "transform_rows", spy)
        est = make_regressor(kernel=kernel).fit(TRAIN_X, TRAIN_Y)
        post = est.coefficient_posterior(["-", "1:a", "1:b;2:b"], kind=kind)
        assert calls == [kind]
        assert post.mean.shape == (3,)

    @pytest.mark.parametrize("want_covariance", [True, False])
    @pytest.mark.parametrize("kind", TRANSFORM_KINDS)
    @pytest.mark.parametrize("kernel", [{"family": "geometric", "beta": 0.5},
                                        {"family": "vc", "lambdas": [1.0, 0.5, 0.25]}],
                             ids=["product", "vc"])
    def test_coefficient_posterior_is_the_engine_on_the_same_rows(self, kernel, kind,
                                                                  want_covariance):
        est = make_regressor(kernel=kernel).fit(TRAIN_X, TRAIN_Y)
        sp = est.space_
        reference = "ab" if kind in ("wild-type", "background-averaged") else None
        post = est.coefficient_posterior(kind=kind, reference=reference,
                                         want_covariance=want_covariance)
        gauge = est.gauge_ if kind in ("gauge-weights", "hierarchical") else None
        rows = transform_rows(kind, sp, all_transform_keys(kind, sp, reference), gauge=gauge,
                              reference=reference)
        want = transform_posterior(rows, est.kernel_, est.data_, want_covariance)
        assert post.labels == want.labels
        np.testing.assert_array_equal(post.mean, want.mean)
        np.testing.assert_array_equal(post.var, want.var)
        if want_covariance:
            np.testing.assert_array_equal(post.cov, want.cov)
        else:
            assert post.cov is None and want.cov is None

    def test_gauge_weights_reject_reference(self):
        est = make_regressor().fit(TRAIN_X, TRAIN_Y)
        with pytest.raises(ParameterError, match="reference"):
            est.coefficient_posterior(["-"], reference="aa")

    def test_kernel_object_parameter(self, rng):
        sp = SequenceSpace("ab", 2)
        kernel = rand_product_kernel(sp, rng)
        est = GaugeGPRegressor("ab", 2, kernel=kernel, noise_variance=0.5)
        est.fit(TRAIN_X, TRAIN_Y)
        assert est.kernel_ is kernel

    def test_gauge_spec_parameter(self):
        sp = SequenceSpace("ab", 2)
        gauge = GaugeSpec(0.5, ProductDistribution.uniform(sp))
        est = make_regressor(gauge=gauge).fit(TRAIN_X, TRAIN_Y)
        assert est.gauge_ is gauge

    def test_unfitted_errors(self):
        with pytest.raises(ParameterError, match="not fitted"):
            make_regressor().predict(["aa"])

    def test_bad_sequences_raise_data_error(self):
        est = make_regressor()
        with pytest.raises(DataError):
            est.fit(["aa", "ac"], [1.0, 2.0])
        with pytest.raises(DataError):
            est.fit(["aa", "aaa"], [1.0, 2.0])

    def test_mismatched_targets(self):
        with pytest.raises(DataError):
            make_regressor().fit(["aa", "ab"], [1.0])


class TestCheckSequences:
    def test_rejects_bare_string(self):
        with pytest.raises(DataError):
            check_sequences("aa", SequenceSpace("ab", 2))

    def test_accepts_arrays(self):
        sp = SequenceSpace("ab", 2)
        out = check_sequences(np.array([[0, 1], [1, 0]]), sp)
        np.testing.assert_array_equal(out, [[0, 1], [1, 0]])
