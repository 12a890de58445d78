import math

import numpy as np
import pytest

from seqgp import (
    ConfigError,
    ConnectednessKernelSpec,
    GeometricKernelSpec,
    JengaKernelSpec,
    NotRepresentable,
    ParameterError,
    ProductDistribution,
    ProductKernel,
    SequenceSpace,
    VcKernel,
    induced_kernel_diag_lambda_pi,
    induced_vc_from_order_diag,
    jenga_block_inverse,
    order_diag_from_vc,
    wh_induced_entry,
    wt_induced_entry,
)
from seqgp.kernels import kernel_from_config, wh_induced_product, wt_induced_product

from conftest import rand_vc_kernel, small_spaces


class TestVcKernel:
    def test_degenerate_probe_is_constant(self):
        sp = SequenceSpace("ab", 3)
        probe = VcKernel([1, 0, 0, 0], sp, allow_degenerate=True)
        assert all(probe.entry(d) == 1.0 for d in range(4))

    def test_ell1_entries(self):
        sp = SequenceSpace("ab", 1)
        k = VcKernel([1.0, 1.0], sp)
        assert k.entry(0) == pytest.approx(2.0)
        assert k.entry(1) == pytest.approx(0.0)

    def test_ell2_entries(self):
        sp = SequenceSpace("ab", 2)
        k = VcKernel([1.0, 1.0, 1.0], sp)
        assert [k.entry(d) for d in (0, 1, 2)] == pytest.approx([4.0, 0.0, 0.0])

    def test_inverse_ell1(self):
        sp = SequenceSpace("ab", 1)
        k = VcKernel([1.0, 1.0], sp)
        assert k.inverse_entry(0) == pytest.approx(0.5)
        assert k.inverse_entry(1) == pytest.approx(0.0)

    @pytest.mark.parametrize("space_idx", range(4))
    def test_dense_identity_random(self, space_idx, rng):
        sp = small_spaces()[space_idx]
        k = rand_vc_kernel(sp, rng)
        prod = k.dense() @ k.dense_inverse()
        np.testing.assert_allclose(prod, np.eye(sp.n_sequences), atol=1e-10)

    def test_equal_lambdas_scaled_identity(self, rng):
        # constant lambdas make the kernel a multiple of the identity
        sp = SequenceSpace("ab", 2)
        c = 1.7
        k = VcKernel([c, c, c], sp)
        np.testing.assert_allclose(k.dense(), c * sp.n_sequences * np.eye(4), atol=1e-12)
        np.testing.assert_allclose(k.dense() @ k.dense_inverse(), np.eye(4), atol=1e-12)

    def test_positivity_enforced(self):
        sp = SequenceSpace("ab", 2)
        with pytest.raises(ParameterError):
            VcKernel([1.0, 0.0, 1.0], sp)
        with pytest.raises(ParameterError):
            VcKernel([1.0, -0.5, 1.0], sp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_order_variances_rejected(self, bad):
        # NaN slips past a positivity test, so finiteness is checked first
        sp = SequenceSpace("ab", 2)
        for allow_degenerate in (False, True):
            with pytest.raises(ParameterError, match="finite"):
                VcKernel([bad, 1.0, 1.0], sp, allow_degenerate=allow_degenerate)


class TestProductKernel:
    def test_identity_blocks_are_kronecker_delta(self):
        sp = SequenceSpace("ab", 2)
        k = ProductKernel(np.stack([np.eye(2)] * 2), sp)
        assert k.entry("aa", "aa") == 1.0
        assert k.entry("aa", "ab") == 0.0

    def test_half_correlation(self):
        sp = SequenceSpace("ab", 2)
        block = np.array([[1.0, 0.5], [0.5, 1.0]])
        k = ProductKernel(np.stack([block, block]), sp)
        assert k.entry((0, 0), (0, 1)) == pytest.approx(0.5)
        assert k.entry((0, 0), (1, 1)) == pytest.approx(0.25)

    def test_rejects_nonfinite_block(self):
        sp = SequenceSpace("ab", 1)
        with pytest.raises(ParameterError, match="finite"):
            ProductKernel([[[1.0, np.nan], [np.nan, 1.0]]], sp)

    def test_rejects_asymmetric_block(self):
        sp = SequenceSpace("ab", 1)
        with pytest.raises(ParameterError, match="symmetric"):
            ProductKernel([[[1.0, 0.2], [0.3, 1.0]]], sp)

    def test_rejects_indefinite_block(self):
        sp = SequenceSpace("ab", 1)
        with pytest.raises(ParameterError, match="positive-definite"):
            ProductKernel([[[1.0, 2.0], [2.0, 1.0]]], sp)


class TestProductForms:
    def test_geometric_matches_power(self):
        sp = SequenceSpace("ab", 3)
        k = GeometricKernelSpec(0.5).to_product(sp)
        assert k.entry("aaa", "abb") == pytest.approx(0.25)

    def test_connectedness_with_equal_factors_is_geometric(self):
        sp = SequenceSpace("abc", 2)
        beta = 0.4
        conn = ConnectednessKernelSpec((beta, beta)).to_product(sp)
        geo = GeometricKernelSpec(beta).to_product(sp)
        X = sp.sequences_array()
        np.testing.assert_allclose(conn.matrix(X), geo.matrix(X), atol=1e-14)

    def test_jenga_with_sqrt_factors_is_connectedness(self):
        sp = SequenceSpace("ab", 2)
        z = (0.3, 0.6)
        jen = JengaKernelSpec((1, 1), tuple((math.sqrt(v),) * 2 for v in z)).to_product(sp)
        conn = ConnectednessKernelSpec(z).to_product(sp)
        X = sp.sequences_array()
        np.testing.assert_allclose(jen.matrix(X), conn.matrix(X), atol=1e-14)

    def test_connectedness_bounds(self):
        sp = SequenceSpace("abc", 2)
        with pytest.raises(ParameterError, match="z < 1"):
            ConnectednessKernelSpec((0.4, -0.6)).to_product(sp)  # lower bound is -1/2

    def test_jenga_sign_constraints(self):
        with pytest.raises(ParameterError, match=r"\(0, 1\)"):
            JengaKernelSpec((1,), ((1.2, 0.5),))
        with pytest.raises(ParameterError, match="z\\^2"):
            JengaKernelSpec((-1,), ((5.0, 5.0, 5.0),))


class TestJengaBlockInverse:
    def test_half_block(self):
        a = math.sqrt(0.5)
        inv = jenga_block_inverse(1, (a, a))
        np.testing.assert_allclose(inv, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]], atol=1e-12)

    def test_zero_factors_identity(self):
        inv = jenga_block_inverse(1, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(inv, np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("alpha", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_dense_inverse(self, alpha, sign, rng):
        for _ in range(5):
            a = rng.uniform(0.05, 0.9 if sign == 1 else 0.45, alpha)
            block = sign * np.outer(a, a)
            np.fill_diagonal(block, 1.0)
            np.testing.assert_allclose(jenga_block_inverse(sign, a), np.linalg.inv(block),
                                       atol=1e-12)


class TestInducedDiagLambdaPi:
    def test_uniform_ell1(self):
        sp = SequenceSpace("ab", 1)
        k = induced_kernel_diag_lambda_pi(2.0, ProductDistribution.uniform(sp))
        assert k.entry("a", "a") == pytest.approx(2.0)
        assert k.entry("a", "b") == pytest.approx(1.0)

    def test_uniform_closed_form(self):
        sp = SequenceSpace("abc", 3)
        lam = 1.5
        k = induced_kernel_diag_lambda_pi(lam, ProductDistribution.uniform(sp))
        X = sp.sequences_array()
        D = (X[:, None, :] != X[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(k.matrix(X), (1 + sp.alpha / lam) ** (sp.length - D),
                                   atol=1e-12)

    def test_matches_dense_weight_prior(self):
        sp = SequenceSpace("ab", 2)
        pi = ProductDistribution([[0.25, 0.75], [0.25, 0.75]], sp)
        lam = 1.0
        k = induced_kernel_diag_lambda_pi(lam, pi)
        phi = sp.phi_dense()
        diag = np.array([
            lam ** sub.size * np.prod([pi[p][c] for p, c in zip(sub.positions, sub.chars)])
            for sub in sp.enumerate_subsequences()
        ])
        np.testing.assert_allclose(k.dense(), phi @ np.diag(1 / diag) @ phi.T, atol=1e-10)

    def test_domain_errors(self):
        sp = SequenceSpace("ab", 1)
        uni = ProductDistribution.uniform(sp)
        with pytest.raises(ParameterError):
            induced_kernel_diag_lambda_pi(0.0, uni)
        with pytest.raises(ParameterError):
            induced_kernel_diag_lambda_pi(math.inf, uni)
        with pytest.raises(ParameterError):
            induced_kernel_diag_lambda_pi(1.0, ProductDistribution.point_mass(sp, "a"))


class TestInducedOrderDiag:
    def test_ell1_values(self):
        sp = SequenceSpace("ab", 1)
        k = induced_vc_from_order_diag([1.0, 1.0], sp)
        np.testing.assert_allclose(k.lambdas, [1.5, 0.5])
        assert k.entry(0) == pytest.approx(2.0)
        assert k.entry(1) == pytest.approx(1.0)

    def test_matches_dense_weight_prior(self):
        sp = SequenceSpace("ab", 1)
        k = induced_vc_from_order_diag([1.0, 1.0], sp)
        phi = sp.phi_dense()
        np.testing.assert_allclose(k.dense(), phi @ phi.T, atol=1e-12)

    def test_large_high_order_penalty_limit(self):
        sp = SequenceSpace("ab", 3)
        a0 = 0.7
        k = induced_vc_from_order_diag([a0, 1e12, 1e12, 1e12], sp)
        assert k.lambdas[0] == pytest.approx(1 / a0, rel=1e-6)
        assert np.all(k.lambdas[1:] < 1e-10)

    @pytest.mark.parametrize("ell", range(1, 7))
    def test_equal_penalties_give_decreasing_lambdas(self, ell):
        sp = SequenceSpace("ab", ell)
        k = induced_vc_from_order_diag(np.ones(ell + 1), sp)
        assert np.all(np.diff(k.lambdas) < 0)


class TestOrderDiagFromVc:
    def test_roundtrip(self):
        sp = SequenceSpace("ab", 1)
        k = VcKernel([1.5, 0.5], sp)
        back = order_diag_from_vc(k)
        np.testing.assert_allclose(back, [1.0, 1.0], atol=1e-12)

    def test_non_decreasing_not_representable(self):
        sp = SequenceSpace("ab", 2)
        result = order_diag_from_vc(VcKernel([1.0, 1.0, 1.0], sp))
        assert isinstance(result, NotRepresentable)
        assert not result

    def test_tight_gap_not_representable(self):
        # decreasing lambdas whose gaps are below the feasibility bound
        sp = SequenceSpace("ab", 2)
        eps = 1e-9
        result = order_diag_from_vc(VcKernel([1.0 + 2 * eps, 1.0 + eps, 0.5], sp))
        assert isinstance(result, NotRepresentable)
        assert result.index == 0

    @pytest.mark.parametrize("space_idx", range(4))
    def test_roundtrip_random(self, space_idx, rng):
        sp = small_spaces()[space_idx]
        a = rng.uniform(0.3, 3.0, sp.length + 1)
        back = order_diag_from_vc(induced_vc_from_order_diag(a, sp))
        np.testing.assert_allclose(back, a, rtol=1e-10)


class TestBiallelicInduced:
    def test_wh_ell1(self):
        sp = SequenceSpace("ab", 1)
        H = np.array([[1.0, 1.0], [1.0, -1.0]])
        dense = H @ np.diag([1.0, 1.0]) @ H.T
        for i, x in enumerate(("a", "b")):
            for j, y in enumerate(("a", "b")):
                assert wh_induced_entry([1.0], x, y, sp) == pytest.approx(dense[i, j])

    def test_wt_ell1(self):
        sp = SequenceSpace("ab", 1)
        k = [[wt_induced_entry([1.0], x, y, sp) for y in ("a", "b")] for x in ("a", "b")]
        np.testing.assert_allclose(k, [[1.0, 1.0], [1.0, 2.0]])

    def test_wh_equal_rho_is_isotropic(self):
        sp = SequenceSpace("ab", 3)
        rho = [1.7, 1.7, 1.7]
        X = sp.sequences_array()
        values = {}
        for x in X:
            for y in X:
                d = sp.hamming(x, y)
                v = wh_induced_entry(rho, x, y, sp)
                values.setdefault(d, v)
                assert v == pytest.approx(values[d])

    def test_product_forms_agree_with_entries(self, rng):
        sp = SequenceSpace("ab", 3)
        rho = rng.uniform(0.5, 3.0, 3)
        X = sp.sequences_array()
        wh = wh_induced_product(rho, sp)
        wt = wt_induced_product(rho, sp)
        for x in X[:4]:
            for y in X[4:]:
                assert wh.entry(x, y) == pytest.approx(wh_induced_entry(rho, x, y, sp))
                assert wt.entry(x, y) == pytest.approx(wt_induced_entry(rho, x, y, sp))

    def test_alpha_must_be_two(self):
        sp = SequenceSpace("abc", 2)
        with pytest.raises(ParameterError):
            wh_induced_entry([1.0, 1.0], "aa", "ab", sp)


class TestKernelConfig:
    def test_families_build(self):
        sp = SequenceSpace("ab", 2)
        cfgs = [
            {"family": "vc", "lambdas": [1.0, 0.5, 0.2]},
            {"family": "geometric", "beta": 0.5},
            {"family": "connectedness", "z": [0.3, 0.5]},
            {"family": "jenga", "signs": [1, -1], "factors": [[0.3, 0.4], [0.2, 0.5]]},
            {"family": "diag-lambda-pi", "lambda": 1.0, "pi": "uniform"},
            {"family": "order-diag", "a": [1.0, 1.0, 2.0]},
            {"family": "wh", "rho": [1.0, 2.0]},
            {"family": "wt", "rho": [1.0, 2.0]},
            {"family": "product", "blocks": [np.eye(2).tolist(), np.eye(2).tolist()]},
        ]
        for cfg in cfgs:
            kernel = kernel_from_config(cfg, sp)
            assert isinstance(kernel, (ProductKernel, VcKernel))

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            kernel_from_config({"family": "rbf"}, SequenceSpace("ab", 2))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            kernel_from_config({"family": "geometric", "beta": 0.5, "gamma": 1},
                               SequenceSpace("ab", 2))

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="needs keys"):
            kernel_from_config({"family": "vc"}, SequenceSpace("ab", 2))

    def test_invalid_parameters_wrapped(self):
        with pytest.raises(ConfigError, match="invalid kernel parameters"):
            kernel_from_config({"family": "geometric", "beta": 1.5}, SequenceSpace("ab", 2))
