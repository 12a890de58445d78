"""Scikit-learn style estimators wrapping the inference machinery.

The estimators follow the fit/predict/transform and ``get_params`` /
``set_params`` conventions, so they duck-type cleanly with
``sklearn.base.clone``, pipelines, and model selection utilities without this
package depending on scikit-learn itself.  Sequences are passed as strings
over the configured alphabet (or as pre-encoded integer arrays).
"""

from __future__ import annotations

import inspect

import numpy as np

from .errors import DataError, DimensionError, ParameterError
from .gauges import (
    GaugeSpec,
    ProductDistribution,
    all_transform_keys,
    kind_rules,
    parse_coefficient_key,
    transform_rows,
)
from .kernels import GeometricKernelSpec, ProductKernel, VcKernel, kernel_from_config
# unused here, but perfbench/tracing.py wraps the names in this module's namespace
from .oracle import dense_transform_posterior  # noqa: F401
from .posterior import gauge_weight_posterior  # noqa: F401
from .posterior import transform_posterior
from .regress import GaussianPosterior, TrainingData, gp_posterior, phi_rows
from .seqspace import SequenceSpace


class BaseEstimator:
    """Parameter introspection compatible with the scikit-learn estimator API."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name, p in sig.parameters.items()
                if name != "self" and p.kind != p.VAR_KEYWORD]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ParameterError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_sequences(X, space: SequenceSpace) -> np.ndarray:
    """Validate and encode a batch of sequences against a space."""
    if isinstance(X, str):
        raise DataError("expected a collection of sequences, got a single string")
    try:
        return space.encode_batch(list(X))
    except (ParameterError, DimensionError) as exc:
        raise DataError(str(exc)) from exc


def _resolve_kernel(kernel, space: SequenceSpace):
    if kernel is None:
        return GeometricKernelSpec(0.5).to_product(space)
    if isinstance(kernel, dict):
        return kernel_from_config(kernel, space)
    if isinstance(kernel, (ProductKernel, VcKernel)):
        if kernel.space != space:
            raise ParameterError("kernel was built for a different space")
        return kernel
    if hasattr(kernel, "to_product"):
        return kernel.to_product(space)
    raise ParameterError(f"unsupported kernel specification {kernel!r}")


def _resolve_gauge(gauge, space: SequenceSpace) -> GaugeSpec:
    if gauge is None:
        return GaugeSpec(1.0, ProductDistribution.uniform(space))
    if isinstance(gauge, GaugeSpec):
        return gauge
    if isinstance(gauge, dict):
        from .gauges import gauge_from_config

        return gauge_from_config(gauge, space)
    raise ParameterError(f"unsupported gauge specification {gauge!r}")


class SubsequenceFeaturizer(BaseEstimator):
    """Transformer mapping sequences to dense subsequence indicator features.

    One binary column per subsequence, in the space's canonical order; the
    column count is ``(alpha + 1) ** length``, so this is a desk-scale tool
    guarded by the space's dense cap.
    """

    def __init__(self, alphabet: str = "ab", length: int = 1):
        self.alphabet = alphabet
        self.length = length

    def fit(self, X, y=None):
        self.space_ = SequenceSpace(self.alphabet, self.length)
        self.space_.require_dense(self.space_.n_subsequences, "indicator featurization")
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted()
        return phi_rows(self.space_, check_sequences(X, self.space_))

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)

    def get_feature_names_out(self, input_features=None) -> np.ndarray:
        self._check_fitted()
        return np.array([self.space_.format_subsequence(s)
                         for s in self.space_.enumerate_subsequences()])

    def _check_fitted(self):
        if not hasattr(self, "space_"):
            raise ParameterError("featurizer is not fitted; call fit first")


class GaugeGPRegressor(BaseEstimator):
    """Gaussian process regressor on sequence space with coefficient posteriors.

    Parameters
    ----------
    alphabet, length : the sequence space.
    kernel : kernel object, config mapping, or None for a geometric default.
    gauge : GaugeSpec, config mapping, or None for the uniform eta-1 gauge.
    noise_variance : observation noise, must be positive.

    After ``fit``, ``predict`` returns posterior means (optionally with
    standard deviations or full covariance), and ``coefficient_posterior``
    returns the exact Gaussian over any set of gauge-fixed weights or other
    factorized coefficients without materializing function space.
    """

    def __init__(self, alphabet: str = "ab", length: int = 1, kernel=None,
                 gauge=None, noise_variance: float = 1.0):
        self.alphabet = alphabet
        self.length = length
        self.kernel = kernel
        self.gauge = gauge
        self.noise_variance = noise_variance

    def fit(self, X, y):
        self.space_ = SequenceSpace(self.alphabet, self.length)
        self.kernel_ = _resolve_kernel(self.kernel, self.space_)
        self.gauge_ = _resolve_gauge(self.gauge, self.space_)
        Xe = check_sequences(X, self.space_)
        y = np.asarray(y, dtype=float)
        if y.shape != (Xe.shape[0],):
            raise DataError(f"{Xe.shape[0]} sequences but y has shape {y.shape}")
        self.data_ = TrainingData(Xe, y, self.noise_variance)
        return self

    def predict(self, X, return_std: bool = False, return_cov: bool = False):
        self._check_fitted()
        post = gp_posterior(self.kernel_, self.data_, check_sequences(X, self.space_),
                            self.space_)
        if return_cov:
            return post.mean, post.cov
        if return_std:
            return post.mean, post.sd
        return post.mean

    def score(self, X, y) -> float:
        """Coefficient of determination of the posterior mean prediction."""
        y = np.asarray(y, dtype=float)
        pred = self.predict(X)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    def coefficient_posterior(self, coeffs=None, kind: str = "gauge-weights",
                              reference=None, want_covariance: bool = True) -> GaussianPosterior:
        """Posterior over transform coefficients.

        ``coeffs`` holds subsequence text forms or Subsequence objects
        (position tuples for the walsh-hadamard kind); None requests every
        valid coefficient, which is dense-capped.  The rows come from
        :func:`seqgp.gauges.transform_rows` and the posterior from
        :func:`seqgp.posterior.transform_posterior`, exactly as in
        ``seqgp posterior``; that engine picks the route from the kernel
        (factorized for product kernels, streamed over the enumerated space
        under the size guard for the others).
        """
        self._check_fitted()
        space = self.space_
        gauge = self.gauge_ if kind_rules(kind).gauge else None
        if coeffs is None:
            keys = all_transform_keys(kind, space, reference)
        else:
            keys = [parse_coefficient_key(kind, c, space) if isinstance(c, str) else c
                    for c in coeffs]
        transform = transform_rows(kind, space, keys, gauge=gauge, reference=reference)
        return transform_posterior(transform, self.kernel_, self.data_, want_covariance)

    def _check_fitted(self):
        if not hasattr(self, "data_"):
            raise ParameterError("regressor is not fitted; call fit first")
