"""Gaussian process regression and gauge-fixed coefficient posteriors on
finite sequence spaces."""

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    InvalidIndexError,
    NumericalError,
    ParameterError,
    SeqgpError,
    SizeGuardError,
)
from .estimators import GaugeGPRegressor, SubsequenceFeaturizer
from .gauges import (
    FactorizedTransform,
    GaugeSpec,
    ProductDistribution,
    eta_from_lambda,
    marginalization_residual,
    penalty_dense,
    penalty_entry,
    projection_dense,
    projection_entry,
    transform_rows,
)
from .kernels import (
    ConnectednessKernelSpec,
    GeometricKernelSpec,
    JengaKernelSpec,
    NotRepresentable,
    ProductKernel,
    VcKernel,
    induced_kernel_diag_lambda_pi,
    induced_vc_from_order_diag,
    jenga_block_inverse,
    order_diag_from_vc,
    wh_induced_entry,
    wt_induced_entry,
)
from .posterior import (
    TransformPosteriorRequest,
    gauge_weight_posterior,
    mk_row,
    mkmt_entry,
    transform_posterior,
)
from .regress import (
    GaussianPosterior,
    TrainingData,
    bayes_weight_posterior,
    build_theta_regularizer,
    gp_posterior,
    phit_kinv_phi_product,
    phit_kinv_phi_vc,
    ridge_function,
    ridge_weights,
)
from .seqspace import EMPTY_SUBSEQUENCE, SequenceSpace, Subsequence, binomial, krawtchouk

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "DimensionError", "InvalidIndexError",
    "NumericalError", "ParameterError", "SeqgpError", "SizeGuardError",
    "GaugeGPRegressor", "SubsequenceFeaturizer",
    "FactorizedTransform", "GaugeSpec", "ProductDistribution", "eta_from_lambda",
    "marginalization_residual", "penalty_dense", "penalty_entry",
    "projection_dense", "projection_entry", "transform_rows",
    "ConnectednessKernelSpec", "GeometricKernelSpec",
    "JengaKernelSpec", "NotRepresentable", "ProductKernel", "VcKernel",
    "induced_kernel_diag_lambda_pi", "induced_vc_from_order_diag",
    "jenga_block_inverse", "order_diag_from_vc", "wh_induced_entry",
    "wt_induced_entry",
    "TransformPosteriorRequest", "gauge_weight_posterior", "mk_row",
    "mkmt_entry", "transform_posterior",
    "GaussianPosterior", "TrainingData", "bayes_weight_posterior",
    "build_theta_regularizer", "gp_posterior", "phit_kinv_phi_product",
    "phit_kinv_phi_vc", "ridge_function", "ridge_weights",
    "EMPTY_SUBSEQUENCE", "SequenceSpace", "Subsequence", "binomial", "krawtchouk",
]
