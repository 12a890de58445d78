"""Brute-force dense ground truth and the randomized conformance suite.

Everything here is built by direct enumeration under the desk-scale size
guard: dense kernels, dense projections, dense penalties, dense posteriors.
These constructions arbitrate every closed form in the package.  The
conformance registry pairs each closed-form operation with its dense oracle
and is exposed through the command line ``verify`` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import JITTER_LADDER, SpdSolver
from .errors import NumericalError, ParameterError
from .gauges import (
    GaugeSpec,
    ProductDistribution,
    b_matrix_dense,
    marginalization_residual,
    penalty_dense,
    projection_dense,
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
from . import posterior
from .posterior import gauge_weight_posterior, mk_matrix, mkmt_matrix, transform_posterior
from .regress import (
    GaussianPosterior,
    TrainingData,
    bayes_weight_posterior,
    build_theta_regularizer,
    gp_posterior,
    phit_kinv_phi_connectedness,
    phit_kinv_phi_geometric,
    phit_kinv_phi_jenga,
    phit_kinv_phi_product,
    phit_kinv_phi_vc,
    ridge_function,
    ridge_weights,
    whitened_cross,
)
from .seqspace import SequenceSpace, Subsequence, binomial, krawtchouk

DEFAULT_SEED = 20250801


# -- dense constructions -----------------------------------------------------


def dense_transform_posterior(M: np.ndarray, K: np.ndarray, data: TrainingData,
                              space: SequenceSpace, labels=None,
                              ladder=JITTER_LADDER) -> GaussianPosterior:
    """Exact dense posterior of ``M f``: the arbiter for the kernel-trick path.

    ``M K_X`` and ``M K M'`` come from the dense matrices; the conditioning
    on the training data is the shared whitened step, with ``ladder`` as its
    jitter ladder.
    """
    M = np.asarray(M, dtype=float)
    K = np.asarray(K, dtype=float)
    if labels is None:
        labels = [f"row{i}" for i in range(M.shape[0])]
    if data.t == 0:
        return GaussianPosterior(list(labels), np.zeros(M.shape[0]), M @ K @ M.T)
    idx = space.sequence_indices(data.X)
    K_X = K[:, idx]
    mean, W = whitened_cross(K_X[idx, :], data, M @ K_X, ladder)
    return GaussianPosterior(list(labels), mean, M @ K @ M.T - W.T @ W)


def gauge_weight_posterior_closed_form(gauge: GaugeSpec, kernel: ProductKernel,
                                       data: TrainingData, subsequences,
                                       ladder=JITTER_LADDER) -> GaussianPosterior:
    """Posterior over gauge-fixed weights by the closed-form per-position reduction.

    Direct evaluation with ``zeta^p_c = eta * sum_c' pi^p_c' a^p_{c,c'}`` and
    ``zbar^p = eta^2 * sum_{c,c'} pi^p_c pi^p_c' a^p_{c,c'}``: each
    coefficient couples to a training sequence through a product of
    ``a - zeta`` factors on its own positions and ``zeta`` factors elsewhere,
    and the prior covariance of two coefficients is a four-way product over
    position classes.  The production route applies the generic transform
    engine to the gauge-weight rows instead; the conformance suite checks
    that the two derivations agree.
    """
    space = kernel.space
    subs = [space.validate_subsequence(s) for s in subsequences]
    labels = [space.format_subsequence(s) for s in subs]
    eta, pi, blocks = gauge.eta, gauge.pi.probs, kernel.blocks
    ell = space.length

    zeta = np.einsum("pab,pb->pa", blocks, pi) * eta              # (ell, alpha)
    zbar = np.einsum("pa,pab,pb->p", pi, blocks, pi) * eta * eta  # (ell,)

    def prior_cov_entry(a: int, b: int) -> float:
        in_a = dict(zip(subs[a].positions, subs[a].chars))
        in_b = dict(zip(subs[b].positions, subs[b].chars))
        value = 1.0
        for p in range(1, ell + 1):
            za, zb = zeta[p - 1], zbar[p - 1]
            if p in in_a and p in in_b:
                value *= zb - za[in_a[p]] - za[in_b[p]] + blocks[p - 1][in_a[p], in_b[p]]
            elif p in in_a:
                value *= za[in_a[p]] - zb
            elif p in in_b:
                value *= za[in_b[p]] - zb
            else:
                value *= zb
        return value

    j = len(subs)
    prior = np.array([[prior_cov_entry(a, b) for b in range(j)] for a in range(j)])
    if data.t == 0:
        return GaussianPosterior(labels, np.zeros(j), prior)
    # per-coefficient, per-position factor tables of the data coupling vectors
    tables = np.empty((j, ell, space.alpha))
    for i, sub in enumerate(subs):
        tables[i] = zeta
        for p, c in zip(sub.positions, sub.chars):
            tables[i, p - 1] = blocks[p - 1][:, c] - zeta[p - 1]
    Z = np.ones((j, data.t))
    for p in range(ell):
        Z *= tables[:, p, :][:, data.X[:, p]]
    solver = SpdSolver(kernel.matrix(data.X) + data.noise_variance * np.eye(data.t), ladder)
    return GaussianPosterior(labels, Z @ solver.solve(data.y), prior - Z @ solver.solve(Z.T))


def check_orthogonality(penalty: np.ndarray, gauge: GaugeSpec, space: SequenceSpace) -> float:
    """Largest bilinear coupling between the gauge and the gauge freedoms.

    Bases come from rank-revealing factorizations: the gauge from the column
    space of its dense projection, the freedoms from the nullspace of the
    indicator matrix, both with tolerance 1e-10 times the top singular value.
    """
    P = projection_dense(gauge, space)
    U, s, _ = np.linalg.svd(P)
    theta_basis = U[:, s > 1e-10 * s[0]]
    phi = space.phi_dense()
    _, s2, Vt = np.linalg.svd(phi, full_matrices=True)
    rank = int(np.sum(s2 > 1e-10 * s2[0]))
    freedom_basis = Vt[rank:].T
    return float(np.abs(theta_basis.T @ np.asarray(penalty) @ freedom_basis).max())


# -- prior samplers -----------------------------------------------------------


def _psd_factor(C: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(np.asarray(C, dtype=float))
    floor = -1e-8 * max(1.0, float(np.abs(w).max()))
    if w.min() < floor:
        raise NumericalError(f"covariance is not positive semidefinite (min eig {w.min():.3e})")
    return V * np.sqrt(np.clip(w, 0.0, None))


def sample_function_prior(K: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` zero-mean function vectors with covariance ``K``, one per row."""
    L = _psd_factor(K)
    return rng.standard_normal((n, L.shape[0])) @ L.T


def _gnk_support(neighborhoods, space: SequenceSpace):
    """Distinct neighborhood subsequences and their weight variances."""
    cleaned = []
    for p, hood in enumerate(neighborhoods, start=1):
        positions = tuple(sorted(set(int(q) for q in hood)))
        if p not in positions:
            raise ParameterError(f"neighborhood of position {p} must contain {p}")
        if positions[0] < 1 or positions[-1] > space.length:
            raise ParameterError(f"neighborhood {positions} outside 1..{space.length}")
        cleaned.append(positions)
    support, variances = [], []
    for positions in dict.fromkeys(cleaned):
        var = 1.0 / len(positions)
        for chars in np.ndindex(*([space.alpha] * len(positions))):
            support.append(Subsequence(positions, tuple(chars)))
            variances.append(var)
    return support, np.asarray(variances)


def gnk_weight_variances(neighborhoods, space: SequenceSpace) -> np.ndarray:
    """Diagonal of the implied weight covariance over all subsequences."""
    support, var = _gnk_support(neighborhoods, space)
    out = np.zeros(space.n_subsequences)
    out[[space.subsequence_index(s) for s in support]] = var
    return out


def gnk_sample(neighborhoods, space: SequenceSpace, n: int,
               rng: np.random.Generator) -> np.ndarray:
    """Random landscapes: independent weights on neighborhood subsequences.

    Each distinct neighborhood contributes one weight per choice of
    characters, drawn with variance one over the neighborhood size; all other
    weights are zero.  Returns the function vectors of the sampled weights,
    built from the indicator columns of the neighborhood subsequences alone.
    """
    support, var = _gnk_support(neighborhoods, space)
    cols = space.indicator_columns(space.sequences_array(), support)
    w = rng.standard_normal((n, len(support))) * np.sqrt(var)
    return w @ cols.T


def vc_spectral_projectors(space: SequenceSpace) -> list[np.ndarray]:
    """Projectors onto the interaction-order subspaces, from Krawtchouk matrices."""
    X = space.sequences_array()
    D = (X[:, None, :] != X[None, :, :]).sum(axis=2)
    out = []
    for k in range(space.length + 1):
        table = np.array([krawtchouk(k, d, space.length, space.alpha)
                          for d in range(space.length + 1)], dtype=float)
        out.append(table[D] / space.alpha ** space.length)
    return out


# -- randomized builders ------------------------------------------------------


def _spaces():
    return [SequenceSpace("ab", 2), SequenceSpace("ab", 3),
            SequenceSpace("abc", 2), SequenceSpace("abc", 3)]


def _rand_product(space: SequenceSpace, rng) -> ProductKernel:
    # unit-diagonal blocks keep dense kernels at order one, so the absolute
    # conformance tolerances are meaningful
    blocks = []
    for _ in range(space.length):
        A = rng.standard_normal((space.alpha, space.alpha))
        C = A @ A.T + space.alpha * np.eye(space.alpha)
        d = np.sqrt(np.diag(C))
        blocks.append(C / np.outer(d, d))
    return ProductKernel(np.stack(blocks), space)


def _rand_vc(space: SequenceSpace, rng) -> VcKernel:
    return VcKernel(rng.uniform(0.2, 2.0, space.length + 1), space)


def _rand_pi(space: SequenceSpace, rng) -> ProductDistribution:
    return ProductDistribution(rng.dirichlet(2.0 * np.ones(space.alpha), size=space.length),
                               space)


def _rand_gauge(space: SequenceSpace, rng, eta=None) -> GaugeSpec:
    if eta is None:
        eta = float(rng.uniform(0.2, 1.0))
    return GaugeSpec(eta, _rand_pi(space, rng))


def _rand_data(space: SequenceSpace, rng, t: int, noise: float) -> TrainingData:
    X = space.sequences_array()[rng.integers(0, space.n_sequences, size=t)]
    return TrainingData(X, rng.standard_normal(t), noise)


def _rand_jenga(space: SequenceSpace, rng) -> JengaKernelSpec:
    signs, factors = [], []
    for _ in range(space.length):
        sign = int(rng.choice([-1, 1]))
        if sign == 1:
            row = rng.uniform(0.1, 0.9, space.alpha)
        else:
            row = rng.uniform(0.1, 0.6, space.alpha)
            while sum(v * v / (1 + v * v) for v in row) >= 1.0:
                row *= 0.7
        signs.append(sign)
        factors.append(tuple(row))
    return JengaKernelSpec(tuple(signs), tuple(factors))


# -- conformance suite --------------------------------------------------------


@dataclass
class ConformanceResult:
    name: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance


def _check_krawtchouk_identity(rng):
    worst = 0
    for alpha in (2, 3, 4):
        for ell in range(1, 9):
            for d in range(ell + 1):
                for j in range(ell - d + 1):
                    lhs = sum(binomial(ell - k, j - k) * krawtchouk(k, d, ell, alpha)
                              for k in range(j + 1))
                    rhs = alpha ** j * binomial(ell - d, j)
                    worst = max(worst, abs(lhs - rhs))
    return [("krawtchouk-identity-exact", float(worst), 0.0)]


def _check_phi_structure(rng):
    worst_sum, worst_rank = 0.0, 0.0
    for space in _spaces():
        phi = space.phi_dense()
        worst_sum = max(worst_sum, float(np.abs(phi.sum(axis=1) - 2 ** space.length).max()))
        rank = np.linalg.matrix_rank(phi)
        worst_rank = max(worst_rank, float(abs(rank - space.n_sequences)))
    return [("phi-row-sums", worst_sum, 0.0), ("phi-rank", worst_rank, 0.0)]


def _check_vc_dense_identity(rng):
    worst = 0.0
    for space in _spaces():
        for _ in range(5):
            kern = _rand_vc(space, rng)
            prod = kern.dense() @ kern.dense_inverse()
            worst = max(worst, float(np.abs(prod - np.eye(space.n_sequences)).max()))
    return [("vc-inverse-dense-identity", worst, 1e-10)]


def _check_product_closure(rng):
    worst = 0.0
    for space in _spaces():
        X = space.sequences_array()
        for _ in range(5):
            beta = float(rng.uniform(0.1, 0.9))
            geo = GeometricKernelSpec(beta).to_product(space)
            D = (X[:, None, :] != X[None, :, :]).sum(axis=2)
            worst = max(worst, float(np.abs(geo.matrix(X) - beta ** D).max()))
            z = rng.uniform(-0.9 / (space.alpha - 1), 0.9, space.length)
            conn = ConnectednessKernelSpec(tuple(z)).to_product(space)
            ref = np.ones((space.n_sequences, space.n_sequences))
            for p in range(space.length):
                ref *= np.where(X[:, None, p] != X[None, :, p], z[p], 1.0)
            worst = max(worst, float(np.abs(conn.matrix(X) - ref).max()))
            spec = _rand_jenga(space, rng)
            jen = spec.to_product(space)
            ref = np.ones((space.n_sequences, space.n_sequences))
            for p in range(space.length):
                zp = np.asarray(spec.factors[p])
                off = spec.signs[p] * np.outer(zp[X[:, p]], zp[X[:, p]])
                ref *= np.where(X[:, None, p] != X[None, :, p], off, 1.0)
            worst = max(worst, float(np.abs(jen.matrix(X) - ref).max()))
    return [("product-form-closure", worst, 1e-14)]


def _check_jenga_block_inverse(rng):
    worst = 0.0
    for alpha in range(2, 7):
        for sign in (-1, 1):
            for _ in range(5):
                if sign == 1:
                    a = rng.uniform(0.05, 0.95, alpha)
                else:
                    a = rng.uniform(0.05, 0.5, alpha)
                    while sum(v * v / (1 + v * v) for v in a) >= 1.0:
                        a *= 0.7
                block = sign * np.outer(a, a)
                np.fill_diagonal(block, 1.0)
                closed = jenga_block_inverse(sign, a)
                worst = max(worst, float(np.abs(closed - np.linalg.inv(block)).max()))
                worst = max(worst, float(np.abs(closed @ block - np.eye(alpha)).max()))
    return [("jenga-block-inverse", worst, 1e-12)]


def _check_kernel_pd(rng):
    failures = 0
    for space in _spaces():
        for _ in range(5):
            for kern in (_rand_product(space, rng), _rand_vc(space, rng),
                         _rand_jenga(space, rng).to_product(space)):
                try:
                    np.linalg.cholesky(kern.dense() + 1e-12 * np.eye(space.n_sequences))
                except np.linalg.LinAlgError:
                    failures += 1
    return [("dense-kernel-positive-definite", float(failures), 0.0)]


def _check_induced_diag_lambda_pi(rng):
    worst, worst_uni = 0.0, 0.0
    for space in _spaces():
        phi = space.phi_dense()
        for _ in range(5):
            lam = float(rng.uniform(0.3, 3.0))
            pi = _rand_pi(space, rng)
            kern = induced_kernel_diag_lambda_pi(lam, pi)
            diag = np.array([
                lam ** sub.size * np.prod([pi[p][c] for p, c in zip(sub.positions, sub.chars)])
                for sub in space.enumerate_subsequences()
            ])
            dense = phi @ np.diag(1.0 / diag) @ phi.T
            worst = max(worst, float(np.abs(kern.dense() - dense).max()))
            uni = induced_kernel_diag_lambda_pi(lam, ProductDistribution.uniform(space))
            X = space.sequences_array()
            D = (X[:, None, :] != X[None, :, :]).sum(axis=2)
            closed = (1.0 + space.alpha / lam) ** (space.length - D)
            worst_uni = max(worst_uni, float(np.abs(uni.dense() - closed).max()))
    return [("induced-prior-diag-lambda-pi", worst, 1e-10),
            ("induced-prior-uniform-closed-form", worst_uni, 1e-10)]


def _check_induced_order_diag(rng):
    worst, worst_rt, bad = 0.0, 0.0, 0
    for space in _spaces():
        phi = space.phi_dense()
        ell = space.length
        for _ in range(5):
            a = rng.uniform(0.3, 3.0, ell + 1)
            kern = induced_vc_from_order_diag(a, space)
            diag = np.array([a[sub.size] for sub in space.enumerate_subsequences()])
            dense = phi @ np.diag(1.0 / diag) @ phi.T
            worst = max(worst, float(np.abs(kern.dense() - dense).max()))
            back = order_diag_from_vc(kern)
            if isinstance(back, NotRepresentable):
                bad += 1
            else:
                worst_rt = max(worst_rt, float(np.abs(back - a).max()))
        flat = order_diag_from_vc(VcKernel(np.ones(ell + 1), space))
        if not isinstance(flat, NotRepresentable):
            bad += 1
        lams = np.full(ell + 1, 1.0)
        lams[: ell] = 1.0 + 1e-9 * np.arange(ell, 0, -1)
        lams[ell] = 0.5
        squeezed = order_diag_from_vc(VcKernel(lams, space))
        if not isinstance(squeezed, NotRepresentable):
            bad += 1
    return [("induced-prior-order-diag", worst, 1e-10),
            ("order-diag-roundtrip", worst_rt, 1e-10),
            ("order-diag-not-representable", float(bad), 0.0)]


def _check_wh_wt(rng):
    worst, flat = 0.0, 0.0
    for ell in (1, 2, 3):
        space = SequenceSpace("ab", ell)
        X = space.sequences_array()
        signs = 1.0 - 2.0 * X  # character 0 -> +1, character 1 -> -1
        masks = [[p + 1 for p in range(ell) if m >> p & 1] for m in range(2 ** ell)]
        H = np.stack([np.prod(signs[:, [p - 1 for p in mask]], axis=1) for mask in masks],
                     axis=1)
        T = np.stack([np.prod(X[:, [p - 1 for p in mask]] == 1, axis=1) for mask in masks],
                     axis=1).astype(float)
        for _ in range(5):
            rho = rng.uniform(0.3, 3.0, ell)
            diag = np.array([np.prod(rho[[p - 1 for p in mask]]) for mask in masks])
            KH = H @ np.diag(1.0 / diag) @ H.T
            KT = T @ np.diag(1.0 / diag) @ T.T
            for i in range(space.n_sequences):
                for j in range(space.n_sequences):
                    worst = max(worst, abs(wh_induced_entry(rho, X[i], X[j], space) - KH[i, j]))
                    worst = max(worst, abs(wt_induced_entry(rho, X[i], X[j], space) - KT[i, j]))
            wt_diag = np.array([wt_induced_entry(rho, x, x, space) for x in X])
            flat = max(flat, float(np.ptp(wt_diag) == 0.0))
    return [("wh-wt-induced-dense", worst, 1e-10),
            ("wt-heteroskedastic-witness", flat, 0.0)]


def _check_projection(rng):
    worst_idem, worst_range = 0.0, 0.0
    for space in _spaces():
        phi = space.phi_dense()
        full = [j for j, sub in enumerate(space.enumerate_subsequences())
                if sub.size == space.length]
        for eta in (0.0, 0.3, 1.0):
            gauge = GaugeSpec(eta, _rand_pi(space, rng))
            P = projection_dense(gauge, space)
            worst_idem = max(worst_idem, float(np.abs(P @ P - P).max()))
            f = rng.standard_normal(space.n_sequences)
            worst_range = max(worst_range, float(np.abs(phi @ (P[:, full] @ f) - f).max()))
    return [("projection-idempotent", worst_idem, 1e-10),
            ("projection-reproduces-function", worst_range, 1e-10)]


def _check_penalty(rng):
    worst, worst_null, missed = 0.0, 0.0, 0
    for space in _spaces():
        for eta in (0.3, 0.7, 1.0):
            gauge = GaugeSpec(eta, _rand_pi(space, rng))
            B = b_matrix_dense(gauge, space)
            Z = penalty_dense(gauge, space)
            worst = max(worst, float(np.abs(B.T @ B - Z).max()))
            P = projection_dense(gauge, space)
            v = P @ rng.standard_normal(space.n_subsequences)
            worst_null = max(worst_null, float(np.abs(Z @ v).max()))
            g = (np.eye(space.n_subsequences) - P) @ rng.standard_normal(space.n_subsequences)
            if np.abs(g).max() > 1e-8 and np.abs(Z @ g).max() < 1e-10:
                missed += 1
            resid = marginalization_residual(v, gauge, space)
            worst_null = max(worst_null, resid)
    return [("penalty-equals-btb", worst, 1e-10),
            ("penalty-nullspace-is-gauge", worst_null, 1e-10),
            ("penalty-detects-non-gauge", float(missed), 0.0)]


def _check_transform_vs_projection(rng):
    worst, worst_red = 0.0, 0.0
    for space in _spaces():
        subs = space.subsequences()
        full = [j for j, sub in enumerate(space.enumerate_subsequences())
                if sub.size == space.length]
        for eta in (0.3, 1.0):
            gauge = GaugeSpec(eta, _rand_pi(space, rng))
            P = projection_dense(gauge, space)
            M = transform_rows("gauge-weights", space, subs, gauge=gauge).dense_matrix(space)
            worst = max(worst, float(np.abs(M - P[:, full]).max()))
        pi = _rand_pi(space, rng)
        hier = transform_rows("hierarchical", space, subs,
                              gauge=GaugeSpec(0.5, pi)).dense_matrix(space)
        gw = transform_rows("gauge-weights", space, subs,
                            gauge=GaugeSpec(1.0, pi)).dense_matrix(space)
        worst_red = max(worst_red, float(np.abs(hier - gw).max()))
        zs = transform_rows("zero-sum", space, subs).dense_matrix(space)
        gw_uni = transform_rows("gauge-weights", space, subs,
                                gauge=GaugeSpec(1.0, ProductDistribution.uniform(space))
                                ).dense_matrix(space)
        worst_red = max(worst_red, float(np.abs(zs - gw_uni).max()))
        wt_ref = space.sequences_array()[rng.integers(0, space.n_sequences)]
        off_ref = [s for s in subs
                   if all(c != wt_ref[p - 1] for p, c in zip(s.positions, s.chars))]
        wt = transform_rows("wild-type", space, off_ref, reference=wt_ref)
        gw_pm = transform_rows(
            "gauge-weights", space, off_ref,
            gauge=GaugeSpec(1.0, ProductDistribution.point_mass(space, wt_ref)))
        worst_red = max(worst_red,
                        float(np.abs(wt.dense_matrix(space) - gw_pm.dense_matrix(space)).max()))
        if space.alpha == 2:
            ref = wt_ref
            off = [s for s in subs
                   if all(c != ref[p - 1] for p, c in zip(s.positions, s.chars))]
            ba = transform_rows("background-averaged", space, off,
                                reference=ref).dense_matrix(space)
            wh = transform_rows("walsh-hadamard", space, [s.positions for s in off],
                                reference=ref).dense_matrix(space)
            # mutant-positive vs reference-positive rows differ by (-1)^|S|
            scale = np.array([(-2.0) ** s.size / math.sqrt(2.0 ** space.length) for s in off])
            worst_red = max(worst_red, float(np.abs(ba - scale[:, None] * wh).max()))
    return [("gauge-weight-rows-match-projection", worst, 1e-12),
            ("transform-reductions", worst_red, 1e-12)]


def _check_phit_kinv_phi(rng):
    worst_vc, worst_prod, worst_cor = 0.0, 0.0, 0.0
    for space in _spaces():
        phi = space.phi_dense()
        subs = space.subsequences()
        for _ in range(5):
            vc = _rand_vc(space, rng)
            dense = phi.T @ np.linalg.inv(vc.dense()) @ phi
            closed = np.array([[phit_kinv_phi_vc(vc, a, b) for b in subs] for a in subs])
            worst_vc = max(worst_vc, float(np.abs(closed - dense).max()))
            pk = _rand_product(space, rng)
            dense = phi.T @ np.linalg.inv(pk.dense()) @ phi
            closed = np.array([[phit_kinv_phi_product(pk, a, b) for b in subs] for a in subs])
            worst_prod = max(worst_prod, float(np.abs(closed - dense).max()))
            jen = _rand_jenga(space, rng)
            jpk = jen.to_product(space)
            for a in subs:
                for b in subs:
                    worst_cor = max(worst_cor, abs(phit_kinv_phi_jenga(jen, a, b, space)
                                                   - phit_kinv_phi_product(jpk, a, b)))
            z = tuple(rng.uniform(-0.8 / (space.alpha - 1), 0.8, space.length))
            conn = ConnectednessKernelSpec(z)
            cpk = conn.to_product(space)
            beta = float(rng.uniform(0.1, 0.9))
            geo = GeometricKernelSpec(beta)
            gpk = geo.to_product(space)
            for a in subs:
                for b in subs:
                    worst_cor = max(worst_cor, abs(phit_kinv_phi_connectedness(conn, a, b, space)
                                                   - phit_kinv_phi_product(cpk, a, b)))
                    worst_cor = max(worst_cor, abs(phit_kinv_phi_geometric(geo, a, b, space)
                                                   - phit_kinv_phi_product(gpk, a, b)))
    return [("phit-kinv-phi-vc-dense", worst_vc, 1e-8),
            ("phit-kinv-phi-product-dense", worst_prod, 1e-8),
            ("phit-kinv-phi-corollaries", worst_cor, 1e-10)]


def _relative_gap(a, b):
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


def _check_four_estimators(rng):
    worst_eq, worst_marg = 0.0, 0.0
    for space in _spaces():
        for trial in range(6):
            kernel = _rand_product(space, rng) if trial % 2 == 0 else _rand_vc(space, rng)
            eta = 0.3 if trial % 3 == 0 else 1.0
            gauge = GaugeSpec(eta, _rand_pi(space, rng))
            noise = 0.01 if trial % 2 == 0 else 1.0
            t = (1, space.n_sequences // 2, space.n_sequences)[trial % 3]
            data = _rand_data(space, rng, t, noise)
            K = kernel.dense()
            lam = build_theta_regularizer(kernel, gauge, space)
            w_opt = ridge_weights(lam, data, space, beta=noise)
            f_gp = gp_posterior(kernel, data, space.sequences_array(), space).mean
            f_opt = ridge_function(np.linalg.inv(K), data, space, beta=noise)
            w_map = bayes_weight_posterior(np.linalg.inv(lam), data, space).mean
            phi = space.phi_dense()
            worst_eq = max(worst_eq, _relative_gap(phi @ w_opt, f_gp),
                           _relative_gap(f_opt, f_gp), _relative_gap(phi @ w_map, f_gp))
            worst_marg = max(worst_marg, marginalization_residual(w_opt, gauge, space))
    return [("four-estimator-equivalence", worst_eq, 1e-7),
            ("ridge-weights-in-gauge", worst_marg, 1e-8)]


def _check_regularizer_orthogonality(rng):
    worst = 0.0
    for space in _spaces()[:3]:
        kernel = _rand_product(space, rng)
        gauge = _rand_gauge(space, rng)
        lam = build_theta_regularizer(kernel, gauge, space)
        worst = max(worst, check_orthogonality(lam, gauge, space))
    return [("regularizer-orthogonalizes-gauge", worst, 1e-8)]


def _all_kind_transforms(space, rng):
    """One small transform per kind, with valid keys for each."""
    subs = space.subsequences()
    gauge = _rand_gauge(space, rng)
    ref = space.sequences_array()[rng.integers(0, space.n_sequences)]
    off_ref = [s for s in subs if all(c != ref[p - 1] for p, c in zip(s.positions, s.chars))]
    off_zero = [s for s in subs if all(c != 0 for c in s.chars)]
    out = [
        transform_rows("gauge-weights", space, subs, gauge=gauge),
        transform_rows("hierarchical", space, subs, gauge=gauge),
        transform_rows("zero-sum", space, subs),
        transform_rows("wild-type", space, off_ref, reference=ref),
        transform_rows("background-averaged", space, off_ref, reference=ref),
        transform_rows("fourier", space, off_zero),
    ]
    if space.alpha == 2:
        masks = [s.positions for s in off_zero]
        out.append(transform_rows("walsh-hadamard", space, masks))
    return out


def _check_kernel_trick(rng):
    worst_mk, worst_post = 0.0, 0.0
    for space in _spaces():
        for _ in range(3):
            kernel = _rand_product(space, rng)
            K = kernel.dense()
            data = _rand_data(space, rng, space.n_sequences // 2 + 1, 0.25)
            for transform in _all_kind_transforms(space, rng):
                M = transform.dense_matrix(space)
                X_all = space.sequences_array()
                worst_mk = max(worst_mk,
                               float(np.abs(mk_matrix(transform, kernel, X_all) - M @ K).max()),
                               float(np.abs(mkmt_matrix(transform, kernel) - M @ K @ M.T).max()))
                got = transform_posterior(transform, kernel, data)
                want = dense_transform_posterior(M, K, data, space)
                worst_post = max(worst_post, float(np.abs(got.mean - want.mean).max()),
                                 float(np.abs(got.cov - want.cov).max()))
    return [("mk-mkmt-match-dense", worst_mk, 1e-12),
            ("transform-posterior-matches-dense", worst_post, 1e-8)]


def _check_streamed_posterior(rng):
    """Both routes of the engine against the dense oracle, with and without data.

    ``vc`` kernels take the streamed route, under a block side below
    ``alpha**ell`` that does not divide it, so off-diagonal block pairs and a
    short last block both run; product kernels take the factorized route.
    Both covariance modes are checked.
    """
    worst = 0.0
    saved = posterior._STREAM_BLOCK
    try:
        for space in _spaces():
            n = space.n_sequences
            posterior._STREAM_BLOCK = next(side for side in range(2, n) if n % side)
            # order variances of mixed magnitude, to expose cancellation
            vc = VcKernel(10.0 ** rng.uniform(-3.0, 3.0, space.length + 1), space)
            for kernel in (vc, _rand_product(space, rng)):
                K = kernel.dense()
                for t in (0, n // 2 + 1):
                    data = _rand_data(space, rng, t, 0.25)
                    for transform in _all_kind_transforms(space, rng):
                        want = dense_transform_posterior(transform.dense_matrix(space), K,
                                                         data, space)
                        for want_covariance in (True, False):
                            got = transform_posterior(transform, kernel, data,
                                                      want_covariance)
                            worst = max(worst, float(np.abs(got.mean - want.mean).max()),
                                        float(np.abs(got.var - np.diag(want.cov)).max()))
                            if want_covariance:
                                worst = max(worst, float(np.abs(got.cov - want.cov).max()))
    finally:
        posterior._STREAM_BLOCK = saved
    return [("streamed-posterior-matches-dense", worst, 1e-8)]


def _check_gauge_weight_posterior(rng):
    worst_dense, worst_cross, worst_bayes = 0.0, 0.0, 0.0
    for space in _spaces():
        subs = space.subsequences()
        full = [j for j, sub in enumerate(space.enumerate_subsequences())
                if sub.size == space.length]
        for _ in range(3):
            kernel = _rand_product(space, rng)
            K = kernel.dense()
            gauge = _rand_gauge(space, rng)
            data = _rand_data(space, rng, max(2, space.n_sequences // 2), 0.5)
            got = gauge_weight_posterior(gauge, kernel, data, subs)
            P = projection_dense(gauge, space)
            want = dense_transform_posterior(P[:, full], K, data, space)
            worst_dense = max(worst_dense, float(np.abs(got.mean - want.mean).max()),
                              float(np.abs(got.cov - want.cov).max()))
            closed = gauge_weight_posterior_closed_form(gauge, kernel, data, subs)
            worst_cross = max(worst_cross, float(np.abs(got.mean - closed.mean).max()),
                              float(np.abs(got.cov - closed.cov).max()))
            lam = build_theta_regularizer(kernel, gauge, space)
            bw = bayes_weight_posterior(np.linalg.inv(lam), data, space)
            worst_bayes = max(worst_bayes,
                              float(np.abs(P @ bw.mean - got.mean).max()),
                              float(np.abs(P @ bw.cov @ P.T - got.cov).max()))
    return [("gauge-weight-posterior-matches-dense", worst_dense, 1e-8),
            ("gauge-weight-posterior-matches-rows", worst_cross, 1e-10),
            ("gauge-weight-posterior-matches-bayes", worst_bayes, 1e-8)]


def _check_spectral_projectors(rng):
    worst = 0.0
    for space in _spaces():
        projectors = vc_spectral_projectors(space)
        total = sum(projectors)
        worst = max(worst, float(np.abs(total - np.eye(space.n_sequences)).max()))
        for k, Pk in enumerate(projectors):
            for k2, Pk2 in enumerate(projectors):
                want = Pk if k == k2 else 0.0
                worst = max(worst, float(np.abs(Pk @ Pk2 - want).max()))
    return [("spectral-projectors", worst, 1e-10)]


def _check_dense_posterior_edges(rng):
    worst = 0.0
    for space in _spaces()[:2]:
        kernel = _rand_product(space, rng)
        K = kernel.dense()
        data = _rand_data(space, rng, 3, 0.5)
        eye = np.eye(space.n_sequences)
        got = dense_transform_posterior(eye, K, data, space)
        want = gp_posterior(kernel, data, space.sequences_array(), space)
        worst = max(worst, float(np.abs(got.mean - want.mean).max()),
                    float(np.abs(got.cov - want.cov).max()))
        empty = TrainingData(np.empty((0, space.length), dtype=np.int64), np.empty(0), 1.0)
        prior = dense_transform_posterior(eye, K, empty, space)
        worst = max(worst, float(np.abs(prior.mean).max()),
                    float(np.abs(prior.cov - K).max()))
    return [("dense-posterior-identity-reduction", worst, 1e-10)]


_REGISTRY = (
    _check_krawtchouk_identity,
    _check_phi_structure,
    _check_vc_dense_identity,
    _check_product_closure,
    _check_jenga_block_inverse,
    _check_kernel_pd,
    _check_induced_diag_lambda_pi,
    _check_induced_order_diag,
    _check_wh_wt,
    _check_projection,
    _check_penalty,
    _check_transform_vs_projection,
    _check_phit_kinv_phi,
    _check_four_estimators,
    _check_regularizer_orthogonality,
    _check_kernel_trick,
    _check_gauge_weight_posterior,
    _check_spectral_projectors,
    _check_dense_posterior_edges,
    _check_streamed_posterior,
)


def run_conformance(seed: int = DEFAULT_SEED) -> list[ConformanceResult]:
    """Run every registered closed-form-versus-oracle comparison.

    Each check draws from its own generator seeded by ``(seed, position)``,
    so results are reproducible and independent of registry order changes
    elsewhere.
    """
    results = []
    for i, check in enumerate(_REGISTRY):
        rng = np.random.default_rng([seed, i])
        for name, error, tol in check(rng):
            results.append(ConformanceResult(name, float(error), float(tol)))
    return results
