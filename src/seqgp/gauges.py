"""Gauges on weight space and factorized linear transforms of functions.

A function on sequence space has many weight-space representations; a gauge
picks one.  The family implemented here is parameterized by an order-balance
parameter ``eta = lambda / (1 + lambda)`` in [0, 1] and a per-position
probability distribution ``pi``.  The module provides:

* projection matrices onto the gauge, entrywise and dense,
* the sparse quadratic penalty ``Z = B^T B`` whose null space is the gauge,
* the marginalization residual that characterizes gauge membership, and
* rows of position-factorized linear maps from function space to
  interpretable coefficients (gauge-fixed weights, epistasis coefficients,
  Fourier/Walsh-Hadamard coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, InvalidIndexError, ParameterError
from .seqspace import SequenceSpace, Subsequence

TRANSFORM_KINDS = (
    "gauge-weights",
    "hierarchical",
    "zero-sum",
    "wild-type",
    "background-averaged",
    "fourier",
    "walsh-hadamard",
)

_PROB_TOL = 1e-12


class ProductDistribution:
    """Per-position probability distributions over the alphabet.

    Rows must be nonnegative and sum to one within 1e-12.  Point-mass rows
    (exactly one unit entry) are allowed; they realize wild-type style gauges.
    """

    def __init__(self, probs, space: SequenceSpace):
        arr = np.asarray(probs, dtype=float)
        if arr.shape != (space.length, space.alpha):
            raise DimensionError(
                f"expected probability shape {(space.length, space.alpha)}, got {arr.shape}"
            )
        if np.any(arr < 0):
            raise ParameterError("probabilities must be nonnegative")
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _PROB_TOL):
            raise ParameterError(f"probability rows must sum to 1, got sums {sums}")
        self.probs = arr
        self.space = space

    @classmethod
    def uniform(cls, space: SequenceSpace) -> "ProductDistribution":
        return cls(np.full((space.length, space.alpha), 1.0 / space.alpha), space)

    @classmethod
    def point_mass(cls, space: SequenceSpace, seq) -> "ProductDistribution":
        chars = space.encode_sequence(seq)
        probs = np.zeros((space.length, space.alpha))
        probs[np.arange(space.length), chars] = 1.0
        return cls(probs, space)

    @property
    def full_support(self) -> bool:
        return bool(np.all(self.probs > 0))

    @property
    def is_point_mass(self) -> bool:
        return bool(np.all(np.max(self.probs, axis=1) == 1.0))

    def __getitem__(self, position: int) -> np.ndarray:
        """Distribution row for a 1-based position."""
        return self.probs[position - 1]


def eta_from_lambda(lam: float) -> float:
    """Map the order-balance parameter from [0, inf] to eta in [0, 1]."""
    if lam != lam or lam < 0:
        raise ParameterError(f"lambda must be in [0, inf], got {lam}")
    if math.isinf(lam):
        return 1.0
    return lam / (1.0 + lam)


@dataclass(frozen=True)
class GaugeSpec:
    """A gauge given by ``eta`` in [0, 1] and a product distribution."""

    eta: float
    pi: ProductDistribution

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ParameterError(f"eta must be in [0, 1], got {self.eta}")

    @classmethod
    def from_lambda(cls, lam: float, pi: ProductDistribution) -> "GaugeSpec":
        return cls(eta_from_lambda(lam), pi)

    @property
    def lam(self) -> float:
        return math.inf if self.eta == 1.0 else self.eta / (1.0 - self.eta)

    @property
    def balance_ratio(self) -> float:
        """(1 - eta) / eta, the marginalization proportionality constant."""
        if self.eta == 0.0:
            raise ParameterError("eta = 0 (trivial gauge) has no finite balance ratio")
        return (1.0 - self.eta) / self.eta


# -- projection ------------------------------------------------------------


def projection_entry(gauge: GaugeSpec, sub_row: Subsequence, sub_col: Subsequence,
                     space: SequenceSpace) -> float:
    """Entry of the projection matrix onto the gauge, weight space to itself."""
    space.validate_subsequence(sub_row)
    space.validate_subsequence(sub_col)
    eta, pi = gauge.eta, gauge.pi
    row = dict(zip(sub_row.positions, sub_row.chars))
    col = dict(zip(sub_col.positions, sub_col.chars))
    value = 1.0
    for p in range(1, space.length + 1):
        in_row, in_col = p in row, p in col
        if in_row and in_col:
            value *= (1.0 if row[p] == col[p] else 0.0) - pi[p][col[p]] * eta
        elif in_row:
            value *= 1.0 - eta
        elif in_col:
            value *= pi[p][col[p]] * eta
        else:
            value *= eta
        if value == 0.0:
            return 0.0
    return value


def projection_dense(gauge: GaugeSpec, space: SequenceSpace) -> np.ndarray:
    """Full projection matrix over all subsequences in canonical order."""
    subs = space.subsequences()
    P = np.empty((len(subs), len(subs)))
    for i, si in enumerate(subs):
        for j, sj in enumerate(subs):
            P[i, j] = projection_entry(gauge, si, sj, space)
    return P


# -- penalty Z = B^T B ------------------------------------------------------


def penalty_entry(gauge: GaugeSpec, sub_row: Subsequence, sub_col: Subsequence,
                  space: SequenceSpace) -> float:
    """Entry of the gauge penalty ``Z = B^T B``.

    The matrix is as sparse as the Laplacian of the Hamming graph on
    ``(alpha + 1)``-ary words: a subsequence couples only to itself, to
    subsequences on the same positions differing at exactly one position, and
    to its one-position extensions and restrictions.  Requires ``eta > 0``.
    """
    r = gauge.balance_ratio
    pi = gauge.pi
    space.validate_subsequence(sub_row)
    space.validate_subsequence(sub_col)
    if sub_row == sub_col:
        ell = space.length
        return (ell - sub_row.size) * r * r + sum(
            pi[p][c] ** 2 for p, c in zip(sub_row.positions, sub_row.chars)
        )
    if sub_row.positions == sub_col.positions:
        diff = [k for k, (a, b) in enumerate(zip(sub_row.chars, sub_col.chars)) if a != b]
        if len(diff) == 1:
            k = diff[0]
            p = sub_row.positions[k]
            return pi[p][sub_row.chars[k]] * pi[p][sub_col.chars[k]]
        return 0.0
    small, big = sorted((sub_row, sub_col), key=lambda s: s.size)
    if big.size == small.size + 1 and set(small.positions) < set(big.positions):
        extends = all(big.char_at(p) == c for p, c in zip(small.positions, small.chars))
        if extends:
            p = next(iter(set(big.positions) - set(small.positions)))
            return -r * pi[p][big.char_at(p)]
    return 0.0


def penalty_dense(gauge: GaugeSpec, space: SequenceSpace) -> np.ndarray:
    subs = space.subsequences()
    Z = np.empty((len(subs), len(subs)))
    for i, si in enumerate(subs):
        for j, sj in enumerate(subs):
            Z[i, j] = penalty_entry(gauge, si, sj, space)
    return Z


def b_matrix_row(gauge: GaugeSpec, base: Subsequence, position: int,
                 space: SequenceSpace) -> tuple[np.ndarray, np.ndarray]:
    """One row of the constraint matrix B, as (column indices, values).

    Rows are indexed by (base subsequence, extra position): the row carries
    ``pi^p_c`` at each one-character extension of ``base`` at ``position`` and
    ``-(1 - eta)/eta`` at ``base`` itself.  Every weight vector in the gauge
    is annihilated by every row.
    """
    if position in base.positions:
        raise ParameterError(f"position {position} already in base subsequence")
    if not 1 <= position <= space.length:
        raise ParameterError(f"position {position} outside 1..{space.length}")
    r = gauge.balance_ratio
    idx = [space.subsequence_index(base.extend(position, c)) for c in range(space.alpha)]
    vals = [gauge.pi[position][c] for c in range(space.alpha)]
    idx.append(space.subsequence_index(base))
    vals.append(-r)
    return np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=float)


def b_matrix_dense(gauge: GaugeSpec, space: SequenceSpace) -> np.ndarray:
    """Dense B with one row per (subsequence, absent position) pair."""
    subs = space.subsequences()
    rows = []
    for sub in subs:
        for p in range(1, space.length + 1):
            if p in sub.positions:
                continue
            row = np.zeros(space.n_subsequences)
            idx, vals = b_matrix_row(gauge, sub, p, space)
            row[idx] += vals
            rows.append(row)
    return np.asarray(rows)


def marginalization_residual(w, gauge: GaugeSpec, space: SequenceSpace) -> float:
    """Largest violation of the gauge's marginalization constraints.

    For every subsequence and absent position, the pi-weighted average of the
    one-character extensions must equal ``(1 - eta)/eta`` times the weight of
    the subsequence itself.  Zero (up to round-off) iff ``w`` is in the gauge.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (space.n_subsequences,):
        raise DimensionError(f"weight vector has shape {w.shape}, expected ({space.n_subsequences},)")
    r = gauge.balance_ratio
    worst = 0.0
    for sub in space.enumerate_subsequences():
        base_w = w[space.subsequence_index(sub)]
        for p in range(1, space.length + 1):
            if p in sub.positions:
                continue
            avg = sum(
                gauge.pi[p][c] * w[space.subsequence_index(sub.extend(p, c))]
                for c in range(space.alpha)
            )
            worst = max(worst, abs(avg - r * base_w))
    return worst


# -- factorized transforms ---------------------------------------------------


@dataclass
class FactorizedTransform:
    """Rows of a linear map out of function space, factorized by position.

    Row ``i`` evaluated at a sequence ``x`` is ``prod_p factors[i, p, x_p]``;
    the ``(j, length, alpha)`` factor array is all the kernel trick needs.
    """

    labels: list[str]
    factors: np.ndarray
    keys: list = field(default_factory=list)

    def __post_init__(self):
        self.factors = np.asarray(self.factors, dtype=float)
        if self.factors.ndim != 3 or self.factors.shape[0] != len(self.labels):
            raise DimensionError(
                f"factor array shape {self.factors.shape} does not match {len(self.labels)} labels"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ParameterError("row labels must be unique")

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def dense_matrix(self, space: SequenceSpace) -> np.ndarray:
        """Rows evaluated at every sequence in canonical order.  Dense-capped."""
        X = space.sequences_array()
        M = np.ones((self.n_rows, space.n_sequences))
        for p in range(space.length):
            M *= self.factors[:, p, :][:, X[:, p]]
        return M


def gauge_weight_factors(gauge: GaugeSpec, sub: Subsequence, space: SequenceSpace) -> np.ndarray:
    """Per-position factor table of one gauge-fixed-weight row."""
    eta, pi = gauge.eta, gauge.pi
    table = np.empty((space.length, space.alpha))
    members = dict(zip(sub.positions, sub.chars))
    for p in range(1, space.length + 1):
        base = pi[p] * eta
        if p in members:
            table[p - 1] = -base
            table[p - 1, members[p]] += 1.0
        else:
            table[p - 1] = base
    return table


def _require_reference(space, reference, kind):
    if reference is None:
        raise ParameterError(f"transform kind {kind!r} requires a reference sequence")
    return space.encode_sequence(reference)


def transform_rows(kind: str, space: SequenceSpace, keys,
                   gauge: GaugeSpec | None = None, reference=None) -> FactorizedTransform:
    """Build the factorized rows of a named transform for the given keys.

    ``keys`` holds subsequences for every kind except ``walsh-hadamard``,
    which is indexed by position tuples.  Kinds anchored to a reference
    sequence (``wild-type``, ``background-averaged``) accept only
    subsequences that differ from the reference at every included position;
    ``fourier`` does the same against its reference allele (default: index 0
    at every position).
    """
    if kind not in TRANSFORM_KINDS:
        raise ParameterError(f"unknown transform kind {kind!r}; expected one of {TRANSFORM_KINDS}")
    ell, alpha = space.length, space.alpha

    if kind in ("wild-type", "background-averaged"):
        ref = _require_reference(space, reference, kind)
    elif kind in ("fourier", "walsh-hadamard"):
        ref = space.encode_sequence(reference) if reference is not None else (0,) * ell
    elif reference is not None:
        raise ParameterError(f"transform kind {kind!r} takes no reference sequence")
    if kind == "gauge-weights":
        if gauge is None:
            raise ParameterError("gauge-weights rows need a GaugeSpec")
    elif kind == "hierarchical":
        if gauge is None:
            raise ParameterError("hierarchical rows need a GaugeSpec for its pi")
        gauge = GaugeSpec(1.0, gauge.pi)
    elif gauge is not None:
        raise ParameterError(f"transform kind {kind!r} takes no gauge")
    if kind == "zero-sum":
        gauge = GaugeSpec(1.0, ProductDistribution.uniform(space))
    if kind == "walsh-hadamard" and alpha != 2:
        raise ParameterError("walsh-hadamard rows are defined only for two-character alphabets")

    labels, factors, kept_keys = [], [], []
    for key in keys:
        if kind == "walsh-hadamard":
            positions = tuple(sorted(int(p) for p in key))
            if any(not 1 <= p <= ell for p in positions) or len(set(positions)) != len(positions):
                raise InvalidIndexError(f"bad position set {key!r}")
            label = "walsh-hadamard:" + (";".join(str(p) for p in positions) or "-")
            table = np.full((ell, alpha), 1.0 / math.sqrt(alpha))
            for p in positions:
                row = np.full(alpha, -1.0 / math.sqrt(alpha))
                row[ref[p - 1]] = 1.0 / math.sqrt(alpha)
                table[p - 1] = row
            labels.append(label)
            factors.append(table)
            kept_keys.append(positions)
            continue

        sub = space.validate_subsequence(key)
        if kind in ("gauge-weights", "hierarchical", "zero-sum"):
            table = gauge_weight_factors(gauge, sub, space)
            label = space.format_subsequence(sub)
        elif kind == "wild-type":
            _check_off_reference(space, sub, ref, kind)
            table = np.zeros((ell, alpha))
            table[np.arange(ell), ref] = 1.0
            for p, c in zip(sub.positions, sub.chars):
                row = np.zeros(alpha)
                row[c] += 1.0
                row[ref[p - 1]] -= 1.0
                table[p - 1] = row
            label = space.format_subsequence(sub)
        elif kind == "background-averaged":
            _check_off_reference(space, sub, ref, kind)
            table = np.full((ell, alpha), 1.0 / alpha)
            for p, c in zip(sub.positions, sub.chars):
                row = np.zeros(alpha)
                row[c] += 1.0
                row[ref[p - 1]] -= 1.0
                table[p - 1] = row
            label = "background-averaged:" + space.format_subsequence(sub)
        elif kind == "fourier":
            _check_off_reference(space, sub, ref, kind)
            root = math.sqrt(alpha)
            table = np.full((ell, alpha), 1.0 / root)
            for p, c in zip(sub.positions, sub.chars):
                row = np.full(alpha, -1.0 / (root - 1.0))
                row[ref[p - 1]] = 1.0
                row[c] += root
                table[p - 1] = row / root
            label = "fourier:" + space.format_subsequence(sub)
        labels.append(label)
        factors.append(table)
        kept_keys.append(sub)

    return FactorizedTransform(labels, np.asarray(factors).reshape(len(labels), ell, alpha),
                               kept_keys)


def _check_off_reference(space, sub: Subsequence, ref, kind: str) -> None:
    for p, c in zip(sub.positions, sub.chars):
        if c == ref[p - 1]:
            raise InvalidIndexError(
                f"{space.format_subsequence(sub)!r} matches the reference at position {p}; "
                f"{kind} coefficients are defined only off the reference"
            )


def all_transform_keys(kind: str, space: SequenceSpace, reference=None) -> list:
    """Every valid coefficient key for a kind, in canonical order.  Dense-capped."""
    if kind == "walsh-hadamard":
        space.require_dense(2 ** space.length, "walsh-hadamard key enumeration")
        out = []
        for mask in range(2 ** space.length):
            out.append(tuple(p + 1 for p in range(space.length) if mask >> p & 1))
        return out
    if kind in ("wild-type", "background-averaged", "fourier"):
        if reference is not None:
            ref = space.encode_sequence(reference)
        elif kind == "fourier":
            ref = (0,) * space.length
        else:
            raise ParameterError(f"transform kind {kind!r} requires a reference sequence")
        keys = []
        for sub in space.enumerate_subsequences():
            if all(c != ref[p - 1] for p, c in zip(sub.positions, sub.chars)):
                keys.append(sub)
        return keys
    return space.subsequences()


def parse_coefficient_key(kind: str, text: str, space: SequenceSpace):
    """Parse one coefficient key in its text form for the given kind."""
    if kind == "walsh-hadamard":
        text = text.strip()
        if text == "-":
            return ()
        try:
            positions = tuple(int(p) for p in text.split(";"))
        except ValueError:
            raise ParameterError(f"malformed position set {text!r}") from None
        if any(not 1 <= p <= space.length for p in positions):
            raise ParameterError(f"position out of range in {text!r}")
        if len(set(positions)) != len(positions):
            raise ParameterError(f"duplicate position in {text!r}")
        return tuple(sorted(positions))
    return space.parse_subsequence(text)


# -- config ------------------------------------------------------------------


def gauge_from_config(cfg: dict, space: SequenceSpace) -> GaugeSpec:
    """Build a GaugeSpec from a config block ``{"lambda": ..., "pi": ...}``.

    ``lambda`` is a nonnegative number or the string ``"inf"``; ``pi`` is
    ``"uniform"``, ``"wild-type:<sequence>"``, or a list of per-position
    probability rows.  Unknown keys are rejected.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"gauge block must be a mapping, got {type(cfg).__name__}")
    unknown = set(cfg) - {"lambda", "pi"}
    if unknown:
        raise ConfigError(f"unknown gauge keys {sorted(unknown)}")
    if "lambda" not in cfg or "pi" not in cfg:
        raise ConfigError("gauge block needs both 'lambda' and 'pi'")
    lam = cfg["lambda"]
    if isinstance(lam, str):
        if lam.lower() not in ("inf", "infinity"):
            raise ConfigError(f"lambda must be a number or 'inf', got {lam!r}")
        lam = math.inf
    elif not isinstance(lam, (int, float)) or isinstance(lam, bool):
        raise ConfigError(f"lambda must be a number or 'inf', got {lam!r}")
    pi_cfg = cfg["pi"]
    try:
        if pi_cfg == "uniform":
            pi = ProductDistribution.uniform(space)
        elif isinstance(pi_cfg, str) and pi_cfg.startswith("wild-type:"):
            pi = ProductDistribution.point_mass(space, pi_cfg.split(":", 1)[1])
        elif isinstance(pi_cfg, list):
            pi = ProductDistribution(pi_cfg, space)
        else:
            raise ConfigError(f"unsupported pi specification {pi_cfg!r}")
        return GaugeSpec.from_lambda(float(lam), pi)
    except (TypeError, ValueError, OverflowError) as exc:
        # ValueError covers ParameterError and DimensionError; OverflowError
        # an integer too large for a float
        raise ConfigError(str(exc)) from exc
