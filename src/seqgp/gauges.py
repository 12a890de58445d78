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

Each coefficient system is one transform kind.  :data:`KIND_RULES` states
once what each kind takes and which keys it accepts, and every kind's rows
are its background table with its member rows scattered in at the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, InvalidIndexError, ParameterError
from .seqspace import SequenceSpace, Subsequence

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


def _evaluate_rows(tables: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``out[i, n] = prod_p tables[i, p, X[n, p]]``, shape ``(j, len(X))``."""
    out = np.ones((tables.shape[0], X.shape[0]))
    for p in range(X.shape[1]):
        out *= tables[:, p, :][:, X[:, p]]
    return out


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
        return _evaluate_rows(self.factors, space.sequences_array())


@dataclass(frozen=True)
class KindRules:
    """What one transform kind takes, and which keys it accepts."""

    gauge: bool  # reads a GaugeSpec (gauge-weights its eta and pi, hierarchical its pi)
    reference: str  # "required", "optional" (default: character 0 everywhere) or "refused"
    off_reference: bool  # keys avoid the reference: alpha - 1 characters per position
    binary: bool = False  # two-character alphabets only
    by_positions: bool = False  # keys are position sets; the rows ignore the characters
    named: bool = False  # row labels start with "<kind>:"


KIND_RULES = {
    "gauge-weights": KindRules(gauge=True, reference="refused", off_reference=False),
    "hierarchical": KindRules(gauge=True, reference="refused", off_reference=False),
    "zero-sum": KindRules(gauge=False, reference="refused", off_reference=False),
    "wild-type": KindRules(gauge=False, reference="required", off_reference=True),
    "background-averaged": KindRules(gauge=False, reference="required", off_reference=True,
                                     named=True),
    "fourier": KindRules(gauge=False, reference="optional", off_reference=True, named=True),
    "walsh-hadamard": KindRules(gauge=False, reference="optional", off_reference=False,
                                binary=True, by_positions=True, named=True),
}
TRANSFORM_KINDS = tuple(KIND_RULES)


def kind_rules(kind: str) -> KindRules:
    """The rules of a transform kind; ParameterError for an unknown name."""
    if kind not in KIND_RULES:
        raise ParameterError(f"unknown transform kind {kind!r}; expected one of {TRANSFORM_KINDS}")
    return KIND_RULES[kind]


def _reference(kind: str, space: SequenceSpace, reference) -> tuple | None:
    """The encoded reference of a kind, its default, or None when it takes none."""
    rule = KIND_RULES[kind].reference
    if reference is None:
        if rule == "required":
            raise ParameterError(f"transform kind {kind!r} requires a reference sequence")
        return (0,) * space.length if rule == "optional" else None
    if rule == "refused":
        raise ParameterError(f"transform kind {kind!r} takes no reference sequence")
    return space.encode_sequence(reference)


def _kind_tables(kind: str, space: SequenceSpace, gauge: GaugeSpec | None, ref):
    """``(background, members)`` of a kind, shapes ``(ell, alpha)`` and ``(ell, alpha, alpha)``.

    ``background[p]`` is the factor row of a position outside the key and
    ``members[p, c]`` the row of a position the key sets to ``c``.  Only
    entries at off-reference ``c`` are read for off-reference kinds.
    """
    ell, alpha = space.length, space.alpha
    diag = np.arange(alpha)
    if kind in ("gauge-weights", "hierarchical", "zero-sum"):
        eta = gauge.eta if kind == "gauge-weights" else 1.0
        pi = ProductDistribution.uniform(space) if kind == "zero-sum" else gauge.pi
        background = pi.probs * eta
        members = np.repeat(-background[:, None, :], alpha, axis=1)
        # +1 on the diagonal only: adding a whole identity would turn the
        # -0.0 entries of a point-mass pi or eta = 0 into +0.0
        members[:, diag, diag] += 1.0
        return background, members
    e_ref = np.zeros((ell, alpha))
    e_ref[np.arange(ell), ref] = 1.0
    root = math.sqrt(alpha)
    if kind == "fourier":
        members = np.repeat(np.where(e_ref == 1.0, 1.0, -1.0 / (root - 1.0))[:, None, :],
                            alpha, axis=1)
        members[:, diag, diag] += root
        return np.full((ell, alpha), 1.0 / root), members / root
    if kind == "walsh-hadamard":
        rows = np.where(e_ref == 1.0, 1.0 / root, -1.0 / root)
        return np.full((ell, alpha), 1.0 / root), np.repeat(rows[:, None, :], alpha, axis=1)
    # wild-type and background-averaged: e_c - e_ref at every key position
    members = np.eye(alpha) - e_ref[:, None, :]
    return (e_ref if kind == "wild-type" else np.full((ell, alpha), 1.0 / alpha)), members


def _position_set(key, space: SequenceSpace) -> tuple[int, ...]:
    positions = tuple(sorted(int(p) for p in key))
    if any(not 1 <= p <= space.length for p in positions) or len(set(positions)) != len(positions):
        raise InvalidIndexError(f"bad position set {key!r}")
    return positions


def transform_rows(kind: str, space: SequenceSpace, keys,
                   gauge: GaugeSpec | None = None, reference=None) -> FactorizedTransform:
    """Build the factorized rows of a named transform for the given keys.

    ``keys`` holds subsequences for every kind except ``walsh-hadamard``,
    which is indexed by position tuples.  What each kind takes and accepts
    is stated once, in :data:`KIND_RULES`.  Every row starts as the kind's
    background table; one scatter then writes the member row of each
    position a key fixes (see :func:`_kind_tables`).
    """
    rules = kind_rules(kind)
    ref = _reference(kind, space, reference)
    if rules.gauge and gauge is None:
        raise ParameterError(f"{kind} rows need a GaugeSpec"
                             + (" for its pi" if kind == "hierarchical" else ""))
    if not rules.gauge and gauge is not None:
        raise ParameterError(f"transform kind {kind!r} takes no gauge")
    if rules.binary and space.alpha != 2:
        raise ParameterError(f"{kind} rows are defined only for two-character alphabets")

    prefix = f"{kind}:" if rules.named else ""
    if rules.by_positions:
        kept = [_position_set(key, space) for key in keys]
        # the member rows do not depend on the character; scatter index 0
        subs = [Subsequence(p, (0,) * len(p)) for p in kept]
        labels = [prefix + (";".join(map(str, p)) or "-") for p in kept]
    else:
        kept = subs = [space.validate_subsequence(key) for key in keys]
        labels = [prefix + space.format_subsequence(sub) for sub in subs]
    rows = np.repeat(np.arange(len(subs)), [sub.size for sub in subs])
    pos = np.fromiter((p - 1 for sub in subs for p in sub.positions), np.intp, rows.size)
    chars = np.fromiter((c for sub in subs for c in sub.chars), np.intp, rows.size)
    if rules.off_reference:
        on_ref = np.flatnonzero(chars == np.asarray(ref)[pos])
        if on_ref.size:
            first = on_ref[0]
            raise InvalidIndexError(
                f"{space.format_subsequence(subs[rows[first]])!r} matches the reference at "
                f"position {pos[first] + 1}; "
                f"{kind} coefficients are defined only off the reference"
            )
    background, members = _kind_tables(kind, space, gauge, ref)
    factors = np.broadcast_to(background, (len(subs),) + background.shape).copy()
    factors[rows, pos] = members[pos, chars]
    return FactorizedTransform(labels, factors, kept)


def all_transform_keys(kind: str, space: SequenceSpace, reference=None) -> list:
    """Every valid coefficient key for a kind, in canonical order.  Dense-capped."""
    rules = kind_rules(kind)
    ref = _reference(kind, space, reference)
    if rules.by_positions:
        space.require_dense(2 ** space.length, f"{kind} key enumeration")
        return [tuple(p + 1 for p in range(space.length) if mask >> p & 1)
                for mask in range(2 ** space.length)]
    subs = space.subsequences()
    if not rules.off_reference:
        return subs
    return [sub for sub in subs
            if all(c != ref[p - 1] for p, c in zip(sub.positions, sub.chars))]


def parse_coefficient_key(kind: str, text: str, space: SequenceSpace):
    """Parse one coefficient key in its text form for the given kind."""
    if kind_rules(kind).by_positions:
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
