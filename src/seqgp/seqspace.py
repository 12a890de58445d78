"""Sequence spaces over finite alphabets.

A :class:`SequenceSpace` indexes the ``alpha**ell`` sequences of length
``ell`` over an ``alpha``-character alphabet together with the
``(alpha+1)**ell`` subsequences (a subset of positions plus one character per
position).  It provides Hamming geometry, the dense subsequence indicator
matrix, deterministic enumeration orders, and exact integer combinatorics
(binomial coefficients and Krawtchouk polynomials).

Canonical orders
----------------
Sequences are ordered as base-``alpha`` integers with position 1 the most
significant digit.  Subsequences are ordered first by the bitmask of their
position set (bit ``p-1`` set when position ``p`` is included, masks in
increasing integer order, so the empty subsequence comes first) and within a
position set by the base-``alpha`` code of their characters, again with the
first position most significant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionError, ParameterError, SizeGuardError

DEFAULT_DENSE_CAP = 2 ** 20
_MAX_INDEX = 2 ** 63 - 1


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); zero when ``k > n``."""
    if n < 0 or k < 0:
        raise ParameterError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        return 0
    return math.comb(n, k)


def krawtchouk(k: int, d: int, ell: int, alpha: int) -> int:
    """Krawtchouk polynomial value at integer arguments, exactly.

    Evaluates ``sum_i (-1)^i (alpha-1)^(k-i) C(d, i) C(ell-d, k-i)`` over
    ``i = 0..k`` in arbitrary-precision integer arithmetic.
    """
    if not 0 <= k <= ell:
        raise ParameterError(f"order k={k} outside [0, {ell}]")
    if not 0 <= d <= ell:
        raise ParameterError(f"distance d={d} outside [0, {ell}]")
    total = 0
    for i in range(k + 1):
        total += (-1) ** i * (alpha - 1) ** (k - i) * binomial(d, i) * binomial(ell - d, k - i)
    return total


@dataclass(frozen=True)
class Subsequence:
    """A subset of positions (1-based, ascending) and one character per position.

    The empty subsequence ``Subsequence((), ())`` is valid and matches every
    sequence.
    """

    positions: tuple[int, ...]
    chars: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.chars):
            raise DimensionError(
                f"{len(self.positions)} positions but {len(self.chars)} characters"
            )
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ParameterError(f"positions must be strictly increasing: {self.positions}")
        if self.positions and self.positions[0] < 1:
            raise ParameterError("positions are 1-based")

    @property
    def size(self) -> int:
        return len(self.positions)

    def char_at(self, position: int):
        """Character index at ``position``, or None when the position is absent."""
        try:
            return self.chars[self.positions.index(position)]
        except ValueError:
            return None

    def extend(self, position: int, char: int) -> "Subsequence":
        """New subsequence with ``position`` added carrying ``char``."""
        if position in self.positions:
            raise ParameterError(f"position {position} already present")
        merged = sorted(zip(self.positions + (position,), self.chars + (char,)))
        return Subsequence(tuple(p for p, _ in merged), tuple(c for _, c in merged))


EMPTY_SUBSEQUENCE = Subsequence((), ())


class SequenceSpace:
    """The space of length-``length`` sequences over ``alphabet``.

    Parameters
    ----------
    alphabet : str or iterable of single-character symbols
        At least two distinct symbols.
    length : int
        Sequence length, at least 1.  Positions are 1-based.
    dense_cap : int, optional
        Maximum number of items any dense enumeration in this space may
        materialize.  Closed-form evaluation paths are never subject to the
        cap; only dense constructions are.
    """

    def __init__(self, alphabet, length: int, dense_cap: int = DEFAULT_DENSE_CAP):
        symbols = tuple(alphabet)
        if len(symbols) < 2:
            raise ParameterError("alphabet needs at least two symbols")
        if len(set(symbols)) != len(symbols):
            raise ParameterError(f"alphabet symbols must be distinct: {symbols}")
        if any(len(str(s)) != 1 for s in symbols):
            raise ParameterError("alphabet symbols must be single characters")
        if length < 1:
            raise ParameterError(f"length must be >= 1, got {length}")
        self.alphabet = tuple(str(s) for s in symbols)
        self.length = int(length)
        self.dense_cap = int(dense_cap)
        self._char_index = {c: i for i, c in enumerate(self.alphabet)}
        if self.length > 64:
            # 3^65 > 2^63 already; the exact test below would first build an
            # integer of about ell bits, which never finishes for huge ell
            raise SizeGuardError(f"length {self.length} puts (alpha+1)^ell above the "
                                 "platform index range")
        self.n_sequences = len(self.alphabet) ** self.length
        self.n_subsequences = (len(self.alphabet) + 1) ** self.length
        if self.n_subsequences > _MAX_INDEX:
            raise SizeGuardError(
                f"(alpha+1)^ell = {self.n_subsequences} exceeds the platform index range"
            )
        self._sub_offsets = None

    # -- basic shape ------------------------------------------------------

    @property
    def alpha(self) -> int:
        return len(self.alphabet)

    def __eq__(self, other):
        return (
            isinstance(other, SequenceSpace)
            and self.alphabet == other.alphabet
            and self.length == other.length
        )

    def __hash__(self):
        return hash((self.alphabet, self.length))

    def __repr__(self):
        return f"SequenceSpace(alphabet={''.join(self.alphabet)!r}, length={self.length})"

    def require_dense(self, count: int, what: str) -> None:
        """Raise :class:`SizeGuardError` when ``count`` exceeds the cap."""
        if count > self.dense_cap:
            raise SizeGuardError(
                f"{what} would materialize {count} items, above the dense cap "
                f"{self.dense_cap}; raise dense_cap explicitly for larger instances"
            )

    # -- sequences --------------------------------------------------------

    def encode_sequence(self, seq) -> tuple[int, ...]:
        """Normalize a sequence (string or iterable of indices) to index tuple."""
        if isinstance(seq, str):
            if len(seq) != self.length:
                raise DimensionError(f"sequence {seq!r} has length {len(seq)}, expected {self.length}")
            try:
                return tuple(self._char_index[c] for c in seq)
            except KeyError as exc:
                raise ParameterError(f"unknown character {exc.args[0]!r} in sequence {seq!r}") from None
        chars = tuple(int(c) for c in seq)
        if len(chars) != self.length:
            raise DimensionError(f"sequence has length {len(chars)}, expected {self.length}")
        if any(not 0 <= c < self.alpha for c in chars):
            raise ParameterError(f"character index out of range in {chars}")
        return chars

    def encode_batch(self, seqs) -> np.ndarray:
        """Normalize a list of sequences to an ``(n, length)`` int array."""
        arr = np.asarray([self.encode_sequence(s) for s in seqs], dtype=np.int64)
        return arr.reshape(len(seqs), self.length) if len(seqs) else arr.reshape(0, self.length)

    def format_sequence(self, seq) -> str:
        return "".join(self.alphabet[int(c)] for c in seq)

    def sequence_index(self, seq) -> int:
        idx = 0
        for c in self.encode_sequence(seq):
            idx = idx * self.alpha + c
        return idx

    def sequence_indices(self, X) -> np.ndarray:
        """Canonical indices of the rows of an encoded ``(n, length)`` array."""
        powers = self.alpha ** np.arange(self.length - 1, -1, -1, dtype=np.int64)
        return np.asarray(X, dtype=np.int64) @ powers

    def sequence_at(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.n_sequences:
            raise ParameterError(f"sequence index {index} out of range")
        chars = []
        for _ in range(self.length):
            index, c = divmod(index, self.alpha)
            chars.append(c)
        return tuple(reversed(chars))

    def enumerate_sequences(self) -> Iterator[tuple[int, ...]]:
        """All sequences in canonical (base-alpha) order.  Dense-capped."""
        self.require_dense(self.n_sequences, "sequence enumeration")
        return itertools.product(range(self.alpha), repeat=self.length)

    def sequences_array(self) -> np.ndarray:
        """All sequences as an ``(alpha**ell, ell)`` array in canonical order."""
        self.require_dense(self.n_sequences, "sequence enumeration")
        grids = np.meshgrid(*[np.arange(self.alpha)] * self.length, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)

    def hamming(self, x, y) -> int:
        """Number of positions where ``x`` and ``y`` differ."""
        xs, ys = self.encode_sequence(x), self.encode_sequence(y)
        return sum(a != b for a, b in zip(xs, ys))

    # -- subsequences -----------------------------------------------------

    def validate_subsequence(self, sub: Subsequence) -> Subsequence:
        if sub.positions and sub.positions[-1] > self.length:
            raise ParameterError(f"position {sub.positions[-1]} beyond length {self.length}")
        if any(not 0 <= c < self.alpha for c in sub.chars):
            raise ParameterError(f"character index out of range in {sub.chars}")
        return sub

    def _offsets(self) -> list[int]:
        # cumulative start index per position-set bitmask, built lazily
        if self._sub_offsets is None:
            self.require_dense(2 ** self.length, "subsequence index table")
            offsets, total = [], 0
            for mask in range(2 ** self.length):
                offsets.append(total)
                total += self.alpha ** bin(mask).count("1")
            self._sub_offsets = offsets
        return self._sub_offsets

    def subsequence_index(self, sub: Subsequence) -> int:
        self.validate_subsequence(sub)
        mask = 0
        for p in sub.positions:
            mask |= 1 << (p - 1)
        code = 0
        for c in sub.chars:
            code = code * self.alpha + c
        return self._offsets()[mask] + code

    def subsequence_at(self, index: int) -> Subsequence:
        if not 0 <= index < self.n_subsequences:
            raise ParameterError(f"subsequence index {index} out of range")
        offsets = self._offsets()
        # rightmost mask whose offset is <= index
        lo, hi = 0, len(offsets) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if offsets[mid] <= index:
                lo = mid
            else:
                hi = mid - 1
        mask, code = lo, index - offsets[lo]
        positions = tuple(p + 1 for p in range(self.length) if mask >> p & 1)
        chars = []
        for _ in positions:
            code, c = divmod(code, self.alpha)
            chars.append(c)
        return Subsequence(positions, tuple(reversed(chars)))

    def enumerate_subsequences(self) -> Iterator[Subsequence]:
        """All subsequences in canonical order.  Dense-capped."""
        self.require_dense(self.n_subsequences, "subsequence enumeration")
        for mask in range(2 ** self.length):
            positions = tuple(p + 1 for p in range(self.length) if mask >> p & 1)
            for chars in itertools.product(range(self.alpha), repeat=len(positions)):
                yield Subsequence(positions, chars)

    def subsequences(self) -> list[Subsequence]:
        return list(self.enumerate_subsequences())

    def indicator(self, seq, sub: Subsequence) -> int:
        """1 when the sequence carries the subsequence's characters, else 0."""
        xs = self.encode_sequence(seq)
        self.validate_subsequence(sub)
        return int(all(xs[p - 1] == c for p, c in zip(sub.positions, sub.chars)))

    def indicator_columns(self, X, subsequences=None) -> np.ndarray:
        """Indicator features of the sequences ``X``, one column per subsequence.

        Entry ``(i, k)`` is ``1`` iff ``X[i]`` carries ``subsequences[k]``,
        so callers that need only a few columns never build the rest.  None
        streams every subsequence in canonical order (dense-capped) without
        holding them in a list.
        """
        X = np.asarray(X, dtype=np.int64)
        if subsequences is None:
            n_columns, subsequences = self.n_subsequences, self.enumerate_subsequences()
        else:
            n_columns = len(subsequences)
        out = np.ones((X.shape[0], n_columns))
        for j, sub in enumerate(subsequences):
            col = np.ones(X.shape[0], dtype=bool)
            for p, c in zip(sub.positions, sub.chars):
                col &= X[:, p - 1] == c
            out[:, j] = col
        return out

    def phi_dense(self) -> np.ndarray:
        """Dense indicator matrix, sequences by subsequences.  Dense-capped.

        Row ``x``, column ``(S, s)`` holds ``1`` iff ``x[S] = s``; every row
        sums to ``2**length``.
        """
        self.require_dense(self.n_sequences, "dense indicator matrix rows")
        self.require_dense(self.n_subsequences, "dense indicator matrix columns")
        return self.indicator_columns(self.sequences_array())

    # -- text forms -------------------------------------------------------

    def format_subsequence(self, sub: Subsequence) -> str:
        """Text form ``"2:b;5:e"`` with 1-based ascending positions; ``"-"`` when empty."""
        if not sub.positions:
            return "-"
        return ";".join(f"{p}:{self.alphabet[c]}" for p, c in zip(sub.positions, sub.chars))

    def parse_subsequence(self, text: str) -> Subsequence:
        """Parse the text form; entries are canonicalized to ascending positions."""
        text = text.strip()
        if text == "-":
            return EMPTY_SUBSEQUENCE
        pairs = []
        for item in text.split(";"):
            head, sep, tail = item.partition(":")
            if not sep:
                raise ParameterError(f"malformed subsequence entry {item!r} in {text!r}")
            try:
                p = int(head)
            except ValueError:
                raise ParameterError(f"position {head!r} is not an integer in {text!r}") from None
            if not 1 <= p <= self.length:
                raise ParameterError(f"position {p} outside 1..{self.length} in {text!r}")
            if tail not in self._char_index:
                raise ParameterError(f"unknown character {tail!r} in {text!r}")
            pairs.append((p, self._char_index[tail]))
        positions = [p for p, _ in pairs]
        if len(set(positions)) != len(positions):
            raise ParameterError(f"duplicate position in {text!r}")
        pairs.sort()
        return Subsequence(tuple(p for p, _ in pairs), tuple(c for _, c in pairs))
