"""Layer spans recorded from outside seqgp, for the traced run only.

Tracing wraps the names where seqgp's own code looks them up: the functions
that ``seqgp.cli`` and ``seqgp.estimators`` import by name, the module
globals that ``seqgp.posterior`` calls, and class methods.  Each call
becomes a span ``(id, parent, name, start, end, counts)`` kept in memory.
A span's self time is its duration minus the part of it that its child
spans cover.  Counts come from argument shapes and return values only.

Nothing is wrapped unless :meth:`Tracer.installed` is active, so untraced
ops run seqgp unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matrix_entries(args, kwargs, result) -> dict:
    return {"entries": int(np.asarray(result).size)}


def _jitter_steps(args, kwargs, result) -> dict:
    """Ladder rungs that failed before the one that succeeded."""
    from seqgp._linalg import JITTER_LADDER

    solver = args[0]
    ladder = args[2] if len(args) > 2 else kwargs.get("ladder", JITTER_LADDER)
    return {"jitter_steps": list(ladder).index(solver.jitter)}


def _rhs_cols(args, kwargs, result) -> dict:
    b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
    return {"rhs_cols": 1 if b.ndim < 2 else int(b.shape[1])}


def _targets():
    """``(owner, attribute, span name, counter)`` for every wrapped name."""
    import seqgp.cli as cli
    import seqgp.estimators as estimators
    import seqgp.posterior as posterior
    from seqgp._linalg import SpdSolver
    from seqgp.gauges import FactorizedTransform
    from seqgp.kernels import ProductKernel, VcKernel
    from seqgp.seqspace import SequenceSpace

    imported = {
        "gauge_weight_posterior": "posterior.gauge_weight_posterior",
        "transform_posterior": "posterior.transform_posterior",
        "dense_transform_posterior": "oracle.dense_transform_posterior",
        "gp_posterior": "regress.gp_posterior",
        "transform_rows": "gauges.transform_rows",
    }
    targets = [(module, attr, name, None)
               for module in (cli, estimators) for attr, name in imported.items()]
    targets += [
        (cli, "main", "cli.main", None),
        (cli, "parse_training_csv", "cli.parse_training_csv", None),
        (posterior, "mk_matrix", "posterior.mk_matrix", None),
        (posterior, "mkmt_matrix", "posterior.mkmt_matrix", None),
        (ProductKernel, "matrix", "kernels.matrix", _matrix_entries),
        (VcKernel, "matrix", "kernels.matrix", _matrix_entries),
        (ProductKernel, "dense", "kernels.dense", None),
        (VcKernel, "dense", "kernels.dense", None),
        (SpdSolver, "__init__", "linalg.factor", _jitter_steps),
        (SpdSolver, "solve", "linalg.solve", _rhs_cols),
        (FactorizedTransform, "dense_matrix", "gauges.dense_matrix", None),
        (SequenceSpace, "encode_batch", "seqspace.encode_batch", None),
        (estimators.GaugeGPRegressor, "fit", "estimators.fit", None),
        (estimators.GaugeGPRegressor, "predict", "estimators.predict", None),
        (estimators.GaugeGPRegressor, "coefficient_posterior",
         "estimators.coefficient_posterior", None),
    ]
    return targets


class Tracer:
    """Collects spans in memory; :meth:`installed` wraps seqgp while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def descendants(spans: list[Span], root: Span) -> list[Span]:
    """Every span below ``root``, in recording order."""
    below, out = {root.id}, []
    for span in spans[root.id + 1:]:
        if span.parent in below:
            below.add(span.id)
            out.append(span)
    return out
