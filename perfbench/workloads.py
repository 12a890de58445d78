"""The three benchmark workloads.

Each workload is a closed loop with one caller: an op starts when the
previous one has returned.  Inputs come from ``numpy.random.default_rng((seed,
1, i))`` for op ``i`` (op 0 is the untimed warm-up) and from ``(seed, 0)``
for fitted training data; they are built outside the timed region and are
fresh for every op.  A workload exposes:

* ``prepare()``: the program-side preparation timed into ``setup_s``;
* ``make_input(i)``: the untimed inputs of op ``i``;
* ``run(inp)``: the timed op, returning what the program produced;
* ``check(inp, out)``: the error against the independent reference, as max
  abs error / max |reference| over every returned array;
* ``discard(inp)``: removes the op's files, if any.

Why each workload is in the benchmark is written in README.md next to this
file; the short form is in each class docstring.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

import reference

DNA = "ACGT"
PROTEIN = "ACDEFGHIKLMNPQRSTVWY"
NOISE_VARIANCE = 0.1


def _op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng((seed, 1, i))


def _training_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng((seed, 0))


def _sequences(rng, n: int, alpha: int, ell: int) -> np.ndarray:
    return rng.integers(0, alpha, size=(n, ell))


def _text(X, alphabet: str) -> list[str]:
    return ["".join(alphabet[c] for c in row) for row in X]


def _targets(rng, X, alpha: int) -> np.ndarray:
    """Additive effects plus one pairwise term plus noise: a plausible landscape."""
    n, ell = X.shape
    effects = rng.normal(size=(ell, alpha))
    y = effects[np.arange(ell), X].sum(axis=1)
    y += 0.5 * (X[:, 0] == X[:, ell - 1])
    return y + math.sqrt(NOISE_VARIANCE) * rng.normal(size=n)


def _subsequence_text(pos, chars, alphabet: str) -> str:
    if not pos:
        return "-"
    return ";".join(f"{p + 1}:{alphabet[c]}" for p, c in zip(pos, chars))


class CoefDna27:
    """Gauge-weight posteriors through the CLI, DNA at the largest accepted length.

    The paper's headline use at the scale it promises: each op is one
    ``seqgp posterior`` run, in-process through ``seqgp.cli.main``, on a fresh
    1500-row CSV and 200 fresh keys with covariance output written as text.
    Fresh inputs mirror CLI users, who start a new process each run, so no
    cache kept across calls can fake a gain here.  At these sizes an op takes
    about 1.3 s, so a 30-second run holds about 20 ops; at t=2000 and 400
    keys it held 9-12 and its median spread too far between runs.
    """

    name = "coef-dna27"
    import_target = "seqgp.cli"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed, self.workdir = seed, workdir
        self.ell, self.t, self.j = (6, 40, 12) if smoke else (27, 1500, 200)

    def prepare(self) -> None:
        """A CLI run keeps nothing between runs, so there is nothing to prepare."""

    def make_input(self, i: int) -> dict:
        rng = _op_rng(self.seed, i)
        ell, alpha = self.ell, len(DNA)
        z = rng.uniform(0.1, 0.6, size=ell)
        X = _sequences(rng, self.t, alpha, ell)
        y = _targets(rng, X, alpha)
        keys = [((), ())]
        seen = {((), ())}
        while len(keys) < self.j:
            order = int(rng.integers(1, 4))
            pos = tuple(sorted(int(p) for p in rng.choice(ell, size=order, replace=False)))
            key = (pos, tuple(int(c) for c in rng.integers(0, alpha, size=order)))
            if key not in seen:
                seen.add(key)
                keys.append(key)
        opdir = self.workdir / f"op{i}"
        opdir.mkdir()
        config = {
            "alphabet": DNA, "length": ell,
            "kernel": {"family": "connectedness", "z": z.tolist()},
            "gauge": {"lambda": "inf", "pi": "uniform"},
            "noise_variance": NOISE_VARIANCE,
            "transform": {"kind": "gauge-weights"},
            "output": {"covariance": True},
        }
        (opdir / "config.json").write_text(json.dumps(config))
        rows = "".join(f"{s},{v!r}\n" for s, v in zip(_text(X, DNA), y.tolist()))
        (opdir / "train.csv").write_text("sequence,value\n" + rows)
        labels = [_subsequence_text(pos, chars, DNA) for pos, chars in keys]
        (opdir / "keys.txt").write_text("\n".join(labels) + "\n")
        argv = ["posterior", "--config", str(opdir / "config.json"),
                "--data", str(opdir / "train.csv"), "--query", str(opdir / "keys.txt"),
                "--out", str(opdir / "out.tsv")]
        return {"dir": opdir, "argv": argv, "z": z, "X": X, "y": y, "keys": keys,
                "labels": labels}

    def run(self, inp: dict) -> int:
        import seqgp.cli

        return seqgp.cli.main(inp["argv"])

    def check(self, inp: dict, out: int) -> float:
        if out != 0:
            return math.inf
        lines = (inp["dir"] / "out.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[2:]]
        if lines[0] != "# seqgp posterior" or [r[0] for r in rows] != inp["labels"]:
            return math.inf
        values = np.array([[float(v) for v in r[1:]] for r in rows])
        MK_X, MKMT = reference.zero_sum_weight_rows(inp["keys"], inp["X"], inp["z"], len(DNA))
        gp = reference.ConnectednessGp(inp["X"], inp["y"], inp["z"], len(DNA), NOISE_VARIANCE)
        mean, cov = gp.transform(MK_X, MKMT)
        sd = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        return max(reference.rel_error(values[:, 0], mean),
                   reference.rel_error(values[:, 1], sd),
                   reference.rel_error(values[:, 2:], cov))

    def discard(self, inp: dict) -> None:
        shutil.rmtree(inp["dir"])


class PredictProtein14:
    """Repeated prediction from one fitted regressor, protein at the largest length.

    The library user's read-heavy loop: one ``GaugeGPRegressor`` fitted on
    2000 rows, then ``predict(50 fresh sequences, return_std=True)`` per op.
    Fitted state is reused across ops here and nowhere else, so reuse of that
    state shows up on this workload; ``coef-dna27`` shows what the reuse
    costs a caller who never repeats.  Some ``z`` are negative, so a
    log-domain kernel build cannot silently skip the signed case.
    """

    name = "predict-protein14"
    import_target = "seqgp"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.ell, self.t, self.q = (4, 40, 5) if smoke else (14, 2000, 50)
        rng = _training_rng(seed)
        alpha = len(PROTEIN)
        # connectedness needs z > -1/(alpha - 1); three positions are negative
        self.z = rng.uniform(0.05, 0.6, size=self.ell)
        self.z[:3] = -rng.uniform(0.005, 0.05, size=3)
        self.X = _sequences(rng, self.t, alpha, self.ell)
        self.y = _targets(rng, self.X, alpha)
        self.train = _text(self.X, PROTEIN)
        self._reference = None

    def prepare(self) -> None:
        from seqgp import GaugeGPRegressor

        self.est = GaugeGPRegressor(
            alphabet=PROTEIN, length=self.ell,
            kernel={"family": "connectedness", "z": self.z.tolist()},
            gauge={"lambda": "inf", "pi": "uniform"},
            noise_variance=NOISE_VARIANCE,
        ).fit(self.train, self.y)

    def make_input(self, i: int) -> dict:
        Q = _sequences(_op_rng(self.seed, i), self.q, len(PROTEIN), self.ell)
        return {"Q": Q, "text": _text(Q, PROTEIN)}

    def run(self, inp: dict):
        return self.est.predict(inp["text"], return_std=True)

    def check(self, inp: dict, out) -> float:
        if self._reference is None:
            self._reference = reference.ConnectednessGp(self.X, self.y, self.z, len(PROTEIN),
                                                        NOISE_VARIANCE)
        mean, sd = self._reference.predict(inp["Q"])
        return max(reference.rel_error(out[0], mean), reference.rel_error(out[1], sd))

    def discard(self, inp: dict) -> None:
        pass


class VcDesk:
    """Coefficient posteriors under the isotropic ``vc`` kernel, at desk scale.

    ``vc`` has no per-position factorization, so each op takes the dense
    fallback (``VcKernel.dense`` then ``oracle.dense_transform_posterior``)
    on all 4096 sequences of DNA length 6.  It skips ``_linalg`` and
    ``posterior`` entirely: the workload a factorized isotropic route should
    move and a solver or product-kernel change should leave unchanged.
    """

    name = "vc-desk"
    import_target = "seqgp"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.ell, self.t, self.j = (3, 20, 10) if smoke else (6, 300, 100)
        self.lambdas = [2.0 ** -k for k in range(self.ell + 1)]
        self.reference_sequence = DNA[0] * self.ell
        rng = _training_rng(seed)
        self.X = _sequences(rng, self.t, len(DNA), self.ell)
        self.y = _targets(rng, self.X, len(DNA))
        self.train = _text(self.X, DNA)
        self._dense = None

    def prepare(self) -> None:
        from seqgp import GaugeGPRegressor

        self.est = GaugeGPRegressor(
            alphabet=DNA, length=self.ell,
            kernel={"family": "vc", "lambdas": self.lambdas},
            noise_variance=NOISE_VARIANCE,
        ).fit(self.train, self.y)

    def make_input(self, i: int) -> dict:
        # key n in base 4: digit 0 leaves the position out, digits 1-3 pick
        # one of the three off-reference characters C, G, T
        alpha, ell = len(DNA), self.ell
        codes = _op_rng(self.seed, i).choice(alpha ** ell, size=self.j, replace=False)
        keys = []
        for n in codes:
            digits = [(int(n) // alpha ** p) % alpha for p in range(ell)]
            pos = tuple(p for p in range(ell) if digits[p])
            keys.append((pos, tuple(digits[p] for p in pos)))
        return {"keys": keys, "text": [_subsequence_text(p, c, DNA) for p, c in keys]}

    def run(self, inp: dict):
        return self.est.coefficient_posterior(inp["text"], kind="background-averaged",
                                              reference=self.reference_sequence)

    def check(self, inp: dict, out) -> float:
        from seqgp import SequenceSpace, TrainingData, VcKernel
        from seqgp.oracle import dense_transform_posterior

        space = SequenceSpace(DNA, self.ell)
        if self._dense is None:
            self._dense = VcKernel(self.lambdas, space).dense()
        M = reference.background_averaged_rows(inp["keys"], [0] * self.ell, len(DNA), self.ell)
        labels = ["background-averaged:" + t for t in inp["text"]]
        post = dense_transform_posterior(M, self._dense,
                                         TrainingData(self.X, self.y, NOISE_VARIANCE),
                                         space, labels=labels)
        if list(out.labels) != labels:
            return math.inf
        return max(reference.rel_error(out.mean, post.mean),
                   reference.rel_error(out.cov, post.cov))

    def discard(self, inp: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (CoefDna27, PredictProtein14, VcDesk)}
