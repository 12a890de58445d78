"""Batch command-line front end.

Subcommands::

    posterior         coefficient posteriors (gauge-fixed weights, epistasis,
                      Fourier/Walsh-Hadamard) from a training CSV
    predict           Gaussian process posterior at query sequences
    kernel-eval       kernel entries for sequence pairs
    build-regularizer dense weight penalty written to a file (size-guarded)
    simulate          prior samples written as CSV
    verify            run the oracle conformance suite

Every run is driven by one JSON config file (``--config``); there is no
environment-variable configuration.  Identical config, inputs, and seed
produce byte-identical output.  Exit codes: 0 success, 2 config error,
3 data error, 4 numerical error, 5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._linalg import JITTER_LADDER
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    InvalidIndexError,
    NumericalError,
    ParameterError,
    SizeGuardError,
)
from .gauges import (
    GaugeSpec,
    KIND_RULES,
    TRANSFORM_KINDS,
    gauge_from_config,
    parse_coefficient_key,
    transform_rows,
)
from .kernels import kernel_from_config
from .oracle import (
    DEFAULT_SEED as DEFAULT_VERIFY_SEED,
    dense_transform_posterior,  # noqa: F401 - unused; perfbench/tracing.py wraps it here
    gnk_sample,
    run_conformance,
    sample_function_prior,
)
from .posterior import (
    gauge_weight_posterior,  # noqa: F401 - unused; perfbench/tracing.py wraps it here
    transform_posterior,
)
from .regress import TrainingData, gp_posterior
from .seqspace import SequenceSpace

_TOP_KEYS = {"alphabet", "length", "kernel", "gauge", "noise_variance", "transform",
             "jitter", "output", "simulate"}
_OUTPUT_KEYS = {"covariance", "precision"}
_TRANSFORM_KEYS = {"kind", "reference"}
_SIMULATE_KEYS = {"samples", "source", "neighborhoods"}
_JSON_NAMES = {str: "string", bool: "boolean", list: "list", dict: "object"}


@dataclass
class RunConfig:
    space: SequenceSpace
    kernel_cfg: dict | None
    gauge_cfg: dict | None
    noise_variance: float | None
    transform_kind: str
    reference: str | None
    jitter: tuple
    covariance: bool
    precision: int
    simulate: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        for key in ("alphabet", "length"):
            if raw.get(key) is None:
                raise ConfigError(f"config needs {key!r}")
        space = SequenceSpace(_typed(raw, "alphabet", str), _integer("length", raw["length"]))

        noise = raw.get("noise_variance")
        if noise is not None:
            noise = _number("noise_variance", noise)
            if not noise > 0:
                raise ConfigError(f"noise_variance must be positive, got {noise}")

        transform = _block(raw, "transform", _TRANSFORM_KEYS)
        kind = _typed(transform, "kind", str, "gauge-weights")
        if kind not in KIND_RULES:
            raise ConfigError(f"unknown transform kind {kind!r}; expected one of {TRANSFORM_KINDS}")
        rules = KIND_RULES[kind]
        reference = _typed(transform, "reference", str, None)
        if reference is not None and rules.reference == "refused":
            raise ConfigError(f"transform kind {kind!r} takes no reference sequence")
        if rules.binary and space.alpha != 2:
            raise ConfigError(f"transform kind {kind!r} requires a two-character alphabet")

        output = _block(raw, "output", _OUTPUT_KEYS)
        precision = _integer("precision", output.get("precision", 10))
        if not 1 <= precision <= 17:
            raise ConfigError(f"precision must be in 1..17, got {precision}")

        jitter = _typed(raw, "jitter", list, None)
        if jitter is None:
            jitter = JITTER_LADDER
        else:
            jitter = tuple(_number("jitter", v) for v in jitter)
            if not jitter or any(v < 0 for v in jitter):
                raise ConfigError(f"jitter must be a nonempty list of nonnegative numbers, "
                                  f"got {raw['jitter']!r}")

        simulate = _block(raw, "simulate", _SIMULATE_KEYS)
        samples = _integer("samples", simulate.get("samples", 1))
        if samples < 0:
            raise ConfigError(f"samples must be nonnegative, got {samples}")
        _typed(simulate, "source", str, "function")
        hoods = _typed(simulate, "neighborhoods", list, [])
        if not all(isinstance(h, list) and all(_is_integer(q) for q in h) for h in hoods):
            raise ConfigError("neighborhoods must be a list of lists of positions")

        return cls(
            space=space,
            kernel_cfg=_typed(raw, "kernel", dict, None),
            gauge_cfg=_typed(raw, "gauge", dict, None),
            noise_variance=noise,
            transform_kind=kind,
            reference=reference,
            jitter=jitter,
            covariance=_typed(output, "covariance", bool, False),
            precision=precision,
            simulate=simulate,
        )

    def kernel(self):
        if self.kernel_cfg is None:
            raise ConfigError("this subcommand needs a 'kernel' block in the config")
        return kernel_from_config(self.kernel_cfg, self.space)

    def gauge(self) -> GaugeSpec:
        if self.gauge_cfg is None:
            raise ConfigError("this subcommand needs a 'gauge' block in the config")
        return gauge_from_config(self.gauge_cfg, self.space)

    def training_noise(self) -> float:
        if self.noise_variance is None:
            raise ConfigError("this subcommand needs 'noise_variance' in the config")
        return self.noise_variance


def _typed(block: dict, key: str, kind: type, default=None):
    """``block[key]`` checked to be a ``kind``; ``default`` when it is absent or null."""
    value = block.get(key)
    if value is None:
        return default
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    return value


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(key: str, value) -> int:
    if not _is_integer(value):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _number(key: str, value) -> float:
    try:
        number = float(value) if _is_integer(value) or isinstance(value, float) else math.nan
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _block(raw: dict, key: str, allowed: set) -> dict:
    block = _typed(raw, key, dict, {})
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown {key} keys {sorted(unknown)}")
    return block


# -- input parsing ------------------------------------------------------------


def parse_training_csv(path: str | None, space: SequenceSpace,
                       noise_variance: float) -> TrainingData:
    """Read a ``sequence,value`` CSV; row numbers are preserved in errors.

    A missing path or header-only file yields an empty training set
    (prior-only mode).
    """
    if path is None:
        return TrainingData(np.empty((0, space.length), dtype=np.int64), np.empty(0),
                            noise_variance)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["sequence", "value"]:
        raise DataError(f"{path}: first line must be the header 'sequence,value'")
    seqs, values = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"{path}:{lineno}: expected two fields, got {len(row)}")
        try:
            seqs.append(space.encode_sequence(row[0].strip()))
        except (ParameterError, DimensionError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        try:
            value = float(row[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: value {row[1]!r} is not a number") from None
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: value must be finite, got {row[1]}")
        values.append(value)
    X = np.asarray(seqs, dtype=np.int64).reshape(len(seqs), space.length)
    return TrainingData(X, np.asarray(values), noise_variance)


def _query_entries(args) -> list[str]:
    if args.coeffs is not None and args.query is not None:
        raise DataError("pass either --query or --coeffs, not both")
    if args.coeffs is not None:
        return [item.strip() for item in args.coeffs.split(",") if item.strip()]
    if args.query is None:
        raise DataError("this subcommand needs --query or --coeffs")
    try:
        with open(args.query) as fh:
            return [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise DataError(f"cannot read query file {args.query}: {exc}") from exc


def parse_query(entries: list[str], kind: str, space: SequenceSpace) -> list:
    """Validate and canonicalize coefficient keys, deduplicating in order."""
    keys, seen = [], set()
    for entry in entries:
        try:
            key = parse_coefficient_key(kind, entry, space)
        except (ParameterError, InvalidIndexError) as exc:
            raise DataError(f"bad query entry {entry!r}: {exc}") from exc
        if key not in seen:
            seen.add(key)
            keys.append(key)
    if not keys:
        raise DataError("query resolved to no coefficients")
    return keys


# -- output -------------------------------------------------------------------


def _fmt_row(values, precision: int) -> list[str]:
    """Every value as ``%.<precision>g`` text (``nan``, ``inf`` and ``-0`` included)."""
    return list(map(f"%.{precision}g".__mod__, np.asarray(values, dtype=float).tolist()))


def _rounded(values, precision: int) -> list[float]:
    """Every value rounded to its printed text, for JSON output."""
    return [float(text) for text in _fmt_row(values, precision)]


class _Writer:
    def __init__(self, out_path: str | None):
        self.out_path = out_path
        self._fh = None

    def __enter__(self):
        self._fh = open(self.out_path, "w") if self.out_path else sys.stdout
        return self._fh

    def __exit__(self, *exc):
        if self.out_path and self._fh is not None:
            self._fh.close()
        return False


def _emit_posterior_table(fh, command: str, post, covariance: bool, precision: int,
                          as_json: bool, id_column: str):
    cov = post.cov if covariance else None
    means, sds = _fmt_row(post.mean, precision), _fmt_row(post.sd, precision)
    if as_json:
        rows = []
        for i, label in enumerate(post.labels):
            row = {id_column: label, "mean": float(means[i]), "sd": float(sds[i])}
            if cov is not None:
                row["cov"] = _rounded(cov[i], precision)
            rows.append(row)
        json.dump({"command": command, "coefficients": rows}, fh, indent=2)
        fh.write("\n")
        return
    fh.write(f"# seqgp {command}\n")
    header = [id_column, "mean", "sd"]
    if cov is not None:
        header += [f"cov:{label}" for label in post.labels]
    fh.write("\t".join(header) + "\n")
    for i, label in enumerate(post.labels):
        fields = [label, means[i], sds[i]]
        if cov is not None:
            fields += _fmt_row(cov[i], precision)
        fh.write("\t".join(fields) + "\n")


# -- subcommands ---------------------------------------------------------------


def _cmd_posterior(args, cfg: RunConfig):
    space = cfg.space
    kernel = cfg.kernel()
    data = parse_training_csv(args.data, space, cfg.training_noise())
    keys = parse_query(_query_entries(args), cfg.transform_kind, space)
    gauge = cfg.gauge() if KIND_RULES[cfg.transform_kind].gauge else None
    transform = transform_rows(cfg.transform_kind, space, keys, gauge=gauge,
                               reference=cfg.reference)
    post = transform_posterior(transform, kernel, data, want_covariance=cfg.covariance,
                               ladder=cfg.jitter)
    with _Writer(args.out) as fh:
        _emit_posterior_table(fh, "posterior", post, cfg.covariance, cfg.precision,
                              args.json, "label")
    return 0


def _cmd_predict(args, cfg: RunConfig):
    space = cfg.space
    kernel = cfg.kernel()
    data = parse_training_csv(args.data, space, cfg.training_noise())
    entries = _query_entries(args)
    seen, query = set(), []
    for entry in entries:
        try:
            seq = space.encode_sequence(entry)
        except (ParameterError, DimensionError) as exc:
            raise DataError(f"bad query sequence {entry!r}: {exc}") from exc
        if seq not in seen:
            seen.add(seq)
            query.append(seq)
    post = gp_posterior(kernel, data, query, space, ladder=cfg.jitter)
    with _Writer(args.out) as fh:
        _emit_posterior_table(fh, "predict", post, cfg.covariance, cfg.precision,
                              args.json, "sequence")
    return 0


def _cmd_kernel_eval(args, cfg: RunConfig):
    space = cfg.space
    kernel = cfg.kernel()
    if args.data is None:
        raise DataError("kernel-eval needs --data with an 'x,y' pair CSV")
    try:
        with open(args.data, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read data file {args.data}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["x", "y"]:
        raise DataError(f"{args.data}: first line must be the header 'x,y'")
    pairs = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"{args.data}:{lineno}: expected two fields")
        try:
            pairs.append((space.encode_sequence(row[0].strip()),
                          space.encode_sequence(row[1].strip())))
        except (ParameterError, DimensionError) as exc:
            raise DataError(f"{args.data}:{lineno}: {exc}") from exc
    values = _fmt_row([kernel.matrix(np.asarray([x]), np.asarray([y]))[0, 0] for x, y in pairs],
                      cfg.precision)
    with _Writer(args.out) as fh:
        if args.json:
            body = [{"x": space.format_sequence(x), "y": space.format_sequence(y),
                     "value": float(v)}
                    for (x, y), v in zip(pairs, values)]
            json.dump({"command": "kernel-eval", "entries": body}, fh, indent=2)
            fh.write("\n")
        else:
            fh.write("# seqgp kernel-eval\nx\ty\tvalue\n")
            for (x, y), v in zip(pairs, values):
                fh.write(f"{space.format_sequence(x)}\t{space.format_sequence(y)}\t{v}\n")
    return 0


def _cmd_build_regularizer(args, cfg: RunConfig):
    from .regress import build_theta_regularizer

    space = cfg.space
    kernel = cfg.kernel()
    gauge = cfg.gauge()
    space.require_dense(space.n_subsequences, "dense regularizer assembly")
    lam = build_theta_regularizer(kernel, gauge, space)
    labels = [space.format_subsequence(s) for s in space.enumerate_subsequences()]
    if args.out is None:
        raise ConfigError("build-regularizer needs --out")
    with _Writer(args.out) as fh:
        if args.json:
            json.dump({"command": "build-regularizer", "labels": labels,
                       "matrix": [_rounded(row, cfg.precision) for row in lam]},
                      fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(["label"] + labels)
            for label, row in zip(labels, lam):
                writer.writerow([label] + _fmt_row(row, cfg.precision))
    return 0


def _cmd_simulate(args, cfg: RunConfig):
    space = cfg.space
    n = cfg.simulate.get("samples", 1)
    source = cfg.simulate.get("source", "function")
    rng = np.random.default_rng(args.seed)
    space.require_dense(max(n, 1) * space.n_sequences, "prior simulation")
    if source == "function":
        space.require_dense(space.n_sequences ** 2, "dense prior kernel")
        samples = sample_function_prior(cfg.kernel().dense(), n, rng)
    elif source == "gnk":
        hoods = cfg.simulate.get("neighborhoods")
        if hoods is None:
            raise ConfigError("simulate source 'gnk' needs 'neighborhoods'")
        samples = gnk_sample(hoods, space, n, rng)
    else:
        raise ConfigError(f"unknown simulate source {source!r}")
    labels = [space.format_sequence(x) for x in space.sequences_array()]
    with _Writer(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence"] + [f"sample_{i + 1}" for i in range(n)])
        for label, row in zip(labels, samples.T):
            writer.writerow([label] + _fmt_row(row, cfg.precision))
    return 0


def _cmd_verify(args):
    seed = args.seed if args.seed is not None else DEFAULT_VERIFY_SEED
    results = run_conformance(seed)
    with _Writer(args.out) as fh:
        if args.json:
            json.dump({"command": "verify", "seed": seed,
                       "results": [{"name": r.name, "error": r.error,
                                    "tolerance": r.tolerance, "passed": r.passed}
                                   for r in results]}, fh, indent=2)
            fh.write("\n")
        else:
            fh.write(f"# seqgp verify (seed {seed})\n")
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                fh.write(f"{status}\t{r.name}\t{r.error:.3e}\t{r.tolerance:.1e}\n")
            n_pass = sum(r.passed for r in results)
            fh.write(f"# {n_pass}/{len(results)} comparisons passed\n")
    return 0 if all(r.passed for r in results) else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqgp",
        description="Gaussian process inference and gauge-fixed coefficient "
                    "posteriors on sequence spaces",
    )
    parser.add_argument("subcommand", choices=["posterior", "predict", "kernel-eval",
                                               "build-regularizer", "simulate", "verify"])
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--data", help="training CSV (sequence,value) or pair CSV (x,y)")
    parser.add_argument("--query", help="query file: one coefficient key or sequence per line")
    parser.add_argument("--coeffs", help="inline comma-separated query entries")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, help="seed for simulate/verify")
    parser.add_argument("--json", action="store_true", help="JSON output mode")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "verify":
            return _cmd_verify(args)
        if args.config is None:
            raise ConfigError(f"{args.subcommand} needs --config")
        cfg = RunConfig.load(args.config)
        if args.subcommand == "posterior":
            return _cmd_posterior(args, cfg)
        if args.subcommand == "predict":
            return _cmd_predict(args, cfg)
        if args.subcommand == "kernel-eval":
            return _cmd_kernel_eval(args, cfg)
        if args.subcommand == "build-regularizer":
            return _cmd_build_regularizer(args, cfg)
        return _cmd_simulate(args, cfg)
    except (ConfigError, SizeGuardError, ParameterError) as exc:
        print(f"seqgp: error[CONFIG]: {exc}", file=sys.stderr)
        return 2
    except (DataError, DimensionError, InvalidIndexError) as exc:
        print(f"seqgp: error[DATA]: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"seqgp: error[NUMERICAL]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
